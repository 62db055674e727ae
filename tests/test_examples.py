"""Every example script imports cleanly.

Each example keeps its work behind a ``__main__`` guard, so importing
one runs nothing; it only resolves every name the script uses from
``repro`` at module level. A renamed or retired public name in an
example fails here instead of on a reader's first run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)

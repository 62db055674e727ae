"""The repository's end-to-end benchmark; ``perfbench/run.py`` is its
command and ``perfbench/README.md`` its documentation."""

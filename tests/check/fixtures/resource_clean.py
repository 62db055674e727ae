"""Idioms the resource rule must accept (never imported)."""

import os
import tempfile


def releases_in_finally(trace, run):
    shm = None
    try:
        view, shm = trace.share()
        run(view)
    finally:
        if shm is not None:  # guarded release counts at the guard
            shm.close()
            shm.unlink()


def tmp_replace_pattern(payload, path):
    fd, tmp = tempfile.mkstemp(dir=".")
    try:
        with os.fdopen(fd, "w") as fh:  # fdopen takes over the fd
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cleanup_on_reraise(payload, path):
    fd, tmp = tempfile.mkstemp(dir=".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:  # catch-all + re-raise still cleans up
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def hands_off(trace):
    view, shm = trace.share()
    return shm  # ownership transferred to the caller


def context_managed():
    with tempfile.TemporaryDirectory() as tmpdir:
        return len(tmpdir)  # the context manager releases

"""Seeded violations for the resource rule (never imported)."""

import tempfile


def leaks_on_exception(trace, run):
    view, shm = trace.share()
    run(view)  # may raise: the release below is skipped
    shm.close()
    shm.unlink()


def never_releases():
    fd, tmp = tempfile.mkstemp()
    return None  # neither handle is ever released

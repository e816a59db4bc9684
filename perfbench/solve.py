"""Solve one problem file through the public CLI entry point under a
wall-clock cap, with stdout and stderr captured."""

from __future__ import annotations

import io
import signal
import time
from contextlib import redirect_stderr, redirect_stdout


class CapReached(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    in the library can swallow it."""


def _on_alarm(signum, frame):
    raise CapReached()


def solve_one(main, path, cap_s):
    """Run ``main(["run", path])``; the timed region is parse, run and render."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["run", str(path)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapReached:
        pass
    except Exception as exc:  # an uncaught library error is a failed problem
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    return {
        "code": code,
        "stdout": out.getvalue(),
        "s": elapsed,
        "capped": code is None and error is None,
        "error": error,
    }

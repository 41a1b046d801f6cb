"""Shared fixtures for the LSL socket-transport tests."""

import threading
import time

import pytest

#: Seconds a test's new LSL threads get to finish after the test ends.
LEAK_GRACE = 2.0


def _lsl_threads() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("lsl:") and thread.is_alive()
    }


@pytest.fixture(autouse=True)
def no_leaked_lsl_threads(request):
    """Fail the test that leaves an LSL thread running.

    Every transport thread is named ``lsl:<server>:...`` (accept loops
    and per-connection handlers alike).  Threads that start during the
    test get a short grace period to finish once it ends; any still
    alive escaped a ``close()``, and the leak is charged to this test
    whatever the run order.
    """
    before = _lsl_threads()
    yield
    deadline = time.monotonic() + LEAK_GRACE
    leaked = []
    for thread in sorted(_lsl_threads() - before, key=lambda t: t.name):
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    assert not leaked, (
        f"{request.node.nodeid} leaked LSL threads: " + ", ".join(leaked)
    )

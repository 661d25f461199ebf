import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or zombie."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "a running child process" if pid == 0 else f"zombie child {pid}"
    pytest.fail(f"the test left {left} behind")

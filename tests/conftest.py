"""A deadline for every test.

Nothing else bounds a test's time, so a change that makes the simulator
loop forever would hang the suite instead of failing it. Each test's
setup, call and teardown share one deadline; past it, SIGALRM raises an
error that names the test. The slowest test takes about 5 s, its setup
included.
"""

import signal

import pytest

DEADLINE_S = 60


class DeadlineExceeded(Exception):
    """A test ran past DEADLINE_S."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    def expire(signum, frame):
        raise DeadlineExceeded(f"{item.nodeid} ran past its {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

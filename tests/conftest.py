import multiprocessing
import signal

import pytest


@pytest.fixture(autouse=True)
def _deadline(request):
    # a test that starts sweep workers is marked, so a sweep that hangs
    # fails its test instead of blocking the test run, and a sweep that
    # leaves a worker running fails its test too
    marker = request.node.get_closest_marker("deadline")
    if marker is None:
        yield
        return
    seconds = marker.args[0]

    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert left == [], f"child processes left running: {left}"

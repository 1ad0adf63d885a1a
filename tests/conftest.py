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


@pytest.fixture
def fresh_tables():
    # a test that spoils what the construction's cached tables are built
    # from starts and ends with every cache of construct empty, so no
    # cached table hides its refusal and no spoiled table outlives it;
    # the caches are found by their cache_clear, so a new one is too
    from midlayer import construct

    caches = [
        obj
        for obj in vars(construct).values()
        if hasattr(obj, "cache_clear") and obj.__module__ == construct.__name__
    ]
    for table in caches:
        table.cache_clear()
    yield
    for table in caches:
        table.cache_clear()

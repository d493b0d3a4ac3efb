import signal

import pytest


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the per-test bound needs SIGALRM")
@pytest.mark.time_bound(0.2)
def test_time_bound_fails_a_hanging_test():
    # conftest's bound, shortened by the marker, interrupts a loop that never ends.
    with pytest.raises(TimeoutError, match=r"test_time_bound_fails_a_hanging_test ran past its time bound of 0\.2 s"):
        while True:
            pass

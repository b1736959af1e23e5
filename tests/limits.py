"""A wall-clock bound for a block of test code, so a hang fails instead of stalling the run."""

import contextlib
import signal


class TimeLimitExceeded(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` in heyde swallows it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the block once it has run for `seconds` (SIGALRM).

    The alarm interrupts Python bytecode; a single long C call (one huge
    power, say) ends before it is seen.
    """

    def expire(signum, frame):
        raise TimeLimitExceeded(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

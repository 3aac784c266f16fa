"""Host-speed reference for the end-to-end timings.

The benchmark runs on a shared host whose speed drifts by tens of
percent within seconds and over minutes, and a run of the same code
reads that drift as a change of the program.  So the host's speed is
sampled while the program runs, with a fixed reference: a few
milliseconds of interpreter work and small LAPACK calls, the same mix
as conestab's kernels, but none of conestab's code.  A reference runs
just before each operation, and a timer runs one every PERIOD_S seconds
inside it; the time the timer's references take is taken out of the
operation's time.  An operation's time is reported in reference
seconds,

    wall time * REF_S / (mean of the references before, inside and
                         just after it),

that is, the time it would take on a host where the reference takes
REF_S.  A faster program still reads faster, and host drift that slows
the program and the reference alike cancels.
"""

import signal
import time

import numpy as np

# The unit of the reported times: a fixed constant, close to what
# reference() takes on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4), where
# it reads 7-12 ms as the host's load changes.
REF_S = 0.008
# interval of the references taken inside an operation; each costs about
# REF_S, so they add about 4% to an operation's wall time (not to its time)
PERIOD_S = 0.25

_RNG = np.random.default_rng(0)
_SYM = _RNG.standard_normal((10, 10))
_SYM = _SYM + _SYM.T
_LIN = _RNG.standard_normal((30, 30)) + 30.0 * np.eye(30)
_RHS = _RNG.standard_normal(30)


def reference():
    """Run the fixed reference work once; return its wall time in s."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * i) % 7
    for _ in range(150):
        w, v = np.linalg.eigh(_SYM)
        acc += float((v.T @ _SYM @ v)[0, 0]) + float(w[-1])
        acc += float(np.linalg.solve(_LIN, _RHS)[0])
    return time.perf_counter() - t0


class Sampler:
    """Context manager that takes a reference every PERIOD_S seconds on
    SIGALRM while it is open.  `refs` holds their times and `spent` the
    wall time they took, to be taken out of the time of the code that
    ran inside."""

    def __enter__(self):
        self.refs = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.refs.append(reference())
        self.spent += time.perf_counter() - t0


def scale(wall_s, refs):
    """`wall_s` in reference seconds, given the references taken before,
    during and after it."""
    return wall_s * REF_S * len(refs) / sum(refs)

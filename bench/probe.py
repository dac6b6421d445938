"""A fixed reference job that measures how fast the machine runs right now.

On a shared machine the speed of a core drifts: on the 2-core box this
benchmark was sized on, the same pass took anywhere from 1x to 1.6x its
fastest time, in phases lasting tens of seconds.  The benchmark runs
``probe()`` before the first command of a pass and after every command, and
divides each command's wall time by the mean of the two probes around it, so
a phase that slows both cancels out.  The job calls no capthresh code, so no
change to the program can move it.  Its mix follows the program's: scalar
``scipy.stats`` calls, a tight Python loop, beta sampling with a lexsort, and
small numpy and ``scipy.special`` reductions.  A job without the scipy.stats
part slowed less than the program in slow phases and under-corrected.
"""

import statistics
from time import perf_counter

import numpy as np
from scipy import stats
from scipy.special import ndtr

# A probe is the median of this many bursts of about 3.4 ms.  Fifteen (about
# 50 ms) land on a brief transient next to a long command less often than five.
BURSTS = 15
_X = np.linspace(0.0, 1.0, 2048)


def _step(x: float, i: int) -> float:
    return x * 0.999 + i


def _burst() -> float:
    t0 = perf_counter()
    x = 0.0
    for i in range(15):  # scipy.stats' per-call Python machinery, as in BetaMixture.cdf
        x += float(stats.beta.cdf(0.05 + 0.06 * i, 2.0, 10.0))
    for i in range(4000):
        x = _step(x, i)
    rng = np.random.default_rng(0)
    for _ in range(4):
        r = rng.beta(2.0, 10.0, size=1000)
        order = np.lexsort((rng.permutation(1000), -r))
        x += float(r[order[:200]].sum())
    for _ in range(16):
        x += float(np.sum(_X * np.sqrt(_X)))
        x += float(ndtr(_X - x % 1.0).sum())
    return perf_counter() - t0


def probe() -> float:
    """Seconds of one reference burst, as the median of ``BURSTS`` tries."""
    return statistics.median(_burst() for _ in range(BURSTS))

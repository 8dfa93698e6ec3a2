"""Scale measured times and rates to a nominal host speed.

On a shared host the same computation can run 1.5x slower for tens of
seconds while other tenants are busy (a fixed loop took 18 ms or 28 ms
seconds apart on a 2-core VM, with no steal time reported), which swamps
run-to-run comparisons of the code itself.  The benchmark times a fixed
reference computation between its passes of work; a rate is reported as
measured, times ``median(reference) / REFERENCE_NOMINAL_S``: the rate on a
host that runs the reference in :data:`REFERENCE_NOMINAL_S`.  The median
over many short samples follows the slow and fast phases of the run
without chasing the sub-second jitter of any one sample.

The reference is interpreter-bound dictionary work.  On a 2-core VM,
through a slow phase in which ``fleet_ops`` replay units took 1.57x as
long, this reference slowed 1.45x, where a tight arithmetic loop plus a
numpy sort slowed only 1.27x; the scaled unit times of 10-second blocks
then spread half as much.
"""

from __future__ import annotations

import time

#: Reference time the scaled figures are expressed against.
REFERENCE_NOMINAL_S = 0.015
_REFERENCE_N = 150_000
_REFERENCE_KEYS = 4095


def reference_samples(n: int) -> list:
    """``n`` timings of a fixed dictionary-counting loop."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        counts: dict = {}
        for i in range(_REFERENCE_N):
            key = i & _REFERENCE_KEYS
            counts[key] = counts.get(key, 0) + 1
        samples.append(time.perf_counter() - start)
    return samples

"""Host-speed reference for the perfbench timings.

On a shared machine the CPU speed drifts by tens of percent over tens of
seconds, and wall time and CPU time drift alike.  The benchmark therefore
times a fixed reference job next to every timed interval and reports the
interval scaled to the speed at which the job takes NOMINAL_S:

    normalised = seconds * NOMINAL_S / reference_seconds

The job mixes the two kinds of work the pipelines do: a pure-Python loop
(interpreter overhead) and small numpy FFTs (compiled kernels).  A change to
gmclab cannot move the job, so a slower program still shows as a larger
normalised time, while a slower host does not.
"""

import time

import numpy as np

LOOP_ITERATIONS = 200_000
FFT_CALLS = 1_500
_FFT_INPUT = np.random.default_rng(0).standard_normal(512)
# the job's time at the quicker end (10th percentile) of its range on the
# 2-core machine where the benchmark was written, so a normalised time is
# close to the wall time on that machine when it is not busy
NOMINAL_S = 0.025


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference job."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    for _ in range(FFT_CALLS):
        np.fft.fft(_FFT_INPUT)
    return time.perf_counter() - start


def normalise(seconds: float, reference_s: float) -> float:
    return seconds * NOMINAL_S / reference_s

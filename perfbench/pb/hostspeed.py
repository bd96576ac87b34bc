"""Host speed: how fast this machine runs the kind of work the program
does, sampled through the timed region, to state CPU time at one fixed
speed.

On a shared virtual machine a vCPU's speed drifts by 20-50% over
seconds to minutes (a busy sibling hyperthread, a shared cache, the
host's clock), and CPU seconds drift with it: runs of the same code
then spread past any bound the benchmark may set.  So a run also times
two fixed kernels that belong to the benchmark and call nothing in the
program: an interpreter loop (dict updates and integer arithmetic) and
a NumPy one (gather, cumulative sum, sort), the two kinds of work the
simulator does.  The speed factor is the geometric mean, over both
kernels, of :data:`REFERENCE_S` over the kernel's median time.  CPU
seconds times the factor are CPU seconds at the reference speed: a
change to the program moves them, a drift of the host mostly does not.

The sims and the sweep sample at quiet points of their single-threaded
work, where nothing else runs in the process: a kernel timed beside the
work measures the work as much as the host.  One that samples inside a
timed stretch subtracts :attr:`HostSpeed.spent` from its CPU seconds.
"""

from __future__ import annotations

import math
import time

from . import common

#: median kernel times, in CPU seconds, that define the reference speed
#: (about those of a 2-vCPU Xeon virtual machine at its faster state);
#: fixed, so that figures stay comparable across runs and commits
REFERENCE_S = {"interp": 0.005, "vector": 0.005}


def _interp() -> int:
    counts: dict[int, int] = {}
    x = 0
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        x += i * 3 % 7
    return x


class HostSpeed:
    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(12345)
        self._values = rng.integers(0, 1 << 30, 200_000)
        self._order = rng.permutation(200_000)
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCE_S}
        #: CPU seconds the samples took
        self.spent = 0.0

    def _vector(self) -> int:
        import numpy

        gathered = self._values[self._order]
        return (int(numpy.cumsum(gathered & 1023)[-1])
                + int(numpy.sort(gathered[:50_000])[0]))

    def sample(self, repeat: int = 1) -> None:
        """Time both kernels ``repeat`` times."""
        start = time.process_time()
        for _ in range(repeat):
            for name, kernel in (("interp", _interp), ("vector", self._vector)):
                begin = time.process_time()
                kernel()
                self.samples[name].append(time.process_time() - begin)
        self.spent += time.process_time() - start

    def summary(self, raw_cpu_s: float) -> tuple[float, int, float]:
        """``(factor, samples, raw_cpu_s)``, for the run's report."""
        return self.factor(), len(self.samples["interp"]), raw_cpu_s

    def factor(self) -> float:
        """Measured speed over the reference speed: multiply CPU seconds
        by it to state them at the reference speed."""
        return math.prod(
            REFERENCE_S[name] / common.median(times)
            for name, times in self.samples.items()
        ) ** (1 / len(self.samples))

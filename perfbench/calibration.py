"""A fixed piece of numpy work that measures how fast the machine runs now.

On a shared host the same work can take twice as long a minute later, and
the slow spells outlast a run. The benchmark runs this kernel before every
round and scales its times to a reference speed. The kernel has one part
for each kind of work the workloads spend their time on, timed apart:

- ``gemv``: matrix-vector products over a 6272x500 matrix, like local
  search at the paper's scale;
- ``stream``: in-place updates of vectors of 3.4 M entries, like gradient
  outer products, batch sums and Adam at that scale;
- ``python``: a loop of tiny numpy calls, like the oracle model's chains.

A workload is scaled by the parts that match where its time goes. The
kernel uses no spindbm code, so a change to the library cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# seconds per part on a 2-core x86 VM with numpy 2.4 and OpenBLAS
REFERENCE_S = {"gemv": 0.02, "stream": 0.03, "python": 0.02}


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal((6272, 500))
        self.flat = [rng.standard_normal(self.big.size + 500 * 500) for _ in range(3)]
        self.small = rng.standard_normal((3, 3))
        self.nbytes = self.big.nbytes + sum(a.nbytes for a in self.flat)
        self.seconds()  # fault the pages in before the first timed call

    def seconds(self) -> dict:
        """Run each part once; wall seconds per part."""
        x = np.ones(self.big.shape[1])
        y = np.ones(self.big.shape[0])
        s = np.ones(3)
        t0 = perf_counter()
        for _ in range(6):
            x = np.tanh(y @ self.big)
            y = np.tanh(self.big @ x)
        t1 = perf_counter()
        g, m, v = self.flat
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        t2 = perf_counter()
        for _ in range(10000):
            float(self.small @ s @ s)
        t3 = perf_counter()
        return {"gemv": t1 - t0, "stream": t2 - t1, "python": t3 - t2}


def speed_factor(parts, samples) -> float:
    """Reference seconds per measured second for the given parts.

    samples is a list of ``Calibration.seconds()`` results; the factor
    compares their mean total over ``parts`` with the reference total.
    """
    measured = sum(sum(c[p] for p in parts) for c in samples) / len(samples)
    return sum(REFERENCE_S[p] for p in parts) / measured

"""Fixed reference kernels that measure how fast the host runs right now.

The machine is shared: other tenants slow this one's cores by up to 1.8x,
for seconds to minutes at a time, and the slowdown shows in CPU time as much
as in wall time.  It also differs by kind of work: in one slow spell an
adaptive quadrature with a Python integrand ran 1.7x slower, vectorised
complex exponentials 1.3x and a plain Python loop 1.15x.

The benchmark runs its workload's kernel between operations and scales each
operation's time by reference_s(workload) / (the kernel's time around it).
That reports it in reference-host seconds: its time on this host when
nothing slows it.  Each workload's kernel is made of the kinds of work it
does itself:

* ``oracle``: ``quad`` over a Python integrand, as in the line amplitudes;
* ``figures``, ``scatter``: complex exponentials over an array (mode sums),
  an interpreter loop (the Python around them) and an in-place sweep over a
  16 MB buffer (large matrices and phase arrays).  The buffer stays
  allocated, which adds 16 MB to these workloads' peak RSS;
* ``setup`` (imports, inputs and a warm-up in a fresh process, any
  workload): the same.  It tracked set-up times better than the oracle's
  ``quad`` kernel: 8 % spread over ten set-ups against 34 %.

The kernels depend only on numpy, scipy and the standard library, never on
the package under test.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
from scipy.integrate import quad

_K = np.linspace(0.0, 1.0, 384)
_X = np.linspace(0.0, 300.0, 256)


def _integrand(k):
    return (math.sqrt(k) * cmath.exp(1j * (37.1 * k - 0.01 * k * k))).real \
        * math.exp(-(k - 5.0) ** 2)


def _quad():
    for _ in range(8):
        quad(_integrand, 0.0, 10.0, limit=800, epsabs=1e-13, epsrel=1e-10)


def _exp():
    for _ in range(3):
        np.exp(1j * np.outer(_X, _K)).sum()


_BUF = []


def _stream():
    """Read and write a 16 MB buffer in place."""
    if not _BUF:
        _BUF.append(np.ones(2 << 20))
    buf = _BUF[0]
    for _ in range(12):
        np.multiply(buf, 1.0, out=buf)


def _loop():
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return acc


# each part with its scale: about its time on a 2-core x86-64 KVM guest
# (Intel Xeon, 2.1 GHz; numpy 2.4 with OpenBLAS, one thread) when no other
# tenant slows it.  Only ratios between runs on one host mean anything.
PARTS = {"quad": (_quad, 0.0079), "exp": (_exp, 0.0099), "loop": (_loop, 0.0066),
         "stream": (_stream, 0.0087)}
KERNELS = {"oracle": ("quad",), "figures": ("exp", "loop", "stream"),
           "scatter": ("exp", "loop", "stream"), "setup": ("exp", "loop", "stream")}


def reference_s(workload: str) -> float:
    """The workload kernel's time when nothing slows the host."""
    return sum(PARTS[part][1] for part in KERNELS[workload])


def kernel_s(workload: str) -> float:
    """Wall time of one run of the workload's kernel."""
    t0 = time.perf_counter()
    for part in KERNELS[workload]:
        PARTS[part][0]()
    return time.perf_counter() - t0

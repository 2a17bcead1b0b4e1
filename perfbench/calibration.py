"""Host-speed calibration of the benchmark's timings.

On a shared virtual machine the speed of a vCPU drifts: the same repeat of a
workload takes 1.2 s for a while, then 1.7 s for tens of seconds, then 1.2 s
again, and CPU time drifts with it (no steal time is reported, so
``time.process_time`` is no steadier than the wall clock). The median of a
run cannot remove a slowdown that lasts as long as the run.

So a fixed kernel of the same kinds of work the solver does, written only
with NumPy and SciPy and none of it from the solver, is timed between the
repeats: a SuperLU factorization and solve of a 2D five-point Laplacian, a
batched ``einsum`` of the element-matrix shape, a ``lexsort`` and COO-to-CSR
build of scattered triplets, an interpreted Python loop, and the generation
and column sort of a 32 MB array, which is larger than the caches and so
slows down with the host's memory traffic as the solver's factors do. A
repeat's times are multiplied by ``REF_S`` over the mean of the kernel times
just before and after it; they then read as seconds on a host on which the
kernel takes ``REF_S``. A change to the solver moves them; a change of the
host's speed moves the kernel by about as much and cancels. Over ten 30 s
runs of the hole validation, the run medians of ``wall_s`` spread 0.028
(quartile distance over median) scaled and 0.116 unscaled.

The kernel needs about 75 MB at its peak, most of it freed after each run;
``run.py`` reads the peak resident memory before the kernel first runs.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Typical kernel time on a 2-vCPU x86-64 guest (Python 3.11, NumPy 2.4,
# SciPy 1.17) while the host is quiet: the speed the scaled times refer to.
REF_S = 0.25

_GRID = 70          # 4900 unknowns, about the size of the plate matrices
_TRIPLETS = 200_000
_LOOP = 100_000
_SORTED = (2000, 2000)

_operands = None


def _build():
    n = _GRID
    eye = sp.identity(n)
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(eye, lap1) + sp.kron(lap1, eye) + 0.1 * sp.identity(n * n)).tocsc()
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3000, 4, 4, 8))     # element, quad point, strain, dof
    d = rng.standard_normal((3000, 4, 4, 4))     # element, quad point, tangent
    rows = rng.integers(0, n * n, _TRIPLETS)
    cols = rng.integers(0, n * n, _TRIPLETS)
    vals = rng.standard_normal(_TRIPLETS)
    return a, np.ones(n * n), b, d, (rows, cols, vals)


def kernel():
    """Seconds the fixed kernel takes now."""
    global _operands
    if _operands is None:
        _operands = _build()
    a, rhs, b, d, (rows, cols, vals) = _operands
    t0 = time.perf_counter()
    spla.splu(a).solve(rhs)
    np.einsum("eqai,eqab,eqbj->eij", b, d, b)
    order = np.lexsort((cols, rows))
    sp.coo_matrix((vals[order], (rows[order], cols[order])), shape=a.shape).tocsr()
    x = 0
    for i in range(_LOOP):
        x += i * i
    np.sort(np.random.default_rng(1).standard_normal(_SORTED), axis=0)
    return time.perf_counter() - t0


def scale(before_s, after_s):
    """Factor that turns times measured between two kernel runs into
    seconds at the reference speed."""
    return REF_S / (0.5 * (before_s + after_s))

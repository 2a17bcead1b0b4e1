"""Minimal sparse-matrix layer for the coupled Jacobian.

Compressed-row matrices, two direct solvers and Dirichlet elimination;
factorization is delegated to SuperLU via scipy. ``from_triplets`` builds a
matrix from scatter-add triplets for callers that set up a linear system by
hand; the coupled Jacobian comes in CSR form from the assembly plan.

- ``solve`` factors one whole system. It row-equilibrates first, so that
  pivots compare across physics blocks with different units. Linear
  problems call it after ``apply_dirichlet``, which replaces constrained
  rows by identity and moves the known column products to the right-hand
  side (so residual norms stay meaningful and symmetric blocks stay
  symmetric).
- ``BlockSolver`` computes Newton updates. The coupled Jacobian drops the
  K_cu sensitivity, so it is block upper-triangular,
  J = [[K_uu, K_uc], [0, K_cc]], and an update over the free dofs is two
  back-to-back solves: K_cc dc = -r_c, then K_uu du = -r_u - K_uc dc.
  Dirichlet dofs are left out of both blocks (the update is zero there),
  and each block is in one unit system, so it is factored unscaled.
  A factor is kept for later updates only when the caller states a fact
  that fixes its block (the elastic K_uu; the one-way K_cc at one dt), and
  it is reused only while the block's entries equal the factored ones.
  Every other factor serves one update and is freed (Davis, *Direct Methods
  for Sparse Linear Systems*, SIAM 2006, ch. 7-8, on factor reuse).

Every fresh factor is checked for a zero pivot (below PIVOT_TOL * max|A|,
reported as SingularMatrixError). A solve returns x with ||A x - b|| <=
SOLVE_TOL ||b|| after at most REFINE_STEPS refinement steps, or else with a
normwise backward error ||b - A x|| / (max|A| ||x|| + ||b||) <=
BACKWARD_TOL; anything worse raises SingularMatrixError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

SOLVE_TOL = 1e-10          # relative residual guaranteed by every solve
PIVOT_TOL = 1e-14          # pivot / max|A| threshold for singularity reporting
REFINE_STEPS = 4           # iterative-refinement steps before the backward-error test
BACKWARD_TOL = 1e-9        # normwise backward error accepted past the refinement floor
# Both blocks are structurally symmetric and K_uu is symmetric, so the blocks
# are ordered by minimum degree on A + A^T and pivot on the diagonal unless it
# is 10x smaller than the largest entry in its column.
BLOCK_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                          options=dict(SymmetricMode=True))


class SingularMatrixError(RuntimeError):
    """Raised when factorization hits a (numerically) zero pivot."""


class SparseMatrix:
    """Square CSR matrix. Immutable after construction.

    Attributes
    ----------
    n : int
        Matrix dimension.
    row_offsets, col_indices, values : ndarray
        Standard CSR arrays; column indices are sorted and unique per row.
    """

    def __init__(self, csr):
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"SparseMatrix must be square, got shape {csr.shape}")
        if csr.shape[0] < 1:
            raise ValueError("SparseMatrix dimension must be >= 1")
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("SparseMatrix entries must be finite")
        self._csr = csr

    @property
    def n(self):
        return self._csr.shape[0]

    @property
    def shape(self):
        return self._csr.shape

    @property
    def row_offsets(self):
        return self._csr.indptr

    @property
    def col_indices(self):
        return self._csr.indices

    @property
    def values(self):
        return self._csr.data

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"matvec: vector length {v.shape} does not match n={self.n}")
        return self._csr @ v

    def toarray(self):
        return self._csr.toarray()

    def scipy_csr(self):
        return self._csr


def from_triplets(n, entries):
    """Assemble an n x n SparseMatrix from (row, col, value) triplets.

    Duplicate (row, col) pairs are summed (scatter-add), which is what
    element-by-element assembly requires. ``entries`` may be a list of
    triplets or a (rows, cols, values) tuple of arrays.
    """
    if isinstance(entries, tuple) and len(entries) == 3:
        rows, cols, vals = (np.asarray(a) for a in entries)
    else:
        entries = list(entries)
        if entries:
            rows, cols, vals = (np.asarray(a) for a in zip(*entries))
        else:
            rows = cols = np.zeros(0, dtype=int)
            vals = np.zeros(0)
    rows = rows.astype(np.int64, copy=False)
    cols = cols.astype(np.int64, copy=False)
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise IndexError(f"from_triplets: index outside [0, {n})")
    csr = sp.coo_matrix((vals.astype(float), (rows, cols)), shape=(n, n)).tocsr()
    return SparseMatrix(csr)


def _factor(A, what, **splu_options):
    """SuperLU factor of the CSR matrix ``A`` and max|A|; a (numerically)
    zero pivot raises SingularMatrixError."""
    a_max = float(np.abs(A.data).max()) if A.nnz else 0.0
    if a_max == 0.0:
        raise SingularMatrixError(f"{what}: matrix is identically zero")
    try:
        lu = splu(A.tocsc(), **splu_options)
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(f"{what}: factorization failed ({err})") from err
    pivot = np.abs(lu.U.diagonal()).min()
    if pivot < PIVOT_TOL * a_max:
        raise SingularMatrixError(
            f"{what}: pivot {pivot:.3e} below {PIVOT_TOL:.0e} * max|A| "
            f"= {PIVOT_TOL * a_max:.3e}")
    return lu, a_max


def _refined_solve(lu, A, a_max, b, what):
    """x with ||A x - b|| <= SOLVE_TOL ||b|| from the factor ``lu`` of ``A``,
    refined up to REFINE_STEPS times. Past that float64 floor the result is
    accepted only while the normwise backward error stays at roundoff level."""
    x = lu.solve(b)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x
    for _ in range(REFINE_STEPS):
        r = b - A @ x
        if np.linalg.norm(r) <= SOLVE_TOL * b_norm:
            return x
        x = x + lu.solve(r)
    eta = np.linalg.norm(b - A @ x) / (a_max * np.linalg.norm(x) + b_norm)
    if eta > BACKWARD_TOL:
        raise SingularMatrixError(
            f"{what}: backward error {eta:.3e} after refinement; "
            "matrix is effectively singular")
    return x


def solve(A, b):
    """Solve A x = b by sparse LU with partial pivoting.

    The matrix is row-equilibrated before factoring -- the solution is
    unchanged, but pivot magnitudes become comparable across physics blocks
    with wildly different units -- and the module's solve contract
    (SOLVE_TOL, else BACKWARD_TOL) holds for the equilibrated system
    D A x = D b. A numerically singular matrix (equilibrated pivot below
    1e-14 * max|A|) raises SingularMatrixError instead of returning garbage.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"solve: rhs length {b.shape} does not match n={A.n}")

    row_max = np.zeros(A.n)
    np.maximum.at(row_max, np.repeat(np.arange(A.n), np.diff(A.row_offsets)),
                  np.abs(A.values))
    if np.any(row_max == 0.0):
        raise SingularMatrixError(
            f"solve: zero row at index {int(np.flatnonzero(row_max == 0.0)[0])}")
    d = 1.0 / row_max
    scaled = sp.csr_matrix(
        (A.values * np.repeat(d, np.diff(A.row_offsets)), A.col_indices, A.row_offsets),
        shape=(A.n, A.n))
    lu, a_max = _factor(scaled, "solve (row-equilibrated)")
    return _refined_solve(lu, scaled, a_max, d * b, "solve (row-equilibrated)")


@dataclass
class _BlockPlan:
    """Where the free-dof blocks of one sparsity pattern sit in its CSR data."""
    row_offsets: np.ndarray
    col_indices: np.ndarray
    fixed: np.ndarray
    free_u: np.ndarray
    free_c: np.ndarray
    blocks: dict            # "uu" / "cc" -> (data slots, block indptr, block indices)

    @classmethod
    def build(cls, jac, fixed):
        n = jac.n
        rows = np.repeat(np.arange(n), np.diff(jac.row_offsets))
        cols = jac.col_indices
        is_c = np.arange(n) % 3 == 2
        cu = np.flatnonzero(is_c[rows] & ~is_c[cols])
        if cu.size:
            raise ValueError(
                f"BlockSolver: Jacobian is not block upper-triangular: concentration "
                f"row {rows[cu[0]]} has an entry in displacement column {cols[cu[0]]}")
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        blocks, free_sets = {}, {}
        for name, mask in (("uu", free & ~is_c), ("cc", free & is_c)):
            dofs = np.flatnonzero(mask)
            local = np.full(n, -1, dtype=np.int32)     # scipy's CSR index type
            local[dofs] = np.arange(dofs.size)
            # in-order selection with an increasing renumbering keeps the
            # block's column indices sorted within each row
            slots = np.flatnonzero(mask[rows] & mask[cols])
            counts = np.bincount(local[rows[slots]], minlength=dofs.size)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
            blocks[name] = (slots, indptr, local[cols[slots]])
            free_sets[name] = dofs
        return cls(jac.row_offsets.copy(), jac.col_indices.copy(), fixed.copy(),
                   free_sets["uu"], free_sets["cc"], blocks)

    def matches(self, jac, fixed):
        return (np.array_equal(self.fixed, fixed)
                and np.array_equal(self.row_offsets, jac.row_offsets)
                and np.array_equal(self.col_indices, jac.col_indices))


class BlockSolver:
    """Newton updates of the block upper-triangular coupled Jacobian.

    Dofs are node-major, (u_x, u_y, c) per node. One solver serves one run:
    it holds the block plan of the current sparsity pattern, checked once
    per pattern for a K_cu entry, and at most one kept factor per block.
    """

    def __init__(self):
        self._plan = None
        self._kept = {}     # "uu" / "cc" -> (block CSR, factor, max|block|)

    def newton_update(self, jac, res, fixed_dofs, keep_uu=False, keep_cc=False):
        """dw with J dw = -res on the free dofs and dw = 0 on ``fixed_dofs``.

        ``keep_uu`` / ``keep_cc`` state that the block is fixed: K_uu when
        the Jacobian's iterate has no plastic quadrature point (it is then
        the elastic block of the run's fixed Jacobian data), K_cc in one-way
        coupling (``M/dt + K_diff`` at this dt). A fresh factor of that block
        is then kept in place of the one held before. Raises ValueError if J has
        a K_cu entry and SingularMatrixError if a block is singular.
        """
        fixed = np.asarray(fixed_dofs, dtype=np.int64)
        if self._plan is None or not self._plan.matches(jac, fixed):
            self._plan = _BlockPlan.build(jac, fixed)
            self._kept.clear()
        plan = self._plan
        res = np.asarray(res, dtype=float)
        dw = np.zeros(jac.n)
        dw[plan.free_c] = self._block_solve("cc", jac.values, -res[plan.free_c], keep_cc)
        # with du = 0, (J dw)_u = K_uc dc
        coupling = jac.matvec(dw)[plan.free_u]
        dw[plan.free_u] = self._block_solve("uu", jac.values, -res[plan.free_u] - coupling,
                                            keep_uu)
        return dw

    def _block_solve(self, name, values, rhs, keep):
        if rhs.size == 0:
            return rhs
        slots, indptr, indices = self._plan.blocks[name]
        data = values[slots]
        kept = self._kept.get(name)
        if kept is not None and np.array_equal(kept[0].data, data):
            A, lu, a_max = kept
        else:
            A = sp.csr_matrix((data, indices, indptr), shape=(rhs.size, rhs.size))
            lu, a_max = _factor(A, f"K_{name}", **BLOCK_SPLU_OPTIONS)
            if keep:
                self._kept[name] = (A, lu, a_max)
        return _refined_solve(lu, A, a_max, rhs, f"K_{name}")


def apply_dirichlet(A, b, constraints):
    """Impose dof values on the system; returns new (A, b).

    Constrained rows become identity rows with the prescribed value on the
    right-hand side; constrained columns are eliminated by moving the known
    products to the right-hand side. Conflicting duplicate constraints on
    one dof raise ValueError; re-applying the same constraint set is a
    no-op on the already-constrained system.
    """
    b = np.asarray(b, dtype=float).copy()
    if b.shape != (A.n,):
        raise ValueError(f"apply_dirichlet: rhs length {b.shape} does not match n={A.n}")

    fixed = {}
    for dof, value in constraints:
        dof = int(dof)
        if dof < 0 or dof >= A.n:
            raise IndexError(f"apply_dirichlet: dof {dof} outside [0, {A.n})")
        if dof in fixed and fixed[dof] != value:
            raise ValueError(f"apply_dirichlet: conflicting constraints on dof {dof}: "
                             f"{fixed[dof]} vs {value}")
        fixed[dof] = float(value)
    if not fixed:
        return A, b

    dofs = np.fromiter(fixed.keys(), dtype=np.int64)
    vals = np.fromiter(fixed.values(), dtype=float)
    mask = np.zeros(A.n, dtype=bool)
    mask[dofs] = True

    # Move known column products to the RHS before dropping the columns.
    csr = A.scipy_csr()
    full_vals = np.zeros(A.n)
    full_vals[dofs] = vals
    b -= csr @ full_vals

    coo = csr.tocoo()
    keep = ~mask[coo.row] & ~mask[coo.col]
    rows = np.concatenate([coo.row[keep], dofs])
    cols = np.concatenate([coo.col[keep], dofs])
    data = np.concatenate([coo.data[keep], np.ones(dofs.size)])
    A_new = SparseMatrix(sp.coo_matrix((data, (rows, cols)), shape=(A.n, A.n)).tocsr())

    b[dofs] = vals
    return A_new, b

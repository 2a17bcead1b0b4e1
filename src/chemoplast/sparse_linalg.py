"""Sparse linear algebra of the coupled Jacobian, on scipy CSR matrices.

The Newton path is ``BlockSolver``. ``from_triplets`` (scatter-add
triplets), ``apply_dirichlet`` (identity rows for constrained dofs, known
column products moved to the right-hand side) and ``solve`` (SuperLU of the
whole system after row equilibration, so that pivots compare across physics
blocks with different units) are the monolithic reference path that tests
check it against. ``solve`` is the only user of SuperLU.

The Jacobian drops the K_cu sensitivity, so it is block upper-triangular,
J = [[K_uu, K_uc], [0, K_cc]], and ``BlockSolver`` takes it as its row
blocks, the mechanics rows [K_uu K_uc] and the concentration rows K_cc,
with K_cc's drift-free base K_diff + M / dt. An update over the free dofs
is two back-to-back solves: K_cc dc = -r_c, then K_uu du = -r_u - K_uc dc.
The solver is planned once per run, from the patterns of the two row blocks
and the constrained dofs. Dirichlet dofs are left out of every block (the
update is zero there), and each block is in one unit system, so it is
factored unscaled. The solver copies a row block's entries into its
free-dof blocks when it reads it; the same row block passed again (the time
stepper's elastic mechanics rows for the run, its one-way K_cc at one dt)
is not read or checked again. Each of K_uu and K_cc keeps its last factor.

Every matrix the Newton path factors is symmetric by construction: K_uu,
elastic or plastic, since the consistent tangent of associative J2 flow is
symmetric, and K_cc's drift-free base. The two-way drift makes K_cc
nonsymmetric, so K_cc's fresh factor is always that of its base, which is
K_cc itself where there is no drift. A fresh factor is A = R^T R by banded
Cholesky (LAPACK's dpbtrf, solved by dpbtrs; George & Liu, *Computer
Solution of Large Sparse Positive Definite Systems*, Prentice-Hall 1981, ch.
4), from A's upper band only, in one node order planned per run, each node
expanded to its free dofs of the block. The order is the narrower of two on
the node pattern (the K_cc row block), by half-bandwidth max |pos(i) -
pos(j)| over its entries: reverse Cuthill-McKee's from scipy's one start
node, which is not bandwidth-minimal (Gibbs, Poole & Stockmeyer, SIAM J.
Numer. Anal. 13 (1976) 236-250), and the pattern's own numbering, RCM's on
a tie. The plates number their nodes ring by ring, a level structure of
half-bandwidth n_theta + 1 (see ``mesh.generate_plate_with_hole``), and
take their own order; the annulus and the solid disk take RCM's. The plan
holds each block's upper-band slots, so a factor is a scatter and one LAPACK
call. Cholesky needs no pivoting and stores only the band.

A fresh factor of K_uu or of a K_cc without drift is solved once and checked
against the entries it solves, as ``solve``'s SuperLU factor is: x is
accepted at a normwise backward error ||b - A x|| / (max|A| ||x|| + ||b||)
of at most ROUNDOFF_TOL (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., SIAM 2002, ch. 7), and a solve that misses it reports
its matrix singular. Cholesky is backward stable (ch. 10), and LU with
partial pivoting is in practice (ch. 9): on the solver's blocks and
reference systems the first solve lands at a small fraction of that target,
so it is not refined. A nonsymmetric block passed as K_uu or as a K_cc
without drift is factored from its upper band, so its first solve misses
that target unless the asymmetry is of roundoff size.

A solve with a kept factor is inexact. A Newton update only needs its
linear residual below a forcing term times the right-hand side to keep the
outer iteration converging (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19 (1982) 400-408); for K_cc, whose right-hand side is -r_c, the
bound ||K_cc dc + r_c|| <= FORCING ||r_c|| is that condition itself. The
plastic K_uu and the two-way K_cc change at every update, so a kept
factor's solve cannot reach roundoff against them. Preconditioned conjugate
gradients (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
SIAM 2003, ch. 9), with the kept factor as the preconditioner, start from
that factor's first solve and stop once the true residual ||b - A x|| is at
most FORCING ||b||. CG gives up on non-positive curvature p.Ap <= 0, which
an indefinite block meets, or after PCG_MAX_ITER iterations. An unchanged
block is still solved exactly: unless its condition number exceeds about
1e11, the first solve's roundoff-level residual lies far below FORCING
||b||, and CG accepts it before its first iteration.

CG can also meet FORCING on a block that is near-singular relative to its
kept factor, with an x of enormous norm that a fresh factor's pivot check
would reject. So before CG returns an x reached after one or more
iterations, it checks the smallest Ritz value (by LAPACK's dsterf) of the
Lanczos tridiagonal T that its coefficients give, T[k, k] = 1/alpha_k +
beta_{k-1}/alpha_{k-1} and T[k, k+1] = sqrt(beta_k)/alpha_k (Saad, ch.
6.7.3). The Ritz values lie between the extreme eigenvalues of the
factor-preconditioned block, so a small one proves the block near-singular
relative to its kept factor. Below RITZ_TOL, CG gives up and the block is
factored afresh, where the pivot check names it. Every kept-factor CG solve
of the acceptance runs and the benchmark workloads reads at least 0.066
(criterion 5's two-way plate), and a K_uu with two rows equal up to 0.3
PIVOT_TOL, served from a well-conditioned block's factor, at most 2.5e-15:
RITZ_TOL sits near their geometric middle, more than six orders from each.

A K_cc with drift is solved from the factor of its base. CG's theory does
not cover its nonsymmetric drift, but no x passes on CG's recursive
residual alone: the true residual is recomputed before x is accepted, and
CG, the cheaper per iteration, serves the weak drift of the steel presets.
Where CG fails, restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput.
7 (1986) 856-869), which needs no symmetry, is left-preconditioned with the
same factor and started from its first solve, and x is accepted on the same
true-residual bound. The drift grows as 1 / T against K_diff + M / dt: at
temperatures of 1-50 K on the coarse test plates (6-300 times the steel
drift) CG fails on some updates, and GMRES serves them at full dt. A kept
factor of the current base is not factored afresh when CG fails, since the
fresh factor would be the same one: GMRES is run from it at once.

When the kept factor cannot serve its block, it is dropped and the block is
factored afresh (Davis, *Direct Methods for Sparse Linear Systems*, SIAM
2006, ch. 7-8, on factor reuse). So a block that does not change, or
changes little between iterates, is factored a few times per run, and a
changing block is factored again only when CG fails.

Every fresh factor is checked for a zero pivot (below PIVOT_TOL * max|A|,
reported as SingularMatrixError): band Cholesky's smallest R_ii^2, which
bounds the smallest eigenvalue from above, or SuperLU's smallest |U_ii|. A
block that dpbtrf finds not positive definite is reported singular too. The
solve contract has three rules:
- a fresh factor's first solve, of K_uu, of a K_cc without drift or of
  ``solve``'s row-equilibrated matrix, reaches a backward error of
  ROUNDOFF_TOL, or SingularMatrixError names its matrix;
- a K_cc with drift, at a factor of its current base, fresh or kept, gets x
  with ||b - A x|| <= FORCING ||b|| by CG or else GMRES from that factor,
  or SingularMatrixError names K_cc;
- any other kept factor returns x with ||b - A x|| <= FORCING ||b|| by CG,
  with no Ritz value below RITZ_TOL, or the block is factored afresh.
A block that turns singular is reported when it is factored: CG against a
kept factor cannot converge on it unless the right-hand side lies within
FORCING ||b|| of its range; x then solves the block to the forcing bound.
The time stepper halves dt on every SingularMatrixError.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, gmres, splu

PIVOT_TOL = 1e-14          # pivot / max|A| threshold for singularity reporting
ROUNDOFF_TOL = 20.0 * np.finfo(float).eps   # normwise backward error of a fresh solve
# relative residual ||b - A x|| / ||b|| of every kept-factor solve, of K_uu
# and K_cc alike: the plate problems' c block exits Newton at about one
# digit, and 1e-2 moves their converged c by 6e-6
FORCING = 1e-3
PCG_MAX_ITER = 12          # CG iterations before a changed block is factored afresh
# smallest Ritz value of a CG solve below which its block counts as near-singular
# relative to the kept factor (see the module docstring)
RITZ_TOL = 1e-8
# GMRES on a drifted K_cc: iterations between restarts, and restarts before
# it is reported singular. The coarse test plate at 1 K takes 49 iterations
# at a restart of 40 and 179 at 20; one cycle of 200 misses the bound where
# the left-preconditioned residual passes and the true one does not
GMRES_RESTART = 40
GMRES_CYCLES = 10


class SingularMatrixError(RuntimeError):
    """Raised when factorization hits a (numerically) zero pivot."""


def from_triplets(n, entries):
    """Assemble an n x n CSR matrix from (row, col, value) triplets.

    Duplicate (row, col) pairs are summed (scatter-add), which is what
    element-by-element assembly requires, and the column indices of every
    row are sorted. ``entries`` may be an iterable of triplets or a (rows,
    cols, values) tuple of NumPy arrays.
    """
    if (isinstance(entries, tuple) and len(entries) == 3
            and all(isinstance(a, np.ndarray) for a in entries)):
        rows, cols, vals = entries
    else:
        rows, cols, vals = np.array(list(entries) or np.zeros((0, 3)), dtype=float).T
    rows = rows.astype(np.int64, copy=False)
    cols = cols.astype(np.int64, copy=False)
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise IndexError(f"from_triplets: index outside [0, {n})")
    return sp.coo_matrix((vals.astype(float), (rows, cols)), shape=(n, n)).tocsr()


def _check_pivot(pivot, A, what):
    """max|A| of the sparse matrix ``A``, checked against the smallest pivot
    ``pivot`` of A's fresh factor: a pivot below PIVOT_TOL * max|A| raises
    SingularMatrixError naming ``what``."""
    a_max = float(np.abs(A.data).max())
    if pivot < PIVOT_TOL * a_max:
        raise SingularMatrixError(
            f"{what}: pivot {pivot:.3e} below {PIVOT_TOL:.0e} * max|A| "
            f"= {PIVOT_TOL * a_max:.3e}")
    return a_max


def _first_solve(factor, A, a_max, b, what):
    """The solve x of A x = b by a fresh factor of the sparse matrix ``A``
    (largest entry ``a_max``), with ||b - A x|| <= ROUNDOFF_TOL (max|A| ||x||
    + ||b||); a solve that misses that target raises SingularMatrixError
    naming ``what``."""
    x = factor.solve(b)
    if np.linalg.norm(b - A @ x) > ROUNDOFF_TOL * (a_max * np.linalg.norm(x) + np.linalg.norm(b)):
        raise SingularMatrixError(f"{what}: solve misses a roundoff backward error; "
                                  "matrix is effectively singular")
    return x


def _factor(A, what, band):
    """The band Cholesky factor of the block ``A`` in ``band``'s plan, and
    max|A|. Every fresh block factor passes through here. An identically
    zero block, one that dpbtrf finds not positive definite and a
    (numerically) zero pivot raise SingularMatrixError naming ``what``."""
    if not np.any(A.data):
        raise SingularMatrixError(f"{what}: matrix is identically zero")
    chol = band.factor(A, what)
    return chol, _check_pivot(chol.pivot, A, what)


def solve(A, b):
    """Solve A x = b by sparse LU with partial pivoting; ``A`` is a square
    CSR matrix with sorted, unique column indices per row.

    The matrix is row-equilibrated before factoring -- the solution is
    unchanged, but pivot magnitudes become comparable across physics blocks
    with wildly different units -- and x reaches a backward error of
    ROUNDOFF_TOL in the equilibrated system D A x = D b at its first solve.
    A numerically singular matrix (equilibrated pivot below PIVOT_TOL *
    max|A|, or a first solve that misses ROUNDOFF_TOL) raises
    SingularMatrixError instead of returning garbage.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"solve: rhs length {b.shape} does not match n={n}")

    row_max = abs(A).max(axis=1).toarray().ravel()
    if np.any(row_max == 0.0):
        raise SingularMatrixError(
            f"solve: zero row at index {int(np.flatnonzero(row_max == 0.0)[0])}")
    d = 1.0 / row_max
    scaled = sp.csr_matrix(sp.diags(d) @ A)
    what = "solve (row-equilibrated)"
    try:
        lu = splu(scaled.tocsc())
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(f"{what}: factorization failed ({err})") from err
    a_max = _check_pivot(np.abs(lu.U.diagonal()).min(), scaled, what)
    return _first_solve(lu, scaled, a_max, d * b, what)


def _plan_blocks(A, rows, *cols):
    """Data slots and CSR matrix of each block of the CSR pattern of ``A`` on
    the rows whose mask is ``rows`` and the columns whose mask is one of
    ``cols``, in that order; a matrix's data is written when a row block is
    read."""
    indices = A.indices
    row_of = np.repeat(np.arange(rows.size), np.diff(A.indptr))
    in_rows = rows[row_of]
    plans = []
    for mask in cols:
        local = np.full(mask.size, -1, dtype=np.int32)     # scipy's CSR index type
        local[mask] = np.arange(np.count_nonzero(mask))
        # in-order selection with an increasing renumbering keeps the block's
        # column indices sorted within each row
        slots = np.flatnonzero(in_rows & mask[indices])
        counts = np.bincount(row_of[slots], minlength=rows.size)[rows]
        block_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        plans.append((slots, sp.csr_matrix(
            (np.zeros(slots.size), local[indices[slots]], block_indptr),
            shape=(counts.size, np.count_nonzero(mask)))))
    return plans


class _BandCholesky:
    """A = R^T R of a symmetric positive definite block in the order
    ``order``, R in LAPACK upper band storage; ``pivot`` is min(diag R)^2,
    the smallest pivot of the elimination."""

    def __init__(self, r, order):
        self._r, self._order = r, order
        self.pivot = float(r[-1].min()) ** 2      # diag R is the band's last row

    def solve(self, b):
        x = np.empty_like(b)
        x[self._order] = lapack.dpbtrs(self._r, b[self._order], overwrite_b=1)[0]
        return x


@dataclass(frozen=True)
class _BandPlan:
    """The upper band of a free-dof block in the factor order ``order``
    (block-local indices), planned once per run from its pattern."""
    order: np.ndarray
    kd: int                 # half-bandwidth
    upper: np.ndarray       # the block's data slots on or above the diagonal
    at: np.ndarray          # their places in LAPACK upper band storage

    def factor(self, A, what):
        """The band Cholesky factor of the block ``A`` (planned pattern,
        symmetric: only its upper band is read); SingularMatrixError naming
        ``what`` if dpbtrf finds it not positive definite."""
        # the C-ordered transpose of LAPACK's (kd + 1, n) band, which dpbtrf
        # factors in place
        band = np.zeros((self.order.size, self.kd + 1))
        band.ravel()[self.at] = A.data[self.upper]
        r, info = lapack.dpbtrf(band.T, overwrite_ab=1)
        if info:
            raise SingularMatrixError(f"{what}: not positive definite (dpbtrf info {info})")
        return _BandCholesky(r, self.order)


def _plan_band(block, order):
    """The ``_BandPlan`` of the CSR ``block``, whose pattern is symmetric, in
    ``order`` (block-local indices in factor order); its ``kd`` is the
    half-bandwidth max |pos(i) - pos(j)| over the entries (i, j), pos(i)
    being i's place in ``order``."""
    place = np.empty(order.size, dtype=np.int64)
    place[order] = np.arange(order.size)
    # the places of the row and of the column of every entry, in CSR order
    pi, pj = np.repeat(place, np.diff(block.indptr)), place[block.indices]
    upper = np.flatnonzero(pi <= pj)
    kd = int((pj - pi).max(initial=0))
    # A[i, j] (i <= j in factor order) is ab[kd + i - j, j]
    return _BandPlan(order, kd, upper, (pj * (kd + 1) + kd + pi - pj)[upper])


class BlockSolver:
    """Newton updates of the block upper-triangular coupled Jacobian.

    Dofs are node-major, (u_x, u_y, c) per node. The Jacobian comes as its
    two row blocks and K_cc's base: the mechanics rows [K_uu K_uc] (2N x 3N,
    the u_x and u_y rows of every node over the node-major columns), the
    concentration rows K_cc (N x N over the nodes' c dofs) and K_cc's
    drift-free base K_diff + M / dt, the same object as K_cc where there is
    no drift, each a CSR matrix; the solver reads the base as a third row
    block. One solver serves one run, planned from the patterns of the two
    row blocks (``mech``, ``cc``; their entries are not read) and the
    constrained dofs: each free-dof block, K_uu, K_uc, K_cc and K_cc's base,
    gets its slots in its row block's data and a CSR matrix that holds the
    entries of the last row block read. A row block passed again, as the
    same object, is not read again: its entries are already in place and
    checked. So a row block must not be changed once it has been passed;
    pass a new matrix instead (the assembly's base blocks have read-only
    data).
    ``free_dofs`` holds the free u dofs and the free c dofs, each sorted,
    and ``free_rows`` the same dofs as rows of their row block.
    The plan also holds one order of the nodes, reverse Cuthill-McKee's or
    the node pattern's own, whichever has the smaller half-bandwidth (RCM's
    on a tie), and, in it, the band of K_uu and of K_cc (see the module
    docstring): every fresh factor is band Cholesky.
    ``factors`` counts the fresh factorizations, ``reused`` the block
    solves a kept factor served and ``pcg_iters`` the Krylov iterations of
    the block solves, of both blocks: CG's, and GMRES's on a K_cc with
    drift.
    """

    # the free-dof blocks read from each row block
    _READS = {"mech": ("uu", "uc"), "cc": ("cc",), "base": ("base",)}

    def __init__(self, mech, cc, fixed_dofs):
        n_nodes = cc.shape[0]
        free = np.ones(3 * n_nodes, dtype=bool)
        free[np.asarray(fixed_dofs, dtype=np.int64)] = False
        is_c = np.arange(3 * n_nodes) % 3 == 2
        u_rows = free.reshape(n_nodes, 3)[:, :2].ravel()
        c_nodes = free[is_c]
        uu, uc = _plan_blocks(mech, u_rows, free & ~is_c, free & is_c)
        (cc_slots, cc_block), = _plan_blocks(cc, c_nodes, c_nodes)
        # K_cc's base is read from the same slots into its own data
        base = sp.csr_matrix((np.zeros_like(cc_block.data), cc_block.indices, cc_block.indptr),
                             shape=cc_block.shape)
        self._blocks = {        # free-dof block -> (data slots, block CSR matrix)
            "uu": uu, "uc": uc, "cc": (cc_slots, cc_block), "base": (cc_slots, base)}
        self._shapes = {"mech": (2 * n_nodes, 3 * n_nodes, mech.nnz),
                        "cc": (n_nodes, n_nodes, cc.nnz), "base": (n_nodes, n_nodes, cc.nnz)}
        self.free_dofs = (np.flatnonzero(free & ~is_c), np.flatnonzero(free & is_c))
        self.free_rows = (np.flatnonzero(u_rows), np.flatnonzero(c_nodes))
        # one order of the nodes, each node expanded to its free dofs of the
        # block, is the band order of both blocks: reverse Cuthill-McKee's or
        # the pattern's own, whichever is narrower on the node pattern, RCM's
        # on a tie
        nodes = min((reverse_cuthill_mckee(cc, symmetric_mode=True).astype(np.int64),
                     np.arange(n_nodes)), key=lambda order: _plan_band(cc, order).kd)
        self._bands = {}        # "uu" / "cc" -> _BandPlan
        for name, in_block, comps in (("uu", free & ~is_c, (0, 1)), ("cc", free & is_c, (2,))):
            dofs = (3 * nodes[:, None] + np.array(comps)).ravel()
            local = np.cumsum(in_block) - 1      # block-local index of each block dof
            self._bands[name] = _plan_band(self._blocks[name][1], local[dofs[in_block[dofs]]])
        # the row blocks whose entries are in place, held weakly so that a
        # caller can free them before building the next
        self._in_place = {"mech": None, "cc": None, "base": None}
        # "uu" / "cc" -> the block's last factor, and the base in place then
        self._kept = {}
        self.factors = 0
        self.reused = 0
        self.pcg_iters = 0

    def newton_update(self, jac, res):
        """dw with J dw = -res on the free dofs and dw = 0 on the fixed ones.

        ``jac`` is the triple (mechanics rows, K_cc, K_cc's drift-free base)
        of CSR matrices with the planned patterns, none changed after it is
        passed (see the class docstring). Each block is solved by CG
        preconditioned with its kept factor to a FORCING relative residual,
        and factored afresh when that fails; a K_cc with drift is served by
        GMRES from its base's factor where CG fails (see the module
        docstring).
        Raises ValueError if a row block does not have the planned shape or
        has an entry that is not finite, and SingularMatrixError if a fresh
        factor cannot serve its block.
        """
        for rows, A in zip(("mech", "cc", "base"), jac):
            held = self._in_place[rows]
            if held is None or held() is not A:
                self._read(rows, A)
        res = np.asarray(res, dtype=float)
        free_u, free_c = self.free_dofs
        dw = np.zeros(3 * self._shapes["cc"][0])
        dc = self._block_solve("cc", -res[free_c], drift=jac[2] is not jac[1])
        dw[free_c] = dc
        dw[free_u] = self._block_solve("uu", -res[free_u] - self._blocks["uc"][1] @ dc)
        return dw

    def _check(self, rows, A):
        """ValueError unless the row block ``A`` ("mech" or "cc") has the
        planned shape and finite entries."""
        if A.shape + (A.nnz,) != self._shapes[rows]:
            raise ValueError(f"newton_update: {rows} rows of shape {A.shape} with {A.nnz} "
                             f"entries do not have the planned pattern")
        if not np.all(np.isfinite(A.data)):
            raise ValueError("newton_update: Jacobian entries must be finite")

    def _read(self, rows, A):
        """Check the row block ``A`` ("mech" or "cc") and copy its entries
        into the free-dof blocks it holds."""
        self._check(rows, A)
        for name in self._READS[rows]:
            slots, block = self._blocks[name]
            # the slots are in range; "clip" lets take write into the data unbuffered
            np.take(A.data, slots, out=block.data, mode="clip")
        self._in_place[rows] = weakref.ref(A)

    def _block_solve(self, name, rhs, drift=False):
        """x with K x = rhs for the block ``name`` ("uu" or "cc"): by CG with
        its kept factor to FORCING ||rhs||, else from a fresh factor, which is
        then kept. That is K's own, solved once to ROUNDOFF_TOL, or, for a K_cc
        with ``drift``, that of the base in place, from which CG or else GMRES
        reaches FORCING ||rhs||. A kept factor of that same base is not
        factored afresh: GMRES serves K_cc from it where CG fails."""
        if rhs.size == 0:
            return rhs
        A = self._blocks[name][1]
        if name in self._kept:
            factor, source = self._kept[name]
            x = self._pcg(factor, A, rhs)
            if x is None and drift and source() is self._in_place["base"]():
                x = self._drift_gmres(factor, A, rhs)
            if x is not None:
                self.reused += 1
                return x
        # free the kept factor before computing the new one (peak memory)
        self._kept.pop(name, None)
        factor, a_max = _factor(self._blocks["base" if drift else name][1], f"K_{name}",
                                self._bands[name])
        if not drift:
            x = _first_solve(factor, A, a_max, rhs, f"K_{name}")
        elif (x := self._pcg(factor, A, rhs)) is None:
            x = self._drift_gmres(factor, A, rhs)
        self._kept[name] = factor, self._in_place["base"]
        self.factors += 1
        return x

    def _drift_gmres(self, factor, A, b):
        """x with ||b - A x|| <= FORCING ||b|| for a K_cc ``A`` with drift by
        restarted GMRES, left-preconditioned with the factor ``factor`` of its
        base and started from that factor's first solve; SingularMatrixError
        naming K_cc after GMRES_CYCLES restarts."""
        iters = []
        x = gmres(A, b, x0=factor.solve(b), rtol=FORCING, restart=GMRES_RESTART,
                  maxiter=GMRES_CYCLES, M=LinearOperator(A.shape, matvec=factor.solve),
                  callback=iters.append, callback_type="pr_norm")[0]
        if np.linalg.norm(b - A @ x) > FORCING * np.linalg.norm(b):
            raise SingularMatrixError(f"K_cc: GMRES from the factor of its drift-free base "
                                      f"misses {FORCING:.0e} ||b||")
        self.pcg_iters += len(iters)
        return x

    def _pcg(self, factor, A, b):
        """x with ||b - A x|| <= FORCING ||b|| by CG against ``A``,
        preconditioned with the factor ``factor`` and started from its
        first solve; None on non-positive curvature, after PCG_MAX_ITER
        iterations, or when the smallest Ritz value of its iterations is
        below RITZ_TOL."""
        x = factor.solve(b)
        r = b - A @ x
        target = FORCING * np.linalg.norm(b)
        rz = p = None
        alphas, betas = [], []
        for k in range(PCG_MAX_ITER + 1):
            # r is x's true residual at k = 0; after that it is the recursive
            # one, which differs from b - A x by the rounding accumulated over
            # the iterations, so a pass is confirmed against the true one
            if np.linalg.norm(r) <= target:
                if k:
                    r = b - A @ x
                if np.linalg.norm(r) <= target:
                    if k:
                        # the Ritz values of the Lanczos tridiagonal of the k
                        # iterations, ascending; where dsterf's QL iteration
                        # fails, the block is factored afresh too. scipy's
                        # wrapper takes one off-diagonal entry at k = 1
                        inv, beta = 1.0 / np.array(alphas), np.array(betas)
                        diag = inv.copy()
                        diag[1:] += beta * inv[:-1]
                        off = np.sqrt(beta) * inv[:-1] if k > 1 else np.zeros(1)
                        ritz, info = lapack.dsterf(diag, off)
                        if info or ritz[0] < RITZ_TOL:
                            return None
                    self.pcg_iters += k
                    return x
            if k == PCG_MAX_ITER:
                return None
            z = factor.solve(r)
            rz, rz_old = r @ z, rz
            if k:
                betas.append(rz / rz_old)
            p = z if k == 0 else z + betas[-1] * p
            q = A @ p
            curvature = p @ q
            # r.z <= 0: the preconditioner is not positive definite
            if curvature <= 0.0 or rz <= 0.0:
                return None
            alpha = rz / curvature
            alphas.append(alpha)
            x = x + alpha * p
            r = r - alpha * q


def apply_dirichlet(A, b, constraints):
    """Impose dof values on the CSR system (A, b); returns new (A, b).

    Constrained rows become identity rows with the prescribed value on the
    right-hand side; constrained columns are eliminated by moving the known
    products to the right-hand side. Conflicting duplicate constraints on
    one dof raise ValueError; re-applying the same constraint set is a
    no-op on the already-constrained system.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float).copy()
    if b.shape != (n,):
        raise ValueError(f"apply_dirichlet: rhs length {b.shape} does not match n={n}")

    fixed = {}
    for dof, value in constraints:
        dof = int(dof)
        if dof < 0 or dof >= n:
            raise IndexError(f"apply_dirichlet: dof {dof} outside [0, {n})")
        if dof in fixed and fixed[dof] != value:
            raise ValueError(f"apply_dirichlet: conflicting constraints on dof {dof}: "
                             f"{fixed[dof]} vs {value}")
        fixed[dof] = float(value)
    if not fixed:
        return A, b

    dofs = np.fromiter(fixed.keys(), dtype=np.int64)
    vals = np.fromiter(fixed.values(), dtype=float)
    mask = np.zeros(n, dtype=bool)
    mask[dofs] = True

    # Move known column products to the RHS before dropping the columns.
    full_vals = np.zeros(n)
    full_vals[dofs] = vals
    b -= A @ full_vals

    coo = A.tocoo()
    keep = ~mask[coo.row] & ~mask[coo.col]
    rows = np.concatenate([coo.row[keep], dofs])
    cols = np.concatenate([coo.col[keep], dofs])
    data = np.concatenate([coo.data[keep], np.ones(dofs.size)])
    A_new = sp.coo_matrix((data, (rows, cols)), shape=A.shape).tocsr()

    b[dofs] = vals
    return A_new, b

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from chemoplast import assembly as asm, mesh as msh, sparse_linalg as sla


class TestFromTriplets:
    def test_duplicates_are_summed(self):
        A = sla.from_triplets(2, [(0, 0, 1.0), (0, 0, 2.0)])
        assert A.toarray()[0, 0] == 3.0

    def test_single_entry_matvec(self):
        A = sla.from_triplets(2, [(1, 1, 5.0)])
        assert np.allclose(A @ np.array([0.0, 1.0]), [0.0, 5.0])

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            sla.from_triplets(3, [(0, 3, 1.0)])
        with pytest.raises(IndexError):
            sla.from_triplets(3, [(-1, 0, 1.0)])

    def test_permutation_invariance(self, rng):
        n = 12
        rows = rng.integers(0, n, size=60)
        cols = rng.integers(0, n, size=60)
        vals = rng.normal(size=60)
        A = sla.from_triplets(n, list(zip(rows, cols, vals)))
        perm = rng.permutation(60)
        B = sla.from_triplets(n, list(zip(rows[perm], cols[perm], vals[perm])))
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.allclose(A.data, B.data, rtol=0, atol=1e-15)

    def test_tuple_of_three_triplets_is_triplets(self):
        # only a tuple of three arrays is the (rows, cols, values) form
        A = sla.from_triplets(3, ((0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)))
        assert np.array_equal(A.toarray(), np.diag([1.0, 2.0, 3.0]))

    def test_csr_invariants(self, rng):
        n = 9
        A = sla.from_triplets(n, [(int(i), int(j), float(v)) for i, j, v in
                                  zip(rng.integers(0, n, 40), rng.integers(0, n, 40),
                                      rng.normal(size=40))])
        for r in range(n):
            cols = A.indices[A.indptr[r]:A.indptr[r + 1]]
            assert np.all(np.diff(cols) > 0)


class TestSolve:
    def test_identity(self, rng):
        A = sla.from_triplets(5, [(i, i, 1.0) for i in range(5)])
        b = rng.normal(size=5)
        assert np.allclose(sla.solve(A, b), b, atol=1e-14)

    def test_hand_eliminated_2x2(self):
        A = sla.from_triplets(2, [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        x = sla.solve(A, np.array([3.0, 5.0]))
        assert x == pytest.approx([0.8, 1.4], abs=1e-12)

    def test_zero_row_reports_singular(self):
        A = sla.from_triplets(3, [(0, 0, 1.0), (2, 2, 1.0)])
        with pytest.raises(sla.SingularMatrixError):
            sla.solve(A, np.ones(3))

    def test_numerically_singular_reports(self):
        # two identical rows
        A = sla.from_triplets(2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 2.0)])
        with pytest.raises(sla.SingularMatrixError):
            sla.solve(A, np.array([1.0, 1.0]))

    def test_residual_contract_random_diag_dominant(self, rng):
        for n in (10, 100, 400):
            density = min(1.0, 8.0 / n)
            mask = rng.random((n, n)) < density
            vals = rng.normal(size=(n, n)) * mask
            vals[np.arange(n), np.arange(n)] = np.abs(vals).sum(axis=1) + 1.0
            entries = [(i, j, vals[i, j]) for i, j in zip(*np.nonzero(vals))]
            A = sla.from_triplets(n, entries)
            b = rng.normal(size=n)
            x = sla.solve(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_roundoff_backward_error_out_of_reach_reports(self, rng, monkeypatch):
        # the factor of the equilibrated matrix follows the fresh-factor rule:
        # a first solve that misses the target reports the matrix
        monkeypatch.setattr(sla, "ROUNDOFF_TOL", 1e-20)
        A = _block_triangular(rng, n_nodes=8)
        with pytest.raises(sla.SingularMatrixError,
                           match="solve .row-equilibrated.: solve misses a roundoff"):
            sla.solve(A, rng.normal(size=A.shape[0]))

    def test_shape_mismatch(self):
        A = sla.from_triplets(2, [(0, 0, 1.0), (1, 1, 1.0)])
        with pytest.raises(ValueError):
            sla.solve(A, np.ones(3))


class TestApplyDirichlet:
    def test_constrain_everything(self, rng):
        n = 6
        dense = rng.normal(size=(n, n)) + n * np.eye(n)
        A = sla.from_triplets(n, [(i, j, dense[i, j]) for i in range(n) for j in range(n)])
        vals = rng.normal(size=n)
        A2, b2 = sla.apply_dirichlet(A, np.zeros(n), list(enumerate(vals)))
        assert np.allclose(sla.solve(A2, b2), vals, atol=1e-12)

    def test_spring_system(self):
        # two-node spring, one end fixed, unit load on the free end
        k = 250.0
        A = sla.from_triplets(2, [(0, 0, k), (0, 1, -k), (1, 0, -k), (1, 1, k)])
        A2, b2 = sla.apply_dirichlet(A, np.array([0.0, 1.0]), [(0, 0.0)])
        x = sla.solve(A2, b2)
        assert x[1] == pytest.approx(1.0 / k, rel=1e-12)
        assert x[0] == 0.0

    def test_conflicting_constraints(self):
        A = sla.from_triplets(2, [(0, 0, 1.0), (1, 1, 1.0)])
        with pytest.raises(ValueError):
            sla.apply_dirichlet(A, np.zeros(2), [(0, 1.0), (0, 2.0)])

    def test_idempotent(self, rng):
        n = 8
        dense = rng.normal(size=(n, n)) + n * np.eye(n)
        A = sla.from_triplets(n, [(i, j, dense[i, j]) for i in range(n) for j in range(n)])
        b = rng.normal(size=n)
        cons = [(1, 0.25), (4, -2.0)]
        A1, b1 = sla.apply_dirichlet(A, b, cons)
        A2, b2 = sla.apply_dirichlet(A1, b1, cons)
        assert np.allclose(A1.toarray(), A2.toarray(), atol=0)
        assert np.allclose(b1, b2, atol=0)

    def test_preserves_symmetry(self, rng):
        n = 7
        dense = rng.normal(size=(n, n))
        dense = dense + dense.T + n * np.eye(n)
        A = sla.from_triplets(n, [(i, j, dense[i, j]) for i in range(n) for j in range(n)])
        A2, _ = sla.apply_dirichlet(A, np.zeros(n), [(2, 1.0), (5, -1.0)])
        M = A2.toarray()
        assert np.allclose(M, M.T, atol=0)

    def test_solution_hits_prescribed_values(self, rng):
        n = 10
        dense = rng.normal(size=(n, n)) + n * np.eye(n)
        A = sla.from_triplets(n, [(i, j, dense[i, j]) for i in range(n) for j in range(n)])
        b = rng.normal(size=n)
        A2, b2 = sla.apply_dirichlet(A, b, [(0, 3.5), (7, -1.25)])
        x = sla.solve(A2, b2)
        assert x[0] == 3.5 and x[7] == -1.25


def _block_triangular(rng, n_nodes=3):
    """Diagonally dominant node-major (u_x, u_y, c) matrix with K_uu, K_uc and
    K_cc populated and K_cu empty; K_uu and K_cc are symmetric, so positive
    definite."""
    n = 3 * n_nodes
    is_c = np.arange(n) % 3 == 2
    dense = rng.normal(size=(n, n))
    dense[np.ix_(is_c, ~is_c)] = 0.0
    for rows in (~is_c, is_c):
        block = np.ix_(rows, rows)
        dense[block] = 0.5 * (dense[block] + dense[block].T)
    dense[np.arange(n), np.arange(n)] = np.abs(dense).sum(axis=1) + 1.0
    return sla.from_triplets(n, [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))])


def _perturbed(A, rel, rng):
    """A with every entry scaled by an independent factor in [1 - rel, 1 + rel]."""
    B = A.copy()
    B.data *= 1.0 + rel * rng.uniform(-1.0, 1.0, size=B.nnz)
    return B


def _spd_block_triangular(rng, n_nodes=8):
    """Node-major (u_x, u_y, c) matrix as ``_block_triangular`` makes it, with
    a more strongly diagonally dominant K_uu and K_cc."""
    n = 3 * n_nodes
    is_c = np.arange(n) % 3 == 2
    dense = rng.normal(size=(n, n))
    dense[np.ix_(is_c, ~is_c)] = 0.0
    for rows in (~is_c, is_c):
        block = np.ix_(rows, rows)
        dense[block] = 0.5 * (dense[block] + dense[block].T)
    dense[np.arange(n), np.arange(n)] = 1.5 * np.abs(dense).sum(axis=1) + 1.0
    return sla.from_triplets(n, [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))])


def _spd_perturbed(A, rel, rng, blocks="uc"):
    """A with every entry of the named blocks ("u": K_uu and K_uc, "c":
    K_cc) scaled by a factor in [1 - rel, 1 + rel]; symmetric in K_uu."""
    dense = A.toarray()
    n = dense.shape[0]
    scale = 1.0 + rel * rng.uniform(-1.0, 1.0, size=(n, n))
    scale = 0.5 * (scale + scale.T)
    is_c = np.arange(n) % 3 == 2
    rows = {"u": ~is_c, "c": is_c}
    for block in "uc":
        if block not in blocks:
            scale[rows[block]] = 1.0
    return sp.csr_matrix(dense * scale)


def _spread(A, block):
    """D A D, D scaling the dofs of the named block ("u": K_uu, "c": K_cc) by
    factors spaced geometrically from 1 to 10 and the other dofs by 1: the
    block stays symmetric positive definite on its pattern, and the
    preconditioned matrix of its factor in A has a spread spectrum."""
    is_c = np.arange(A.shape[0]) % 3 == 2
    in_block = is_c if block == "c" else ~is_c
    d = np.ones(A.shape[0])
    d[in_block] = np.geomspace(1.0, 10.0, np.count_nonzero(in_block))
    return sp.csr_matrix(sp.diags(d) @ A @ sp.diags(d))


def _u_residual_ratio(M, dw, res):
    """||K_uu du - rhs_u|| / ||rhs_u|| of an update dw of M dw = -res, where
    rhs_u = -res_u - K_uc dc is the right-hand side K_uu was solved for."""
    is_u = np.arange(M.shape[0]) % 3 != 2
    rhs_u = -(res + M @ np.where(is_u, 0.0, dw))[is_u]
    return np.linalg.norm((M @ dw + res)[is_u]) / np.linalg.norm(rhs_u)


def _c_residual_ratio(M, dw, res):
    """||K_cc dc + res_c|| / ||res_c|| of an update dw of M dw = -res."""
    is_c = np.arange(M.shape[0]) % 3 == 2
    return np.linalg.norm((M @ dw + res)[is_c]) / np.linalg.norm(res[is_c])


def _split_rows(A):
    """The row blocks of the node-major block upper-triangular ``A``, as the
    solver takes them: the mechanics rows (its u rows over every column),
    K_cc (its c rows over the c columns) and K_cc's drift-free base, K_cc
    itself."""
    is_c = np.arange(A.shape[0]) % 3 == 2
    cc = A[is_c][:, is_c]
    return A[~is_c], cc, cc


def _drifted(A, rel, rng):
    """``A`` with a nonsymmetric drift subtracted from K_cc on its pattern,
    entries up to ``rel`` times K_cc's largest."""
    dense = A.toarray()
    is_c = np.arange(A.shape[0]) % 3 == 2
    cc = np.ix_(is_c, is_c)
    dense[cc] -= rel * np.abs(dense[cc]).max() * np.where(
        dense[cc] != 0.0, rng.uniform(-1.0, 1.0, size=dense[cc].shape), 0.0)
    return sp.csr_matrix(dense)


@pytest.fixture
def rows():
    """The row blocks of a matrix, split once per matrix in a test, so that
    a matrix passed again passes the same two blocks."""
    split = {}

    def of(A):
        return split.setdefault(id(A), (A, _split_rows(A)))[1]  # A kept: its id stays unique
    return of


def _solver(A, fixed=()):
    """A BlockSolver planned for the row-block patterns of ``A``."""
    return sla.BlockSolver(*_split_rows(A)[:2], np.asarray(fixed, dtype=int))


class TestBlockSolver:
    def test_update_solves_free_system(self, rows, rng):
        A = _block_triangular(rng)
        res = rng.normal(size=A.shape[0])
        fixed = np.array([0, 5])
        dw = _solver(A, fixed).newton_update(rows(A), res)
        free = np.setdiff1d(np.arange(A.shape[0]), fixed)
        assert np.all(dw[fixed] == 0.0)
        J = A.toarray()[np.ix_(free, free)]
        assert np.linalg.norm(J @ dw[free] + res[free]) <= 1e-12 * np.linalg.norm(res)

    @pytest.mark.parametrize("fixed", [(), (0, 4), (2, 4)],
                             ids=["all-free", "u-dirichlet", "c-dirichlet"])
    def test_every_free_dof_block_read_as_a_copy(self, rows, rng, fixed):
        # each free-dof block holds a copy of its row block's free entries,
        # K_cc with no constrained c dof (its free-dof block whole) too; the
        # next row blocks are copied in their turn
        A = _block_triangular(rng)
        solver = _solver(A, fixed)
        res = rng.normal(size=A.shape[0])
        dw = solver.newton_update(rows(A), res)
        free = np.setdiff1d(np.arange(A.shape[0]), fixed)
        J = A.toarray()[np.ix_(free, free)]
        assert np.linalg.norm(J @ dw[free] + res[free]) <= 1e-12 * np.linalg.norm(res)
        free_u, free_c = solver.free_dofs
        for M in (A, _spd_perturbed(A, 0.5, rng)):
            mech, cc, _ = rows(M)
            solver.newton_update(rows(M), res)
            dense = M.toarray()
            for name, row_block, (r, c) in (("uu", mech, (free_u, free_u)),
                                            ("uc", mech, (free_u, free_c)),
                                            ("cc", cc, (free_c, free_c))):
                block = solver._blocks[name][1]
                assert not np.shares_memory(block.data, row_block.data), name
                assert np.array_equal(block.toarray(), dense[np.ix_(r, c)]), name

    def test_non_finite_entry_rejected(self, rows, rng):
        A = _block_triangular(rng)
        for block in range(3):          # the mechanics rows, K_cc, then its base
            jac = [m.copy() for m in rows(A)]
            jac[block].data[1] = np.nan
            with pytest.raises(ValueError, match="entries must be finite"):
                _solver(A).newton_update(tuple(jac), np.ones(A.shape[0]))

    def test_non_finite_entry_rejected_after_a_reused_jacobian(self, rows, rng):
        # the second pass of A's blocks is not read again; a new block next
        # to the other, passed again, still is
        A = _block_triangular(rng)
        for block in range(2):
            solver = _solver(A)
            for _ in range(2):
                solver.newton_update(rows(A), np.ones(A.shape[0]))
            jac = list(rows(A))
            jac[block] = jac[block].copy()
            jac[block].data[1] = np.nan
            with pytest.raises(ValueError, match="entries must be finite"):
                solver.newton_update(tuple(jac), np.ones(A.shape[0]))

    def test_other_pattern_rejected(self, rows, rng):
        A = _block_triangular(rng)
        other = rows(_block_triangular(rng, n_nodes=4))
        for block in range(3):          # a base is read when K_cc is factored
            jac = list(rows(A))
            jac[block] = other[block]
            with pytest.raises(ValueError, match="planned pattern"):
                _solver(A).newton_update(tuple(jac), np.ones(A.shape[0]))

    def test_equal_block_factors_nothing_new(self, rows, rng, factors):
        A = _block_triangular(rng)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        first = solver.newton_update(rows(A), res)
        assert [f.n for f in factors] == [3, 6]      # K_cc (3 dofs), then K_uu (6)
        again = solver.newton_update(rows(A), res)
        assert len(factors) == 2
        assert [f.solves for f in factors] == [2, 2]  # one solve an update, no CG step
        assert np.array_equal(again, first)
        assert (solver.factors, solver.reused) == (2, 2)

    def test_return_to_an_earlier_jacobian_reads_it_again(self, rows, rng):
        # per row block: A, then A with that block changed, then A again: the
        # last update solves A, as a fresh solver's does, and not the changed
        # block left in place
        A = _spd_block_triangular(rng)
        B = _spd_perturbed(A, 0.05, rng)
        res = rng.normal(size=A.shape[0])
        ref = _solver(A).newton_update(rows(A), res)
        is_u = np.arange(A.shape[0]) % 3 != 2
        (mech_a, *cc_a), (mech_b, *cc_b) = rows(A), rows(B)
        for changed in ((mech_b, *cc_a), (mech_a, *cc_b)):
            solver = _solver(A)
            for jac in (rows(A), changed):
                solver.newton_update(jac, res)
            dw = solver.newton_update(rows(A), res)
            assert np.linalg.norm(dw[~is_u] - ref[~is_u]) <= 1e-12 * np.linalg.norm(ref[~is_u])
            assert _u_residual_ratio(A, dw, res) <= sla.FORCING
            assert np.linalg.norm(dw[is_u] - ref[is_u]) <= 1e-2 * np.linalg.norm(ref[is_u])

    def test_small_change_reuses_kept_factor(self, rows, rng, factors):
        # a nonsymmetric change of both blocks, served by CG with the kept
        # factors of the symmetric A
        A = _block_triangular(rng, n_nodes=8)
        B = _perturbed(A, 1e-6, rng)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        solver.newton_update(rows(A), res)
        dw = solver.newton_update(rows(B), res)
        assert len(factors) == 2 and solver.reused == 2
        assert _c_residual_ratio(B, dw, res) <= sla.FORCING
        assert _u_residual_ratio(B, dw, res) <= sla.FORCING

    @pytest.mark.parametrize("block", ["cc", "uu"])
    def test_fresh_factor_needs_roundoff_backward_error(self, rows, rng, monkeypatch, factors,
                                                        block):
        # with the roundoff target out of float64's reach, a fresh band
        # factor's first solve misses it, and the block is reported; a zero
        # r_c gives dc = 0 at once and takes the first fresh solve to K_uu
        monkeypatch.setattr(sla, "ROUNDOFF_TOL", 1e-20)
        A = _spd_block_triangular(rng)
        res = rng.normal(size=A.shape[0])
        if block == "uu":
            res[2::3] = 0.0
        with pytest.raises(sla.SingularMatrixError, match=f"K_{block}: solve misses a roundoff"):
            _solver(A).newton_update(rows(A), res)
        assert factors[-1].n == {"cc": 8, "uu": 16}[block]

    def test_block_turning_singular_still_raises(self, rows, rng):
        A = _block_triangular(rng)
        dense = A.toarray()
        dense[3] = dense[0]                       # two equal displacement rows
        B = sp.csr_matrix(dense)
        assert np.array_equal(B.indices, A.indices)    # same pattern
        solver = _solver(A)
        solver.newton_update(rows(A), np.ones(A.shape[0]))
        # with r_c = 0 the K_uu right-hand side is -r_u, and rows 0 and 3 of
        # B x are equal for every x, so ||B x + r_u|| >= |r_0 - r_3| / sqrt(2):
        # CG cannot reach FORCING ||r_u|| and the block is factored
        res = rng.normal(size=A.shape[0])
        res[2::3] = 0.0
        res[3] = res[0] + 1.0
        with pytest.raises(sla.SingularMatrixError, match="K_uu"):
            solver.newton_update(rows(B), res)

    def test_singular_block_with_consistent_rhs_solved_by_kept_factor(self, rows, rng):
        # the equal rows see equal right-hand sides: the system has solutions,
        # CG with the kept factor finds one, and no factor of the singular
        # block is attempted
        A = _block_triangular(rng)
        dense = A.toarray()
        dense[3] = dense[0]
        B = sp.csr_matrix(dense)
        solver = _solver(A)
        solver.newton_update(rows(A), np.ones(A.shape[0]))
        dw = solver.newton_update(rows(B), np.ones(A.shape[0]))
        assert solver.factors == 2
        assert np.linalg.norm(B @ dw + 1.0) <= 1e-12 * np.sqrt(A.shape[0])

    def test_alternating_blocks_factor_twice(self, rows, rng, factors, monkeypatch):
        # with no CG iteration allowed, the first solve of either block of B,
        # a 30% change of A, with A's factor misses the forcing bound, and so
        # does A's with B's, so every switch factors both blocks afresh; each
        # block keeps one factor, so a replaced factor is not solved again
        monkeypatch.setattr(sla, "PCG_MAX_ITER", 0)
        A = _spd_block_triangular(rng, n_nodes=3)
        B = _spd_perturbed(A, 0.3, rng)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        solves = []
        for M in (A, B, A, B):
            dw = solver.newton_update(rows(M), res)
            assert np.linalg.norm(M @ dw + res) <= 1e-12 * np.linalg.norm(res)
            solves.append([f.solves for f in factors])
        assert [f.n for f in factors] == [3, 6] * 4          # K_cc (3 dofs), K_uu (6)
        assert (solver.factors, solver.reused) == (8, 0)
        # the factors of update k - 2 were replaced in update k - 1
        for k in (2, 3):
            assert solves[k][:2 * k - 2] == solves[k - 1][:2 * k - 2]

    def test_singular_block_reported(self, rows, rng):
        A = _block_triangular(rng).toarray()
        A[3] = A[0]                               # two equal displacement rows
        M = sla.from_triplets(A.shape[0], [(i, j, A[i, j]) for i, j in zip(*np.nonzero(A))])
        with pytest.raises(sla.SingularMatrixError, match="K_uu"):
            _solver(M).newton_update(rows(M), np.ones(M.shape[0]))


class TestFactorChoice:
    """Every fresh factor is band Cholesky, in the solver's band order, of
    the block's upper band: of K_uu, of a K_cc without drift, and of the
    drift-free base of a K_cc with drift. A block that dpbtrf finds not
    positive definite is reported singular."""

    @staticmethod
    def _free_residual(M, dw, res, fixed):
        free = np.setdiff1d(np.arange(M.shape[0]), fixed)
        J = M.toarray()[np.ix_(free, free)]
        return np.linalg.norm(J @ dw[free] + res[free]) / np.linalg.norm(res[free])

    def test_spd_blocks_band_factored(self, rows, rng, factors):
        A = _spd_block_triangular(rng)
        res = rng.normal(size=A.shape[0])
        fixed = (0, 5)                  # u_x of node 0, c of node 1
        dw = _solver(A, fixed).newton_update(rows(A), res)
        assert [f.n for f in factors] == [7, 15]
        assert self._free_residual(A, dw, res, fixed) <= 1e-12

    def test_one_node_order_serves_both_blocks(self, rng):
        # K_uu's band order is K_cc's node order with each node expanded to
        # its free u dofs (node 1 all fixed, node 0's u_x fixed)
        A = _spd_block_triangular(rng)
        for fixed in ((), (0, 3, 4, 5)):
            solver = _solver(A, fixed)
            free_u, free_c = solver.free_dofs
            nodes = free_c[solver._bands["cc"].order] // 3
            u_dofs = (3 * nodes[:, None] + np.array([0, 1])).ravel()
            assert np.array_equal(free_u[solver._bands["uu"].order],
                                  u_dofs[~np.isin(u_dofs, fixed)])

    def test_factor_reads_the_upper_band(self, rng):
        # K_uu's band factor is that of the symmetric matrix of its upper
        # triangle in factor order, bitwise, whatever its lower triangle holds
        A = _spd_block_triangular(rng)
        is_u = np.arange(A.shape[0]) % 3 != 2
        block = sp.csr_matrix(A.toarray()[np.ix_(is_u, is_u)])
        band = _solver(A)._bands["uu"]
        lower = np.setdiff1d(np.arange(block.nnz), band.upper)
        assert lower.size == (block.nnz - block.shape[0]) // 2     # the diagonal is upper
        skewed = block.copy()
        skewed.data[lower] += rng.normal(size=lower.size)
        r_sym, r_skewed = (band.factor(M, "K_uu")._r for M in (block, skewed))
        assert np.array_equal(r_sym, r_skewed)

    @pytest.mark.parametrize("asymmetry", [0.5, 1e3])
    def test_nonsymmetric_k_uu_reported(self, rows, rng, factors, asymmetry):
        # K_uu skewed on its pattern P (strict upper triangle) by
        # asymmetry / (2 ||P||_2) ROUNDOFF_TOL max|A| (P - P^T). Its band
        # factor is that of the upper triangle, which differs from it by
        # asymmetry / ||P||_2 ROUNDOFF_TOL max|A| P^T, so the factor's
        # backward error is at most asymmetry ROUNDOFF_TOL max|A| ||x|| plus
        # roundoff, at any seed. At half the target K_uu is solved to it; at
        # a thousand times it the first solve misses it and the block is
        # reported
        A = _spd_block_triangular(rng)
        is_u = np.arange(A.shape[0]) % 3 != 2
        dense = A.toarray()
        uu = np.ix_(is_u, is_u)
        part = np.triu(np.where(dense[uu] != 0.0, 1.0, 0.0), 1)
        scale = asymmetry / (2 * np.linalg.norm(part, 2)) * sla.ROUNDOFF_TOL * np.abs(dense[uu]).max()
        dense[uu] += scale * (part - part.T)
        B = sp.csr_matrix(dense)
        res = rng.normal(size=A.shape[0])
        if asymmetry > 100:
            with pytest.raises(sla.SingularMatrixError, match="K_uu: solve misses a roundoff"):
                _solver(B).newton_update(rows(B), res)
        else:
            dw = _solver(B).newton_update(rows(B), res)
            assert self._free_residual(B, dw, res, ()) <= 1e-12
        assert factors[1].n == 16

    def test_drifted_k_cc_factored_from_its_base(self, rows, rng, factors):
        # a two-way K_cc: the drift adds a nonsymmetric part on the pattern.
        # Its fresh factor is that of its base, from which CG meets the
        # forcing bound; K_uu is solved to roundoff
        A = _spd_block_triangular(rng)
        B = _drifted(A, 1e-3, rng)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        dw = solver.newton_update((*rows(B)[:2], rows(A)[2]), res)
        assert [f.n for f in factors] == [8, 16]
        assert np.array_equal(factors[0].matrix.toarray(), rows(A)[1].toarray())
        assert (solver.factors, solver.reused) == (2, 0)
        assert _c_residual_ratio(B, dw, res) <= sla.FORCING
        assert _u_residual_ratio(B, dw, res) <= 1e-12

    def test_drift_cg_cannot_resolve_served_by_gmres(self, rows, rng, factors, call_spy):
        # a drift ten times K_cc's largest entry: CG from the base's fresh
        # factor cannot reach the forcing bound, and GMRES from that factor
        # reaches it
        A = _spd_block_triangular(rng)
        B = _drifted(A, 10.0, rng)
        calls = call_spy("gmres", sla)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        dw = solver.newton_update((*rows(B)[:2], rows(A)[2]), res)
        assert len(calls) == 1
        assert [f.n for f in factors] == [8, 16] and solver.factors == 2
        assert np.array_equal(factors[0].matrix.toarray(), rows(A)[1].toarray())
        assert _c_residual_ratio(B, dw, res) <= sla.FORCING
        assert _u_residual_ratio(B, dw, res) <= 1e-12

    def test_drift_gmres_cannot_resolve_reported(self, rows, rng, factors):
        # a drifted K_cc with two equal rows and unequal right-hand sides
        # there: no dc meets the forcing bound, and K_cc is reported
        A = _spd_block_triangular(rng)
        B = _drifted(A, 10.0, rng).toarray()
        c0, c1 = 2, 5
        B[c1] = B[c0]
        B = sp.csr_matrix(B)
        assert np.array_equal(B.indices, A.indices)    # same pattern
        res = rng.normal(size=A.shape[0])
        res[c1] = res[c0] + 1.0
        solver = _solver(A)
        with pytest.raises(sla.SingularMatrixError,
                           match="K_cc: GMRES from the factor of its drift-free base"):
            solver.newton_update((*rows(B)[:2], rows(A)[2]), res)
        assert [f.n for f in factors] == [8] and solver.factors == 0

    @pytest.mark.parametrize("kind", ["negated", "small-diagonal"])
    @pytest.mark.parametrize("block", ["cc", "uu"])
    def test_indefinite_symmetric_block_reported(self, rows, rng, block, kind):
        # -A fails dpbtrf at its first pivot; a symmetric block with a
        # diagonal too small for its off-diagonal entries fails it further
        # on. The other block stays positive definite
        A = _spd_block_triangular(rng)
        in_block = (np.arange(A.shape[0]) % 3 == 2) == (block == "cc")
        dense = A.toarray()
        if kind == "negated":
            dense[np.ix_(in_block, in_block)] *= -1.0
        else:
            dense[in_block, in_block] = 0.1
        B = sp.csr_matrix(dense)
        with pytest.raises(sla.SingularMatrixError, match=f"K_{block}: not positive definite"):
            _solver(B).newton_update(rows(B), rng.normal(size=A.shape[0]))

    def test_identically_zero_symmetric_block_reported(self, rows, rng):
        A = _spd_block_triangular(rng)
        mech, cc, _ = rows(A)
        cc = cc.copy()
        cc.data[:] = 0.0
        with pytest.raises(sla.SingularMatrixError, match="K_cc: matrix is identically zero"):
            _solver(A).newton_update((mech, cc, cc), rng.normal(size=A.shape[0]))

    @pytest.mark.parametrize("fixed_kind", [0, 2], ids=["every-u-fixed", "every-c-fixed"])
    def test_block_with_every_dof_fixed(self, rows, rng, factors, fixed_kind):
        # one block has no free dof: the solver plans and updates with the
        # other alone
        A = _spd_block_triangular(rng)
        comps = np.arange(A.shape[0]) % 3
        fixed = np.flatnonzero(comps == 2 if fixed_kind == 2 else comps != 2)
        solver = _solver(A, fixed)
        res = rng.normal(size=A.shape[0])
        for M in (A, _spd_perturbed(A, 0.01, rng, blocks="uc")):
            dw = solver.newton_update(rows(M), res)
            assert np.all(dw[fixed] == 0.0)
            assert self._free_residual(M, dw, res, fixed) <= sla.FORCING
        assert [f.n for f in factors] == [{0: 8, 2: 16}[fixed_kind]]


def _mesh_solver(mesh, params):
    """A BlockSolver planned for the Jacobian patterns of ``mesh`` with no
    dof fixed, and its node pattern."""
    fixed = asm.fixed_jacobian(asm.precompute(mesh), params)
    return sla.BlockSolver(fixed.mech, fixed.mass, np.zeros(0, dtype=int)), fixed.mass


def _rcm(pattern):
    return reverse_cuthill_mckee(pattern, symmetric_mode=True)


class TestBandOrder:
    """The band is planned in reverse Cuthill-McKee's node order or in the
    node pattern's own, whichever has the smaller half-bandwidth on the node
    pattern, and in RCM's on a tie."""

    def test_plate_takes_its_ring_numbering(self, steel):
        mesh = msh.generate_plate_with_hole(1.0, 0.1, 0.05)
        n_theta = mesh.nodes_with_tag("hole").size
        solver, pattern = _mesh_solver(mesh, steel)
        assert sla._plan_band(pattern, _rcm(pattern)).kd > n_theta + 1
        assert np.array_equal(solver._bands["cc"].order, np.arange(mesh.n_nodes))
        assert solver._bands["cc"].kd == n_theta + 1
        assert solver._bands["uu"].kd == 2 * n_theta + 3

    @pytest.mark.parametrize("r_i", [0.5, 0.0], ids=["annulus", "solid-disk"])
    def test_annulus_and_disk_take_rcm_order(self, steel, r_i):
        # criterion 9's meshes, scaled to a unit outer radius
        solver, pattern = _mesh_solver(msh.generate_annulus(r_i, 1.0, 0.08), steel)
        rcm = _rcm(pattern)
        assert (sla._plan_band(pattern, rcm).kd
                < sla._plan_band(pattern, np.arange(rcm.size)).kd)
        assert np.array_equal(solver._bands["cc"].order, rcm)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_plate_never_wider_than_rcm(self, steel, seed):
        plate = msh.generate_plate_with_hole(1.0, 0.1, 0.05)
        label = np.random.default_rng(seed).permutation(plate.n_nodes)
        nodes = np.empty_like(plate.nodes)
        nodes[label] = plate.nodes
        mesh = msh.Mesh(nodes, label[plate.tris], label[plate.boundary_edges],
                        plate.boundary_tags.copy())
        solver, pattern = _mesh_solver(mesh, steel)
        assert solver._bands["cc"].kd <= sla._plan_band(pattern, _rcm(pattern)).kd

    def test_tie_keeps_rcm_order(self, rng):
        # every node pair shares an entry, so every order has half-bandwidth
        # n - 1; RCM's is the identity reversed
        A = _spd_block_triangular(rng)
        pattern = _split_rows(A)[1]
        rcm = _rcm(pattern)
        assert not np.array_equal(rcm, np.arange(rcm.size))
        assert np.array_equal(_solver(A)._bands["cc"].order, rcm)


class TestKeptFactorSolve:
    """The kept-factor contract of both blocks: PCG to FORCING, else a fresh
    factor."""

    @pytest.mark.parametrize("block", ["u", "c"])
    def test_few_percent_change_served_by_pcg(self, rows, rng, factors, block):
        # the changed block meets the forcing bound, the unchanged one is
        # solved exactly by its kept factor's first solve
        A = _spd_block_triangular(rng)
        B = _spd_perturbed(A, 0.03, rng, blocks=block)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        solver.newton_update(rows(A), res)
        dw = solver.newton_update(rows(B), res)
        assert len(factors) == 2                   # no new factor of either block
        assert 0 < solver.pcg_iters <= sla.PCG_MAX_ITER
        assert solver.reused == 2
        u_tol, c_tol = (sla.FORCING, 1e-12) if block == "u" else (1e-12, sla.FORCING)
        assert _u_residual_ratio(B, dw, res) <= u_tol
        assert _c_residual_ratio(B, dw, res) <= c_tol

    def test_unchanged_block_bitwise_equal_to_kept_solve(self, rows, rng, factors):
        A = _spd_block_triangular(rng)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        solver.newton_update(rows(A), res)
        uu_factor = factors[1]
        solves = uu_factor.solves
        dw = solver.newton_update(rows(A), res)
        assert solver.pcg_iters == 0 and uu_factor.solves == solves + 1
        is_u = np.arange(A.shape[0]) % 3 != 2
        rhs_u = -(res + A @ np.where(is_u, 0.0, dw))[is_u]
        assert np.array_equal(dw[is_u], uu_factor.solve(rhs_u))

    @pytest.mark.parametrize("block", ["u", "c"], ids=["u-iteration-cap", "c-iteration-cap"])
    def test_failed_pcg_falls_back_to_fresh_factor(self, rows, rng, factors, monkeypatch,
                                                   block):
        # the changed block's dofs scaled by factors from 1 to 10 spread the
        # spectrum of its kept factor's preconditioned matrix over about
        # [1, 100], where two CG iterations fall far short of the forcing
        # bound whatever the draws
        monkeypatch.setattr(sla, "PCG_MAX_ITER", 2)
        A = _spd_block_triangular(rng)
        B = _spread(A, block)
        assert np.array_equal(B.indices, A.indices)    # same pattern
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        solver.newton_update(rows(A), res)
        dw = solver.newton_update(rows(B), res)
        # the changed block refactored (K_cc 8 dofs, K_uu 16), the other kept
        assert [f.n for f in factors] == [8, 16, {"c": 8, "u": 16}[block]]
        assert solver.pcg_iters == 0 and solver.reused == 1
        assert _u_residual_ratio(B, dw, res) <= 1e-12
        assert _c_residual_ratio(B, dw, res) <= 1e-12

    def test_drifted_k_cc_refactored_from_its_new_base(self, rows, rng, factors, monkeypatch):
        # a 30% change of K_cc's base with a small drift on it, and no CG
        # iteration allowed: the kept factor's first solve misses the forcing
        # bound, and K_cc is factored afresh from the new base, whose first
        # solve meets it
        monkeypatch.setattr(sla, "PCG_MAX_ITER", 0)
        A = _spd_block_triangular(rng)
        base = _spd_perturbed(A, 0.3, rng, blocks="c")
        B = _drifted(base, 1e-5, rng)
        res = rng.normal(size=A.shape[0])
        solver = _solver(A)
        solver.newton_update(rows(A), res)
        dw = solver.newton_update((*rows(B)[:2], rows(base)[2]), res)
        assert [f.n for f in factors] == [8, 16, 8]
        assert np.array_equal(factors[2].matrix.toarray(), rows(base)[1].toarray())
        assert solver.reused == 1
        assert _c_residual_ratio(B, dw, res) <= sla.FORCING
        assert _u_residual_ratio(B, dw, res) <= 1e-12

    @pytest.mark.parametrize("solvable", [True, False], ids=["solvable", "singular"])
    def test_kept_factor_of_the_same_base_not_refactored(self, rows, rng, factors, call_spy,
                                                         solvable):
        # K_cc without drift, then with a drift ten times its largest entry
        # over the same base: CG with the kept factor fails, and a fresh
        # factor of that base would be the same one, so GMRES serves K_cc
        # from the kept factor, or, on a drifted K_cc with two equal rows and
        # unequal right-hand sides there, K_cc is reported at once
        A = _spd_block_triangular(rng)
        B = _drifted(A, 10.0, rng).toarray()
        res = rng.normal(size=A.shape[0])
        if not solvable:
            B[5] = B[2]
            res[5] = res[2] + 1.0
        B = sp.csr_matrix(B)
        calls = call_spy("gmres", sla)
        solver = _solver(A)
        solver.newton_update(rows(A), res)
        jac = (*rows(B)[:2], rows(A)[2])
        if solvable:
            dw = solver.newton_update(jac, res)
            assert _c_residual_ratio(B, dw, res) <= sla.FORCING
            assert _u_residual_ratio(B, dw, res) <= 1e-12
            assert solver.reused == 2
        else:
            with pytest.raises(sla.SingularMatrixError, match="K_cc: GMRES"):
                solver.newton_update(jac, res)
        assert len(calls) == 1
        assert [f.n for f in factors] == [8, 16] and solver.factors == 2

    @pytest.mark.parametrize("block, change", [
        ("u", "nonsymmetric"), ("u", "indefinite"), ("c", "indefinite")])
    def test_failed_pcg_on_a_block_no_fresh_factor_serves_reported(self, rows, rng, block,
                                                                   change):
        # CG with the kept factor fails on the changed block, and its fresh
        # factor cannot serve it: dpbtrf rejects the indefinite block and the
        # factor of the nonsymmetric one's upper band
        A = _spd_block_triangular(rng)
        in_block = (np.arange(A.shape[0]) % 3 == 2) == (block == "c")
        dense = A.toarray()
        changed = np.ix_(in_block, in_block)
        if change == "nonsymmetric":
            # a skew part ten times the diagonal leaves p.Ap > 0, but CG
            # cannot converge on it
            skew = np.triu(rng.normal(size=dense[changed].shape), 1)
            dense[changed] += 10.0 * np.abs(dense[changed]).max() * (skew - skew.T)
        else:
            dense[changed] = -dense[changed]       # p.Ap < 0 at the first step
        B = sp.csr_matrix(dense)
        assert np.array_equal(B.indices, A.indices)    # same pattern
        solver = _solver(A)
        solver.newton_update(rows(A), rng.normal(size=A.shape[0]))
        with pytest.raises(sla.SingularMatrixError, match=f"K_{block}{block}"):
            solver.newton_update(rows(B), rng.normal(size=A.shape[0]))
        assert solver.factors == 2 and solver.pcg_iters == 0

    def test_singular_k_uu_raises(self, rows, rng, factors):
        # K_uu with equal rows i and j (and columns) is positive semidefinite
        # and singular; a generic right-hand side has a part in its null space
        # that CG with the kept factor of A cannot reduce, and the fresh
        # factor reports the block. Its last Cholesky pivot is roundoff of
        # either sign, so dpbtrf or the band pivot check rejects it. Shifted
        # by 0.3 PIVOT_TOL max|K_uu| at (j, j), it is positive definite with a
        # pivot of at most the shift, far above roundoff, and the band
        # factor's pivot check reports it. The shifted block is factored by a
        # solver with no kept factor: with cond(K_uu) near 1e15, CG from A's
        # factor can meet the forcing bound, and then no fresh factor is made.
        A = _spd_block_triangular(rng)
        is_u = np.flatnonzero(np.arange(A.shape[0]) % 3 != 2)
        i, j = is_u[0], is_u[3]
        dense = A.toarray()
        dense[j, is_u] = dense[i, is_u]
        dense[is_u, j] = dense[is_u, i]
        dense[j, j] = dense[i, j] = dense[j, i] = dense[i, i]
        for shift, match, kept in ((0.0, "K_uu", True), (0.3, "K_uu: pivot", False)):
            dense[j, j] += shift * sla.PIVOT_TOL * np.abs(dense[np.ix_(is_u, is_u)]).max()
            B = sp.csr_matrix(dense)
            assert np.array_equal(B.indices, A.indices)
            solver = _solver(A)
            if kept:
                solver.newton_update(rows(A), np.ones(A.shape[0]))
            with pytest.raises(sla.SingularMatrixError, match=match):
                solver.newton_update(rows(B), rng.normal(size=A.shape[0]))

import numpy as np
import pytest

from chemoplast import sparse_linalg as sla


class TestFromTriplets:
    def test_duplicates_are_summed(self):
        A = sla.from_triplets(2, [(0, 0, 1.0), (0, 0, 2.0)])
        assert A.toarray()[0, 0] == 3.0

    def test_single_entry_matvec(self):
        A = sla.from_triplets(2, [(1, 1, 5.0)])
        assert np.allclose(A.matvec([0.0, 1.0]), [0.0, 5.0])

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
        assert np.array_equal(A.row_offsets, B.row_offsets)
        assert np.array_equal(A.col_indices, B.col_indices)
        assert np.allclose(A.values, B.values, rtol=0, atol=1e-15)

    def test_csr_invariants(self, rng):
        n = 9
        A = sla.from_triplets(n, [(int(i), int(j), float(v)) for i, j, v in
                                  zip(rng.integers(0, n, 40), rng.integers(0, n, 40),
                                      rng.normal(size=40))])
        for r in range(n):
            cols = A.col_indices[A.row_offsets[r]:A.row_offsets[r + 1]]
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
            assert np.linalg.norm(A.matvec(x) - b) <= 1e-10 * np.linalg.norm(b)

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
    K_cc populated and K_cu empty."""
    n = 3 * n_nodes
    is_c = np.arange(n) % 3 == 2
    dense = rng.normal(size=(n, n))
    dense[np.ix_(is_c, ~is_c)] = 0.0
    dense[np.arange(n), np.arange(n)] = np.abs(dense).sum(axis=1) + 1.0
    return sla.from_triplets(n, [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))])


class TestBlockSolver:
    def test_update_solves_free_system(self, rng):
        A = _block_triangular(rng)
        res = rng.normal(size=A.n)
        fixed = np.array([0, 5])
        dw = sla.BlockSolver().newton_update(A, res, fixed)
        free = np.setdiff1d(np.arange(A.n), fixed)
        assert np.all(dw[fixed] == 0.0)
        J = A.toarray()[np.ix_(free, free)]
        assert np.linalg.norm(J @ dw[free] + res[free]) <= 1e-12 * np.linalg.norm(res)

    def test_k_cu_entry_rejected(self, rng):
        A = _block_triangular(rng)
        csr = A.scipy_csr().tolil()
        csr[2, 3] = 1e-3            # concentration row 2, displacement column 3
        with pytest.raises(ValueError, match="block upper-triangular"):
            sla.BlockSolver().newton_update(sla.SparseMatrix(csr.tocsr()),
                                            np.ones(A.n), np.array([], dtype=int))

    def test_factor_reused_only_for_equal_block(self, rng, splu_calls):
        A = _block_triangular(rng)
        res = rng.normal(size=A.n)
        none = np.array([], dtype=int)
        solver = sla.BlockSolver()
        solver.newton_update(A, res, none, keep_uu=True, keep_cc=True)
        assert splu_calls == [3, 6]              # K_cc (3 dofs), then K_uu (6)
        solver.newton_update(A, res, none)
        assert len(splu_calls) == 2              # both kept factors reused

        csr = A.scipy_csr().copy()
        csr.data[0] = np.nextafter(csr.data[0], np.inf)    # row 0, column 0: in K_uu
        B = sla.SparseMatrix(csr)
        dw = solver.newton_update(B, res, none)
        assert splu_calls[2:] == [6]              # one ulp apart: K_uu refactored
        assert np.linalg.norm(B.matvec(dw) + res) <= 1e-12 * np.linalg.norm(res)
        solver.newton_update(B, res, none)
        assert splu_calls[3:] == [6]              # ... and not kept (keep_uu False)
        solver.newton_update(A, res, none)
        assert len(splu_calls) == 4               # the kept K_uu factor is still A's

    def test_singular_block_reported(self, rng):
        A = _block_triangular(rng).toarray()
        A[3] = A[0]                               # two equal displacement rows
        M = sla.from_triplets(A.shape[0], [(i, j, A[i, j]) for i, j in zip(*np.nonzero(A))])
        with pytest.raises(sla.SingularMatrixError, match="K_uu"):
            sla.BlockSolver().newton_update(M, np.ones(M.n), np.array([], dtype=int))

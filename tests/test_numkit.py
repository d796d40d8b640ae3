import numpy as np
import pytest

from peu import (
    RTOL,
    ValidationError,
    ZeroPolynomialError,
    kernel_basis,
    lambda_set,
    polynomial_roots,
    rank_report,
)
from peu.numkit import stacked_ranks
from peu.signals import Signal, hankel

from oracles import exact_rank, expand_from_roots


class TestRankReport:
    def test_identity(self):
        rep = rank_report(np.eye(2), 1e-10)
        assert rep.rank == 2
        assert rep.full_row_rank and rep.full_col_rank
        assert rep.singular_values == (1.0, 1.0)

    def test_output_window_matrix(self):
        # [H_1(u); H_1(y)] of the memorable 2-state example is rank 2
        # for every initial state: the rows can never be parallel.
        rng = np.random.default_rng(3)
        for _ in range(10):
            x1, x2 = rng.standard_normal(2)
            M = np.array([[1.0, 0.0, 0.0], [x1, x2, 1.0]])
            assert rank_report(M, 1e-9).rank == 2

    def test_matches_exact_elimination(self):
        rng = np.random.default_rng(7)
        M = rng.integers(-2, 3, size=(5, 7)).astype(float)
        assert rank_report(M).rank == exact_rank(M)

    def test_tolerance_policy(self):
        M = np.diag([1.0, 1e-5])
        assert rank_report(M, rtol=1e-9).rank == 2
        assert rank_report(M, rtol=1e-3).rank == 1  # tol = 1e-3 * 2 * 1 > 1e-5

    def test_zero_and_empty(self):
        rep = rank_report(np.zeros((3, 2)))
        assert rep.rank == 0 and rep.tolerance_used == RTOL
        rep = rank_report(np.zeros((0, 4)))
        assert rep.rank == 0 and rep.full_row_rank  # vacuously full

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            rank_report(np.array([[1.0, np.nan]]))
        with pytest.raises(ValidationError):
            rank_report(np.eye(2), rtol=0.0)

    def test_rank_transpose_agrees(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            M = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
            if rng.random() < 0.5:  # make some rank-deficient
                M[:, -1] = M[:, 0] if M.shape[1] > 1 else M[:, -1]
            assert rank_report(M).rank == rank_report(M.T).rank

    def test_integer_matrices_vs_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            r, c = rng.integers(1, 9, size=2)
            M = rng.integers(-3, 4, size=(r, c)).astype(float)
            assert rank_report(M).rank == exact_rank(M)


class TestStackedRanks:
    @staticmethod
    def random_stack(rng, N, r, c):
        """N random r x c matrices: full rank, rank-deficient, all-zero and tiny-scaled."""
        M = rng.standard_normal((N, r, c))
        for i in range(N):
            kind = i % 4
            if kind == 1:  # rank k < min(r, c)
                k = int(rng.integers(0, min(r, c)))
                M[i] = rng.standard_normal((r, k)) @ rng.standard_normal((k, c))
            elif kind == 2:
                M[i] = 0.0
            elif kind == 3:
                M[i] *= 1e-12
        return M

    def test_matches_rank_report(self):
        rng = np.random.default_rng(41)
        for r, c in [(1, 1), (3, 4), (4, 3), (5, 5), (7, 1), (1, 6), (10, 14)]:
            M = self.random_stack(rng, 24, r, c)
            for rtol in (RTOL, 1e-3):
                ranks = stacked_ranks(M, rtol)
                assert ranks.shape == (24,)
                assert ranks.tolist() == [rank_report(Mi, rtol).rank for Mi in M]

    def test_near_tolerance(self):
        # singular values just above and just below rank_report's tolerance
        tol = RTOL * 3
        M = np.array([np.diag([1.0, f * tol, 0.5]) for f in (0.99, 1.0, 1.01, 2.0)])
        assert stacked_ranks(M).tolist() == [rank_report(Mi).rank for Mi in M] == [2, 2, 3, 3]

    def test_empty(self):
        assert stacked_ranks(np.zeros((0, 3, 4))).shape == (0,)
        assert stacked_ranks(np.zeros((2, 0, 3))).tolist() == [0, 0] == [
            rank_report(np.zeros((0, 3))).rank] * 2
        assert stacked_ranks(np.zeros((2, 3, 0))).tolist() == [0, 0]

    def test_rejects(self):
        M = np.ones((3, 2, 2))
        M[1, 0, 1] = np.inf
        with pytest.raises(ValidationError, match="matrix contains non-finite entries"):
            stacked_ranks(M)
        with pytest.raises(ValidationError, match="3-D"):
            stacked_ranks(np.ones((2, 2)))
        with pytest.raises(ValidationError, match="rtol"):
            stacked_ranks(np.ones((1, 2, 2)), rtol=0.0)


class TestKernelBasis:
    def test_simple_kernel(self):
        K = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert K.shape == (2, 1)
        assert abs(abs(K[1, 0]) - 1.0) < 1e-14 and abs(K[0, 0]) < 1e-14

    def test_reference_kernel_vector(self, ex2_input, ex2_values):
        M = hankel(Signal(ex2_input), 4).T
        K = kernel_basis(M)
        assert K.shape[1] >= 1
        eta = ex2_values["eta"].reshape(-1)
        assert np.linalg.norm(M @ eta) <= 1e-3 * np.linalg.norm(eta)

    def test_all_ones(self):
        K = kernel_basis(np.ones((3, 3)))
        assert K.shape == (3, 2)
        np.testing.assert_allclose(K.sum(axis=0), 0.0, atol=1e-12)

    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            r, c = rng.integers(1, 8, size=2)
            M = rng.standard_normal((r, c))
            if c > 1:
                M[:, 0] = M[:, -1]  # force a nontrivial kernel
            K = kernel_basis(M)
            rep = rank_report(M)
            assert K.shape == (c, c - rep.rank)
            if K.shape[1]:
                np.testing.assert_allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-10)
                assert np.linalg.norm(M @ K) <= rep.tolerance_used * np.sqrt(c)


class TestSvdRetry:
    """Where LAPACK's SVD does not converge, numkit retries on the transpose."""

    @staticmethod
    def fail_on(monkeypatch, shape):
        """Make ``np.linalg.svd`` raise on matrices (or stacks) of trailing shape ``shape``.

        Returns the list of trailing shapes it was called with.
        """
        real_svd = np.linalg.svd
        calls = []

        def flaky(a, *args, **kwargs):
            calls.append(np.shape(a)[-2:])
            if np.shape(a)[-2:] == shape:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        return calls

    def test_rank_report(self, monkeypatch):
        rng = np.random.default_rng(43)
        for M in (rng.standard_normal((7, 4)),
                  rng.standard_normal((7, 2)) @ rng.standard_normal((2, 4))):
            expected = rank_report(M)
            calls = self.fail_on(monkeypatch, M.shape)
            got = rank_report(M)
            monkeypatch.undo()
            assert calls == [(7, 4), (4, 7)]
            assert got.rank == expected.rank and got.shape == expected.shape
            np.testing.assert_allclose(got.singular_values, expected.singular_values,
                                       rtol=1e-12, atol=1e-12 * expected.singular_values[0])

    def test_kernel_basis(self, monkeypatch):
        rng = np.random.default_rng(47)
        M = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 8))
        rep = rank_report(M)
        calls = self.fail_on(monkeypatch, M.shape)
        K = kernel_basis(M)
        assert calls == [(5, 8), (8, 5)]
        assert K.shape == (8, 8 - rep.rank) == (8, 5)
        np.testing.assert_allclose(K.T @ K, np.eye(5), atol=1e-12)
        assert np.linalg.norm(M @ K) <= rep.tolerance_used * np.sqrt(8)

    def test_stacked_ranks(self, monkeypatch):
        M = TestStackedRanks.random_stack(np.random.default_rng(59), 24, 5, 3)
        expected = stacked_ranks(M)
        calls = self.fail_on(monkeypatch, (5, 3))
        assert stacked_ranks(M).tolist() == expected.tolist()
        assert calls == [(5, 3), (3, 5)]


class TestPolynomialRoots:
    def test_difference_of_squares(self):
        rs = polynomial_roots([-1.0, 0.0, 1.0])
        assert sorted(z.real for z in rs.roots) == pytest.approx([-1.0, 1.0])
        assert all(abs(z.imag) < 1e-12 for z in rs.roots)

    def test_multiple_root_collapses(self):
        rs = polynomial_roots([0.0, 0.0, 1.0])
        assert len(rs) == 1
        assert abs(rs.roots[0]) < 1e-8

    def test_recovers_integer_roots(self):
        roots = [-2, -1, 1, 3]
        rs = polynomial_roots(expand_from_roots(roots))
        assert len(rs) == 4
        for r in roots:
            assert rs.distance(r) < 1e-8

    def test_trailing_trim(self):
        # degree drops to 1 once the tiny leading coefficient is trimmed
        rs = polynomial_roots([1.0, -1.0, 1e-15])
        assert len(rs) == 1
        assert rs.distance(1.0) < 1e-10

    def test_constant_polynomial(self):
        assert len(polynomial_roots([2.0])) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            polynomial_roots([0.0, 0.0])

    def test_random_expansions(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            deg = rng.integers(1, 9)
            roots = rng.choice(np.arange(-4, 5), size=deg, replace=False)
            rs = polynomial_roots(expand_from_roots(roots))
            for r in roots:
                assert rs.distance(r) < 1e-6


class TestLambdaSet:
    def test_scalar_coordinates(self):
        rs = lambda_set(np.array([-1.0, 0.0, 1.0]))
        assert sorted(z.real for z in rs.roots) == pytest.approx([-1.0, 1.0])

    def test_no_common_root(self):
        eta = np.zeros((3, 2))
        eta[0, 0] = 1.0  # coordinate 1 is the constant 1
        eta[1, 1] = 1.0
        assert len(lambda_set(eta)) == 0

    def test_common_root(self):
        # z^2 - 1 and z^2 - 3z + 2 share only z = 1
        eta = np.array([[-1.0, 2.0], [0.0, -3.0], [1.0, 1.0]])
        rs = lambda_set(eta)
        assert len(rs) == 1
        assert rs.distance(1.0) < 1e-10

    def test_zero_eta_rejected(self):
        with pytest.raises(ValidationError):
            lambda_set(np.zeros((3, 2)))

    def test_members_annihilate_probes_do_not(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k, m = rng.integers(2, 6), rng.integers(1, 3)
            eta = rng.standard_normal((k, m))
            rs = lambda_set(eta)
            scale = np.abs(eta).max()
            for lam in rs.roots:
                val = sum(lam ** i * eta[i] for i in range(k))
                bound = 1e-6 * scale * max(1.0, abs(lam)) ** (k - 1)
                assert np.linalg.norm(val) <= bound
            probes = rng.standard_normal(100) + 1j * rng.standard_normal(100)
            for mu in probes:
                if rs.distance(mu) > rs.cluster_radius:
                    val = sum(mu ** i * eta[i] for i in range(k))
                    assert np.linalg.norm(val) > 0.0

    def test_cluster_invariant(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            eta = rng.standard_normal(rng.integers(2, 7))
            rs = lambda_set(eta, cluster_radius=1e-3)
            roots = rs.roots
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    assert abs(roots[i] - roots[j]) > 1e-3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peu import (
    RTOL,
    ValidationError,
    kernel_basis,
    lambda_set,
    rank_report,
)
from peu.numkit import stacked_deficient
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


class TestStackedDeficient:
    @staticmethod
    def random_case(rng, r, c, N=24):
        """A random r x c matrix M (full rank, deficient, zero or tiny) and N rows to stack on it.

        The rows mix random vectors, vectors in M's row space, tiny and zero rows.
        """
        M = rng.standard_normal((r, c))
        kind = int(rng.integers(4))
        if kind == 1:
            k = int(rng.integers(0, min(r, c)))
            M = rng.standard_normal((r, k)) @ rng.standard_normal((k, c))
        elif kind == 2:
            M[:] = 0.0
        elif kind == 3:
            M *= 1e-12
        X = rng.standard_normal((N, c))
        X[1::4] = rng.standard_normal((len(X[1::4]), r)) @ M
        X[2::4] *= 1e-12
        X[3::8] = 0.0
        return M, X

    @staticmethod
    def stack_rank(M, x, rtol=RTOL):
        return rank_report(np.vstack([M, x]), rtol).rank

    def test_agrees_with_rank_report(self):
        # one-sided: a row decided deficient never has a full-rank stack; rows in
        # M's row space and zero rows are always decided deficient
        rng = np.random.default_rng(41)
        decided = {True: 0, False: 0}
        for r, c in [(1, 1), (3, 4), (4, 3), (5, 5), (7, 1), (1, 6), (4, 9), (10, 14)]:
            for rtol in (RTOL, 1e-3):
                for _ in range(6):
                    M, X = self.random_case(rng, r, c)
                    flags = stacked_deficient(M, X, rtol)
                    assert flags.shape == (len(X),) and flags.dtype == bool
                    assert flags[1::4].all() and flags[3::8].all()
                    for x, flag in zip(X, flags):
                        decided[bool(flag)] += 1
                        if flag:
                            assert self.stack_rank(M, x, rtol) <= r
        assert min(decided.values()) > 100  # both answers are exercised

    def test_near_tolerance(self):
        # rows 0.5x and 2x the tolerance off a full-rank M's row space
        rng = np.random.default_rng(53)
        for r, c in [(1, 3), (3, 5), (6, 7), (8, 20)]:
            M = rng.standard_normal((r, c))
            vh = np.linalg.svd(M)[2]
            inside, normal = rng.standard_normal(r) @ M, vh[-1]
            smax = np.linalg.norm(M, 2)
            tol = RTOL * max(r + 1, c) * max(smax, np.linalg.norm(inside))
            X = np.array([inside + f * tol * normal for f in (0.5, 2.0)])
            assert stacked_deficient(M, X).tolist() == [True, False]
            assert self.stack_rank(M, X[0]) <= r

    def test_scale_invariant(self):
        # no norm over- or underflows, so scaling M and X together changes no answer
        rng = np.random.default_rng(71)
        M = rng.standard_normal((3, 6))
        normal = np.linalg.svd(M)[2][-1]
        inside = rng.standard_normal((4, 3)) @ M
        X = np.vstack([inside, inside + 1e-12 * normal, inside + 1e-6 * normal,
                       rng.standard_normal((4, 6))])
        flags = stacked_deficient(M, X)
        assert flags.tolist() == [True] * 8 + [False] * 8
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for scale in (1e-300, 1e-170, 1e170, 1e300):
                assert stacked_deficient(scale * M, scale * X).tolist() == flags.tolist()
                assert stacked_deficient(M, scale * X[:1]).tolist() == [True]

    def test_deficient_matrix_verifies_every_row(self):
        rng = np.random.default_rng(61)
        for r, c in [(3, 8), (5, 6), (2, 2)]:
            M = rng.standard_normal((r, r - 1)) @ rng.standard_normal((r - 1, c))
            X = rng.standard_normal((10, c))
            assert stacked_deficient(M, X).all()
            assert all(self.stack_rank(M, x) <= r for x in X)

    def test_shapes(self):
        rng = np.random.default_rng(67)
        X = rng.standard_normal((5, 3))
        # cols <= rows: a stack of rows + 1 > cols rows is always deficient
        for M in (rng.standard_normal((3, 3)), rng.standard_normal((6, 3)), np.zeros((2, 3))):
            assert stacked_deficient(M, X).tolist() == [True] * 5
        # zero rows in M: the stack is x alone, deficient only where x = 0
        X[2] = 0.0
        assert stacked_deficient(np.zeros((0, 3)), X).tolist() == [i == 2 for i in range(5)] == [
            self.stack_rank(np.zeros((0, 3)), x) < 1 for x in X]
        # zero rows in X, and no columns at all
        assert stacked_deficient(np.eye(3), np.zeros((0, 3))).shape == (0,)
        assert stacked_deficient(np.zeros((2, 0)), np.zeros((4, 0))).tolist() == [True] * 4
        assert stacked_deficient(np.zeros((0, 0)), np.zeros((1, 0))).tolist() == [True]

    def test_rejects(self):
        M, X = np.ones((2, 3)), np.ones((4, 3))
        bad_M, bad_X = M.copy(), X.copy()
        bad_M[1, 2] = bad_X[3, 0] = np.inf
        for args in ((bad_M, X), (M, bad_X)):
            with pytest.raises(ValidationError, match="matrix contains non-finite entries"):
                stacked_deficient(*args)
        with pytest.raises(ValidationError, match="rtol"):
            stacked_deficient(M, X, rtol=0.0)


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

    def test_no_entries(self):
        # a 0-row M has every vector in its kernel; a 0-column M has no kernel
        np.testing.assert_array_equal(kernel_basis(np.zeros((0, 3))), np.eye(3))
        assert kernel_basis(np.zeros((3, 0))).shape == (0, 0)

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


@pytest.mark.parametrize("rtol", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("decide", [
    rank_report,
    lambda M, rtol: stacked_deficient(M, M, rtol),
    kernel_basis,
], ids=["rank_report", "stacked_deficient", "kernel_basis"])
def test_rtol_must_be_positive_and_finite(decide, rtol):
    # NaN fails every comparison, so a bare ``rtol <= 0`` test would let it
    # through and every singular value would count as zero
    with pytest.raises(ValidationError, match="rtol must be positive and finite"):
        decide(np.eye(3), rtol)


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

    def test_stacked_deficient(self, monkeypatch):
        rng = np.random.default_rng(59)
        M = rng.standard_normal((3, 5))
        X = np.vstack([rng.standard_normal((12, 5)), rng.standard_normal((12, 3)) @ M])
        expected = stacked_deficient(M, X)
        calls = self.fail_on(monkeypatch, (3, 5))
        assert stacked_deficient(M, X).tolist() == expected.tolist() == [False] * 12 + [True] * 12
        assert calls == [(3, 5), (5, 3)]


class TestPolynomialRoots:
    # a 1-D eta is a single polynomial, so lambda_set's members are its roots

    def test_difference_of_squares(self):
        lam = lambda_set([-1.0, 0.0, 1.0])
        assert lam.margin(1.0) <= 1e-15 and lam.margin(-1.0) <= 1e-15
        assert not lam.contains(np.array([0.0, 1j, -1j, 2.0])).any()

    def test_recovers_integer_roots(self):
        roots = [-2, -1, 1, 3]
        lam = lambda_set(expand_from_roots(roots))
        for r in roots:
            assert lam.margin(float(r)) <= 1e-14
        assert not lam.contains(np.array([-4.0, -3.0, 0.0, 2.0, 4.0])).any()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValidationError):
            lambda_set([0.0, 0.0])

    def test_random_expansions(self):
        rng = np.random.default_rng(19)
        grid = np.arange(-4, 5)
        for _ in range(20):
            deg = rng.integers(1, 9)
            roots = rng.choice(grid, size=deg, replace=False)
            lam = lambda_set(expand_from_roots(roots))
            members = lam.contains(grid.astype(float))
            np.testing.assert_array_equal(members, np.isin(grid, roots))


class TestLambdaSet:
    def test_scalar_coordinates(self):
        lam = lambda_set(np.array([-1.0, 0.0, 1.0]))
        assert lam.contains(1.0) and lam.contains(-1.0)
        assert not lam.contains(0.0) and not lam.contains(1j)
        np.testing.assert_array_equal(lam.contains(np.array([-1.0, 0.5, 1.0])),
                                      [True, False, True])

    def test_no_common_root(self):
        eta = np.zeros((3, 2))
        eta[0, 0] = 1.0  # coordinate 1 is the constant 1
        eta[1, 1] = 1.0
        lam = lambda_set(eta)
        probes = np.array([0.0, 1.0, -1.0, 2.0, 1j, 3 - 4j])
        assert not lam.contains(probes).any()
        # ||eta||_F^2 = 2, so margin^2 = (1 + |z|^2) / (2 (1 + |z|^2 + |z|^4))
        r2 = np.abs(probes) ** 2
        np.testing.assert_allclose(lam.margin(probes),
                                   np.sqrt((1 + r2) / (2 * (1 + r2 + r2 ** 2))), rtol=1e-14)

    def test_common_root(self):
        # z^2 - 1 and z^2 - 3z + 2 share only z = 1
        eta = np.array([[-1.0, 2.0], [0.0, -3.0], [1.0, 1.0]])
        lam = lambda_set(eta)
        assert lam.contains(1.0)
        assert not lam.contains(np.array([-1.0, 2.0, 0.0])).any()

    def test_zero_eta_rejected(self):
        with pytest.raises(ValidationError):
            lambda_set(np.zeros((3, 2)))
        for bad in ([0.0, 0.0], [], [[np.nan]], np.zeros((2, 2, 2))):
            with pytest.raises(ValidationError):
                lambda_set(bad)

    def test_members_annihilate_probes_do_not(self):
        # companion-matrix roots of random scalar polynomials are members;
        # random complex probes are not
        rng = np.random.default_rng(23)
        for _ in range(10):
            eta = rng.standard_normal(int(rng.integers(2, 6)))
            lam = lambda_set(eta)
            roots = np.polynomial.polynomial.polyroots(eta)
            assert lam.contains(roots).all()
            probes = rng.standard_normal(100) + 1j * rng.standard_normal(100)
            assert not lam.contains(probes).any()

    def test_multiple_root(self):
        # a root of multiplicity 4 is found at rounding level, where
        # companion-matrix roots would scatter by about eps**(1/4) ~ 1e-4
        lam = lambda_set(expand_from_roots([1, 1, 1, 1, -2]))
        assert lam.margin(1.0) <= 1e-15
        assert lam.contains(-2.0)
        assert not lam.contains(1.1)
        assert lambda_set([0.0, 0.0, 1.0]).margin(0.0) == 0.0

    def test_constant_polynomial(self):
        lam = lambda_set([2.0])
        z = np.array([0.0, 1.0, -3.0, 1e300, 2j])
        np.testing.assert_array_equal(lam.margin(z), np.ones(5))

    def test_margin_reaches_one(self):
        # eta parallel to (1, z, z^2) meets the Cauchy-Schwarz bound; unclipped,
        # rounding puts this margin at 1 + 2.2e-16
        z = 0.21327155153435973
        lam = lambda_set([7.322015953741584, 1.5615777028138023, 0.3330400995205609])
        assert lam.margin(z) == 1.0

    def test_large_arguments_do_not_overflow(self):
        # z^2 + z - 12: the margin tends to |eta_2| / ||eta|| as |z| grows
        lam = lambda_set(expand_from_roots([3, -4]))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            margins = lam.margin(np.array([1e200, -1e300, 1e160j]))
        np.testing.assert_allclose(margins, 1 / np.sqrt(146), rtol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mult=st.dictionaries(st.integers(-4, 4), st.integers(1, 4), min_size=1),
           c_exp=st.floats(-8, 8), z=st.floats(-6, 6) | st.complex_numbers(max_magnitude=6))
    def test_roots_of_expansions(self, mult, c_exp, z):
        roots = [r for r, k in mult.items() for _ in range(k)]
        eta = np.array(expand_from_roots(roots))
        lam, scaled, rev = lambda_set(eta), lambda_set(10.0 ** c_exp * eta), lambda_set(eta[::-1])
        for r in mult:
            assert lam.contains(float(r))
        probes = np.array([*mult, z], dtype=complex)
        margins = lam.margin(probes)
        assert ((0.0 <= margins) & (margins <= 1.0)).all()
        np.testing.assert_allclose(scaled.margin(probes), margins, rtol=1e-9, atol=1e-14)
        if abs(z) >= 1e-3:  # 1/z stays finite
            assert rev.margin(1 / z) == pytest.approx(lam.margin(z), rel=1e-9, abs=1e-14)

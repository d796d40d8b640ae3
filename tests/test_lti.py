import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peu import (
    Signal,
    StateSpaceSystem,
    ValidationError,
    behavior_basis,
    construct_certificate,
    is_controllable,
    simulate,
)
from peu.lti import markov_toeplitz, observability_matrix
from peu.signals import stack

from conftest import random_controllable_system
from oracles import markov_toeplitz_loop, observability_loop, simulate_loop


class TestStateSpaceSystem:
    def test_dimension_checks(self):
        with pytest.raises(ValidationError):
            StateSpaceSystem(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
        sys = StateSpaceSystem.from_state_pair(np.eye(2), np.ones((2, 1)))
        assert sys.p == 2 and np.array_equal(sys.C, np.eye(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            StateSpaceSystem(np.array([[np.nan]]), np.ones((1, 1)),
                             np.ones((1, 1)), np.zeros((1, 1)))


class TestSimulate:
    def test_reference_construction_states(self, ex2_input, ex2_values, ex2_states):
        # B and x0 from the exact construction (printed values carry only
        # 4 decimals, which the state recursion would amplify ~500x).
        cert = construct_certificate(
            Signal(ex2_input), 3, 1,
            eta=ex2_values["eta"], A=ex2_values["A"], zeta=ex2_values["zeta"],
        )
        sys = cert.state_pair()
        traj = simulate(sys, cert.x0, Signal(ex2_input))
        np.testing.assert_allclose(traj.x.samples[:8], ex2_states, atol=1e-3)

    def test_zero_everything(self):
        sys = random_controllable_system(np.random.default_rng(1), 3, 2, 2)
        traj = simulate(sys, np.zeros(3), Signal(np.zeros((5, 2))))
        assert not traj.x.samples.any() and not traj.y.samples.any()

    def test_integrator(self):
        sys = StateSpaceSystem(np.eye(1), np.eye(1), np.eye(1), np.zeros((1, 1)))
        traj = simulate(sys, np.zeros(1), Signal(np.ones(6)))
        np.testing.assert_array_equal(traj.x.samples[:, 0], np.arange(7.0))

    def test_recursion_residual(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n, m, p = rng.integers(1, 5), rng.integers(1, 3), rng.integers(1, 3)
            sys = random_controllable_system(rng, n, m, p)
            u = Signal(rng.standard_normal((8, m)))
            traj = simulate(sys, rng.standard_normal(n), u)
            x = traj.x.samples
            resid = max(
                np.linalg.norm(x[t + 1] - sys.A @ x[t] - sys.B @ u.samples[t])
                for t in range(u.length)
            )
            assert resid <= 1e-10 * (1.0 + np.abs(x).max())

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 3), p=st.integers(1, 3), T=st.integers(1, 300),
           rho=st.floats(0.5, 1.5), zero_d=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=8, m=3, p=3, T=300, rho=1.5, zero_d=False, seed=0)
    @example(n=1, m=1, p=1, T=1, rho=0.5, zero_d=True, seed=1)
    def test_matches_step_loop(self, n, m, p, T, rho, zero_d, seed):
        # bit for bit, stable and unstable A (rho^T reaches 1e52), D zero or not
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A *= rho / float(np.abs(np.linalg.eigvals(A)).max())
        D = np.zeros((p, m)) if zero_d else rng.standard_normal((p, m))
        sys = StateSpaceSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), D)
        x0, u = rng.standard_normal(n), rng.standard_normal((T, m))
        traj = simulate(sys, x0, Signal(u))
        x, y = simulate_loop(sys, x0, u)
        assert np.array_equal(traj.x.samples, x) and np.array_equal(traj.y.samples, y)

    def test_dimension_mismatch(self):
        sys = StateSpaceSystem.from_state_pair(np.eye(2), np.ones((2, 1)))
        with pytest.raises(ValidationError):
            simulate(sys, np.zeros(3), Signal(np.ones(4)))
        with pytest.raises(ValidationError):
            simulate(sys, np.zeros(2), Signal(np.ones((4, 2))))


class TestControllability:
    def test_shift_register_pair(self, ex1_system):
        ok, rep = is_controllable(ex1_system.A, ex1_system.B)
        assert ok and rep.rank == 2

    def test_repeated_eigenvalue(self):
        ok, rep = is_controllable(np.eye(2), np.array([[1.0], [0.0]]))
        assert not ok and rep.rank == 1

    def test_reference_pair(self, ex2_values):
        ok, _ = is_controllable(ex2_values["A"], ex2_values["zeta"].reshape(-1, 1))
        assert ok

    def test_large_state_scaling(self):
        # spectral radius 3 with n = 8: Kalman blocks would reach 3^7, but
        # the PBH test forms no power of A
        A = np.diag(np.linspace(-3.0, 3.0, 8))
        B = np.ones((8, 1))
        ok, _ = is_controllable(A, B)
        assert ok  # well-separated eigenvalues, nonzero B entries
        ok, _ = is_controllable(A, np.vstack([np.zeros((1, 1)), np.ones((7, 1))]))
        assert not ok  # first mode unreachable

    def test_jordan_pairs(self):
        # (J(lambda0), e_n) is controllable for every lambda0; the Kalman
        # rank test refused 140 of these 280 pairs (|lambda0| >= 1/2, large n)
        for n in range(1, 41):
            e_n = np.eye(n)[:, -1:]
            for lam0 in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
                A = lam0 * np.eye(n) + np.eye(n, k=1)
                ok, rep = is_controllable(A, e_n)
                assert ok and rep.rank == n, (n, lam0)
                assert not is_controllable(A, np.eye(n)[:, :1])[0] or n == 1

    def test_complex_eigenvalues(self):
        # a rotation has eigenvalues exp(+-i theta); one input reaches it,
        # but not two copies of it, nor a real mode the input misses
        c, s = np.cos(0.7), np.sin(0.7)
        R = np.array([[c, -s], [s, c]])
        ok, rep = is_controllable(R, np.array([[1.0], [0.0]]))
        assert ok and rep.shape == (4, 6) and rep.rank == 4
        two = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), R]])
        ok, rep = is_controllable(two, np.array([[1.0], [0.0], [1.0], [0.0]]))
        assert not ok and rep.rank == 6  # 2n = 8 needed at exp(i theta)
        assert is_controllable(two, np.eye(4)[:, ::2])[0]
        A = np.zeros((3, 3))
        A[:2, :2], A[2, 2] = R, 0.5
        assert is_controllable(A, np.array([[1.0], [0.0], [1.0]]))[0]
        assert not is_controllable(A, np.array([[0.0], [0.0], [1.0]]))[0]
        assert not is_controllable(A, np.array([[1.0], [0.0], [0.0]]))[0]

    def test_similarity_invariance(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n, m = rng.integers(2, 6), rng.integers(1, 3)
            sys = random_controllable_system(rng, n, m, 1)
            while True:
                T = rng.standard_normal((n, n))
                if np.linalg.cond(T) <= 1e3:
                    break
            Ti = np.linalg.inv(T)
            ok1, _ = is_controllable(sys.A, sys.B)
            ok2, _ = is_controllable(T @ sys.A @ Ti, T @ sys.B)
            assert ok1 == ok2 == True  # noqa: E712

    def test_row_shaped_input_matrix_rejected(self):
        # B must have n rows; a (1, n) row is not read as its transpose
        for n in (2, 3):
            A, B = np.eye(n), np.ones((1, n))
            with pytest.raises(ValidationError):
                is_controllable(A, B)
            with pytest.raises(ValidationError):
                StateSpaceSystem.from_state_pair(A, B)

    @pytest.mark.parametrize("check", [is_controllable, StateSpaceSystem.from_state_pair])
    def test_non_square_state_matrix_rejected(self, check):
        # one validation for every (A, B) consumer: no numpy matmul error leaks out
        with pytest.raises(ValidationError, match="A must be square"):
            check(np.ones((2, 3)), np.ones((2, 1)))


def _random_system(seed, n, m, p):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    return StateSpaceSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                            rng.standard_normal((p, m)))


class TestMarkovToeplitz:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 5), m=st.integers(1, 3), p=st.integers(1, 3), L=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, m=1, p=1, L=1, seed=0)
    @example(n=3, m=1, p=1, L=9, seed=1)
    @example(n=2, m=3, p=2, L=1, seed=2)
    def test_matches_block_loop(self, n, m, p, L, seed):
        sys = _random_system(seed, n, m, p)
        assert np.all(sys.D != 0)  # the diagonal blocks are not left at zero by chance
        T = markov_toeplitz(sys, L)
        np.testing.assert_array_equal(T, markov_toeplitz_loop(sys, L))
        assert T.shape == (L * p, L * m) and T.flags.c_contiguous and T.flags.writeable

    def test_fill_allocates_only_the_result(self):
        # beyond the result, only O(L p m) memory: the Markov parameters and
        # their zero-padded row; a second array of the result's size fails
        n, m, p, L = 4, 2, 3, 300
        sys = _random_system(3, n, m, p)
        tracemalloc.start()
        try:
            T = markov_toeplitz(sys, L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra = peak - T.nbytes
        assert 0 <= extra <= 32 * (L * p * m * T.itemsize) < T.nbytes // 2


class TestObservabilityMatrix:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 6), p=st.integers(1, 3), L=st.integers(1, 150),
           rho=st.floats(0.5, 1.05), seed=st.integers(0, 2**32 - 1))
    @example(n=3, p=2, L=1, rho=0.9, seed=0)
    @example(n=4, p=1, L=129, rho=1.05, seed=1)
    def test_doubling_matches_product_loop(self, n, p, L, rho, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A *= rho / float(np.abs(np.linalg.eigvals(A)).max())
        C = rng.standard_normal((p, n))
        O, ref = observability_matrix(C, A, L), observability_loop(C, A, L)
        assert O.shape == (L * p, n)
        np.testing.assert_array_equal(O[:2 * p], ref[:2 * p])  # C and CA: the same products
        # block row t to rounding, relative to the size of C A^t
        err = np.abs(O - ref).reshape(L, p * n).max(axis=1)
        size = np.abs(ref).reshape(L, p * n).max(axis=1)
        assert np.all(err <= 1e-10 * size)

    def test_free_states(self):
        # with C = x0^T and A^T the rows are (A^t x0)^T
        rng = np.random.default_rng(5)
        A, x0 = 0.3 * rng.standard_normal((4, 4)), rng.standard_normal(4)
        X = observability_matrix(x0, A.T, 20)
        x = [x0]
        for _ in range(19):
            x.append(A @ x[-1])
        np.testing.assert_allclose(X, np.array(x), rtol=1e-12, atol=1e-14)

    def test_unseen_unstable_mode_stays_finite(self):
        # A^1024 overflows, C A^t does not: the doubling stops at the last
        # finite power instead of multiplying 0 by inf
        A, C = np.diag([2.0, 0.5]), np.array([[0.0, 1.0]])
        O = observability_matrix(C, A, 2100)
        np.testing.assert_array_equal(O, observability_loop(C, A, 2100))

    def test_doubling_keeps_no_stack_of_powers(self):
        # beyond the result: one n x n power at a time, not T of them
        n, p, L = 3, 2, 10_000
        sys = _random_system(4, n, 1, p)
        tracemalloc.start()
        try:
            O = observability_matrix(sys.C, sys.A, L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 <= peak - O.nbytes <= 64 * n * n * O.itemsize < L * n * n * O.itemsize // 100


class TestBehaviorBasis:
    def test_two_state_single_output(self, ex1_system):
        bb = behavior_basis(ex1_system, 1)
        assert bb.dim == 2
        assert bb.basis.shape == (2, 3)
        # column span must be all of R^2
        assert np.linalg.matrix_rank(bb.basis) == 2

    def test_zero_output_maps(self):
        sys = StateSpaceSystem(np.eye(3) * 0.5, np.ones((3, 2)),
                               np.zeros((2, 3)), np.zeros((2, 2)))
        for L in (1, 2, 4):
            assert behavior_basis(sys, L).dim == L * 2

    def test_observable_siso(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            sys = random_controllable_system(rng, 3, 1, 1)
            O4 = observability_matrix(sys.C, sys.A, 4)
            if np.linalg.matrix_rank(O4) != 3:
                continue  # non-observable draw (measure zero)
            assert behavior_basis(sys, 4).dim == 7

    def test_block_layout(self):
        rng = np.random.default_rng(67)
        sys = random_controllable_system(rng, 2, 2, 2)
        L = 3
        bb = behavior_basis(sys, L)
        Lm = L * sys.m
        np.testing.assert_array_equal(bb.basis[:Lm, :Lm], np.eye(Lm))
        np.testing.assert_array_equal(bb.basis[:Lm, Lm:], 0.0)
        np.testing.assert_array_equal(bb.basis[Lm:, Lm:],
                                      observability_matrix(sys.C, sys.A, L))
        np.testing.assert_array_equal(bb.basis[Lm:, :Lm], markov_toeplitz(sys, L))

    def test_dim_bound(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n, m, p = rng.integers(1, 5), rng.integers(1, 3), rng.integers(1, 3)
            L = int(rng.integers(1, 5))
            sys = random_controllable_system(rng, n, m, p)
            bb = behavior_basis(sys, L)
            O = observability_matrix(sys.C, sys.A, L)
            assert bb.dim <= L * m + n
            assert (bb.dim == L * m + n) == (np.linalg.matrix_rank(O) == n)

    def test_simulated_windows_live_in_span(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n, m, p = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3)
            L = int(rng.integers(1, 4))
            sys = random_controllable_system(rng, n, m, p)
            T = L + int(rng.integers(0, 4))
            traj = simulate(sys, rng.standard_normal(n), Signal(rng.standard_normal((T, m))))
            window = np.concatenate([
                stack(traj.u.window(0, L)), stack(traj.y.window(0, L))
            ])
            basis = behavior_basis(sys, L).basis
            coeffs, *_ = np.linalg.lstsq(basis, window, rcond=None)
            resid = np.linalg.norm(basis @ coeffs - window)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(window))


@pytest.mark.parametrize("A, B, C, D, message", [
    (np.eye(2), np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)), "C must be px2"),
    (np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 1)), "D must be 1x1"),
    (np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 2)), "D must be 1x1"),
    (np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)), "A must be square"),
    (np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)), "B must be 2xm"),
], ids=["C-columns", "D-rows", "D-columns", "A-square", "B-rows"])
def test_refused_system_shapes(A, B, C, D, message):
    with pytest.raises(ValidationError, match=message):
        StateSpaceSystem(A, B, C, D)

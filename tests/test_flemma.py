import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peu import (
    NotATrajectoryError,
    Signal,
    StateSpaceSystem,
    ValidationError,
    check_behavior_equality,
    check_rank_condition,
    construct_certificate,
    is_pe,
    pe_order,
    simulate,
    universality_verdict,
)
from peu.flemma import _reconstruct_state

from conftest import non_exciting_input, random_controllable_system
from oracles import reconstruct_x0_dense, simulate_loop


class TestCheckRankCondition:
    def test_exciting_input_full_rank(self):
        rng = np.random.default_rng(79)
        sys = random_controllable_system(rng, 2, 1, 1)
        u = Signal(rng.standard_normal(8))
        assert is_pe(u, 4)[0]
        traj = simulate(sys, rng.standard_normal(2), u)
        rep = check_rank_condition(u, Signal(traj.x.samples[:7]), 2, 2)
        assert rep.full_row_rank and rep.rank == 4  # n + L*m

    def test_reference_construction_rank_deficient(self, ex2_input, ex2_values):
        cert = construct_certificate(
            Signal(ex2_input), 3, 1,
            eta=ex2_values["eta"], A=ex2_values["A"], zeta=ex2_values["zeta"],
        )
        rep = check_rank_condition(Signal(ex2_input), Signal(cert.states), 1, 3)
        assert rep.rank == 4 < 5

    def test_scalar_family_member_rank_deficient(self, ex3_input, ex3_reddot):
        from peu import sample_system_cloud

        u = Signal(ex3_input)
        a, L = ex3_reddot["a"], ex3_reddot["L"]
        cloud = sample_system_cloud(u, L, [[a, 1.0]])
        pt = cloud.points[0]
        d = pt.b
        zeta_star = float(np.asarray(ex3_reddot["b"]) @ d / (d @ d))
        x = [zeta_star * pt.x0]
        for t in range(u.length - L):
            x.append(a * x[-1] + float(zeta_star * d @ u.samples[t]))
        rep = check_rank_condition(u, Signal(np.asarray(x)), L, 1)
        assert rep.rank == 4 < 5
        # the published triple carries 4 decimals; at that resolution the
        # same deficiency is visible
        xp = [ex3_reddot["x0"]]
        for t in range(u.length - L):
            xp.append(a * xp[-1] + float(np.asarray(ex3_reddot["b"]) @ u.samples[t]))
        rep_p = check_rank_condition(u, Signal(np.asarray(xp)), L, 1, rtol=1e-4)
        assert rep_p.rank == 4

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            check_rank_condition(Signal(np.ones(5)), Signal(np.ones((3, 1))), 2, 1)


class TestCheckBehaviorEquality:
    def test_two_state_example(self, ex1_system):
        rng = np.random.default_rng(83)
        u = Signal(np.array([1.0, 0.0, 0.0]))
        for _ in range(5):
            traj = simulate(ex1_system, rng.standard_normal(2), u)
            check = check_behavior_equality(ex1_system, u, traj.y, 1)
            assert check.behavior_equal
            assert check.data_span_dim == check.behavior_dim == 2

    def test_exciting_input_spans_behavior(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            n, m, p = (int(x) for x in rng.integers(1, 4, size=3))
            L = int(rng.integers(1, 4))
            sys = random_controllable_system(rng, n, m, p)
            T = (n + L) * (m + 1) - 1
            u = Signal(rng.standard_normal((T, m)))
            if not is_pe(u, n + L)[0]:
                continue
            traj = simulate(sys, rng.standard_normal(n), u)
            check = check_behavior_equality(sys, u, traj.y, L)
            assert check.behavior_equal
            assert check.rank_condition.rank == n + L * m

    def test_resting_system_sees_nothing(self):
        sys = random_controllable_system(np.random.default_rng(97), 2, 1, 1)
        u = Signal(np.zeros(6))
        traj = simulate(sys, np.zeros(2), u)
        check = check_behavior_equality(sys, u, traj.y, 2)
        assert not check.behavior_equal
        assert check.data_span_dim == 0 < check.behavior_dim

    def test_rejects_non_trajectory(self):
        rng = np.random.default_rng(101)
        sys = random_controllable_system(rng, 2, 1, 1)
        u = Signal(rng.standard_normal(6))
        garbage = Signal(rng.standard_normal(6) + 5.0)
        with pytest.raises(NotATrajectoryError):
            check_behavior_equality(sys, u, garbage, 2)

    def test_full_window_degenerate(self):
        # L = T: single-column Hankel matrices, everything stays defined
        rng = np.random.default_rng(127)
        sys = random_controllable_system(rng, 2, 1, 1)
        u = Signal(rng.standard_normal(4))
        traj = simulate(sys, rng.standard_normal(2), u)
        check = check_behavior_equality(sys, u, traj.y, 4)
        assert check.data_span_dim == 1
        assert not check.behavior_equal

    def test_unobservable_pair_still_validates(self):
        # C = 0 gives y = D u for every state; any zero output is a trajectory
        sys = StateSpaceSystem(np.eye(2) * 0.5, np.ones((2, 1)),
                               np.zeros((1, 2)), np.zeros((1, 1)))
        u = Signal(np.random.default_rng(3).standard_normal(6))
        check = check_behavior_equality(sys, u, Signal(np.zeros(6)), 2)
        assert check.behavior_dim == 2  # rank(O_L) = 0
        assert check.behavior_equal == (check.data_span_dim == 2)


class TestTrajectoryReconstruction:
    """States from one forced recursion plus the doubled O_T and free states."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 5), m=st.integers(1, 3), p=st.integers(1, 3),
           extra=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    @example(n=5, m=1, p=1, extra=0, seed=0)
    def test_matches_dense_method(self, n, m, p, extra, seed):
        rng = np.random.default_rng(seed)
        sys = random_controllable_system(rng, n, m, p)
        u = rng.standard_normal((n + extra, m))
        traj = simulate(sys, rng.standard_normal(n), Signal(u))
        x = _reconstruct_state(sys, traj.u, traj.y)
        x0 = reconstruct_x0_dense(sys, u, traj.y.samples)
        assert np.linalg.norm(x[0] - x0) <= 1e-10 * np.linalg.norm(x0)
        # the states are the recursion from x(0), to rounding
        np.testing.assert_allclose(x, simulate_loop(sys, x[0], u)[0],
                                   rtol=0, atol=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_non_trajectory_rejected_at_every_scale(self, scale):
        # the misfit bound is relative only: small garbage is still garbage
        rng = np.random.default_rng(131)
        sys = random_controllable_system(rng, 3, 2, 2)
        u = Signal(scale * rng.standard_normal((40, 2)))
        y = Signal(scale * rng.standard_normal((40, 2)))
        with pytest.raises(NotATrajectoryError):
            check_behavior_equality(sys, u, y, 2)
        traj = simulate(sys, scale * rng.standard_normal(3), u)
        assert check_behavior_equality(sys, u, traj.y, 2).behavior_equal

    def test_check_memory_is_linear_in_T(self):
        # a dense (Tp)x(Tm) Toeplitz would be 128 MB here; the O(T) check
        # holds a few arrays of T rows
        rng = np.random.default_rng(137)
        sys = random_controllable_system(rng, 3, 2, 2)
        u = Signal(rng.standard_normal((2000, 2)))
        y = simulate(sys, rng.standard_normal(3), u).y
        tracemalloc.start()
        try:
            check = check_behavior_equality(sys, u, y, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.behavior_equal
        assert peak <= 4 * 2**20


class TestSimilarityInvariance:
    """x -> S^-1 x changes no verdict, data span or behavior dimension."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["gauss", "short", "zero"]),
           n=st.integers(1, 4), m=st.integers(1, 2), p=st.integers(1, 2), L=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_check_verdict_and_dims(self, kind, n, m, p, L, seed):
        rng = np.random.default_rng(seed)
        sys = random_controllable_system(rng, n, m, p)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = Q * rng.uniform(0.5, 2.0, n)
        Si = np.linalg.inv(S)
        similar = StateSpaceSystem(Si @ sys.A @ S, Si @ sys.B, sys.C @ S, sys.D)
        T_min = (n + L) * (m + 1) - 1  # shortest length that can excite order n+L
        T = int(rng.integers(L, T_min)) if kind == "short" else T_min + int(rng.integers(0, 30))
        u = Signal(np.zeros((T, m)) if kind == "zero" else rng.standard_normal((T, m)))
        y = simulate(sys, rng.standard_normal(n), u).y
        a = check_behavior_equality(sys, u, y, L)
        b = check_behavior_equality(similar, u, y, L)
        assert (a.behavior_equal, a.data_span_dim, a.behavior_dim) == \
            (b.behavior_equal, b.data_span_dim, b.behavior_dim)
        assert a.rank_condition.rank == b.rank_condition.rank


class TestCheckStateRank:
    """The state-rank corollary: ``check_rank_condition`` at L = 0 reads H_1(x(0)..x(T))."""

    def test_exciting_input_full_state_rank(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            sys = random_controllable_system(rng, n, m, 1)
            T = n * (m + 1) - 1 + 1
            u = Signal(rng.standard_normal((T, m)))
            if not is_pe(u.window(0, T - 1) if T > 1 else u, n)[0]:
                continue
            traj = simulate(sys, rng.standard_normal(n), u.window(0, T - 1))
            rep = check_rank_condition(u.window(0, T - 1), traj.x, 0, n)
            assert rep.full_row_rank

    def test_zero_states(self):
        rep = check_rank_condition(Signal(np.ones(4)), Signal(np.zeros((5, 2))), 0, 2)
        assert rep.rank == 0

    def test_depth_zero_certificate_states(self):
        rng = np.random.default_rng(107)
        u, _ = non_exciting_input(rng, 2, 1, 0, 6)
        cert = construct_certificate(u, 2, 0)
        rep = check_rank_condition(u, Signal(cert.states), 0, 2)
        assert rep.rank < 2


class TestUniversalityVerdict:
    def test_impulse_not_universal(self):
        verdict = universality_verdict(Signal(np.array([1.0, 0.0, 0.0])), 2, 1)
        assert not verdict.universal
        assert verdict.pe_order_needed == 3
        cert = verdict.counterexample
        assert cert is not None and cert.rank_deficit_confirmed
        assert cert.residual_annihilation <= 1e-7 * (1 + np.abs(cert.states).max()) * 3

    def test_exciting_input_universal(self):
        rng = np.random.default_rng(109)
        u = Signal(rng.standard_normal((11, 2)))
        verdict = universality_verdict(u, 2, 2)
        assert verdict.universal and verdict.counterexample is None

    def test_zero_input_not_universal(self):
        verdict = universality_verdict(Signal(np.zeros((8, 1))), 2, 2)
        assert not verdict.universal
        assert verdict.counterexample.rank_deficit_confirmed

    def test_scale_invariance(self):
        rng = np.random.default_rng(113)
        for _ in range(5):
            u = rng.standard_normal((9, 1))
            n, L = 2, 2
            for c in (1.0, -3.7, 1e-4, 250.0):
                v1 = universality_verdict(Signal(u), n, L)
                v2 = universality_verdict(Signal(c * u), n, L)
                assert v1.universal == v2.universal

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            universality_verdict(Signal(np.ones(3)), 0, 1)
        with pytest.raises(ValidationError):
            universality_verdict(Signal(np.ones(3)), 1, 4)


def _scan_case(kind, n, L, m, seed):
    """An input of the given kind; "short" ones have fewer than n+L scannable orders."""
    rng = np.random.default_rng(seed)
    T_min = (n + L) * (m + 1) - 1  # shortest length that can excite order n+L
    if kind == "short":
        return rng.standard_normal((int(rng.integers(L, T_min)), m))
    T = T_min + int(rng.integers(0, 40))
    if kind == "gauss":
        return rng.standard_normal((T, m))
    if kind == "zero":
        return np.zeros((T, m))
    # q shared tones bound every Hankel rank by 2q, below the (n+L)m rows
    # of H_{n+L}(u) except at n = L = m = 1
    q = int(rng.integers(1, max(1, ((n + L) * m - 1) // 2) + 1))
    t = np.arange(T)[:, None]
    freqs = rng.uniform(0.2, 3.0, q)
    amps = rng.standard_normal((q, m))
    phases = rng.uniform(0.0, 2 * np.pi, (q, m))
    return sum(amps[j] * np.sin(freqs[j] * t + phases[j]) for j in range(q))


class TestPrefixScan:
    """The verdict's n+L-order scan agrees with the full PE-order scan."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["gauss", "multisine", "zero", "short"]),
           n=st.integers(1, 4), L=st.integers(1, 3), m=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_prefix_of_full_scan(self, kind, n, L, m, seed):
        u = Signal(_scan_case(kind, n, L, m, seed))
        full = pe_order(u)
        verdict = universality_verdict(u, n, L)
        assert verdict.universal == (full.max_order >= n + L)
        cap = (u.length + 1) // (m + 1)
        assert ([(k, r.to_dict()) for k, r in verdict.pe_report.per_order]
                == [(k, r.to_dict()) for k, r in full.per_order[:min(n + L, cap)]])
        assert verdict.pe_report.max_order == min(full.max_order, n + L)


_U6 = Signal(np.arange(6.0))
_SYS = StateSpaceSystem(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: check_rank_condition(_U6, np.zeros((8, 2)), -1, 2), "L=-1 out of range [0, 6]"),
    (lambda: check_rank_condition(_U6, np.zeros((5, 3)), 2, 2), "state dim 3 does not match n=2"),
    (lambda: check_rank_condition(_U6, np.zeros((6, 2)), 2, 2),
     "state length 6 must equal T-L+1 = 5"),
    (lambda: check_behavior_equality(_SYS, np.ones((6, 2)), np.ones(6), 1),
     "data dimensions do not match the system"),
    (lambda: check_behavior_equality(_SYS, _U6, np.ones(5), 1),
     "input and output must have the same length"),
    (lambda: check_behavior_equality(_SYS, _U6, np.ones(6), 7), "L=7 out of range [1, 6]"),
    (lambda: check_rank_condition(_U6, np.zeros((7, 3)), 0, 2), "state dim 3 does not match n=2"),
    (lambda: check_rank_condition(_U6, np.zeros((6, 2)), 0, 2),
     "state length 6 must equal T-L+1 = 7"),
    (lambda: universality_verdict(_U6, 2, 0), "L=0 out of range [1, 6]"),
    (lambda: universality_verdict(_U6, 0, 1), "n must be positive"),
], ids=["rank-L", "rank-state-dim", "rank-state-length", "behavior-data-dim",
        "behavior-length", "behavior-L", "state-rank-dim", "state-rank-length",
        "universal-L", "universal-n"])
def test_refused_arguments(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert message in str(info.value)

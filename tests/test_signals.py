import numpy as np
import pytest

from peu import Signal, ValidationError, hankel, is_pe, pe_order, stack


class TestSignal:
    def test_one_dim_promotes(self):
        v = Signal(np.array([1.0, 2.0, 3.0]))
        assert v.dim == 1 and v.length == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Signal(np.array([1.0, np.inf]))

    def test_immutable(self):
        v = Signal(np.ones((2, 2)))
        with pytest.raises(ValueError):
            v.samples[0, 0] = 5.0

    def test_window(self):
        v = Signal(np.arange(10.0))
        assert v.window(2, 5).samples[:, 0].tolist() == [2.0, 3.0, 4.0]
        with pytest.raises(ValidationError):
            v.window(5, 5)


class TestStack:
    def test_scalar_signal(self):
        assert stack(Signal(np.array([1.0, 2.0]))).tolist() == [1.0, 2.0]

    def test_vector_signal(self):
        v = Signal(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert stack(v).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_reference_input(self, ex2_input):
        col = stack(Signal(ex2_input))
        assert col.shape == (16,)
        assert col[:4].tolist() == [-0.46, 1.86, -1.09, -0.87]


class TestHankel:
    def test_depth_two(self):
        H = hankel(Signal(np.array([1.0, 2.0, 3.0])), 2)
        assert H.tolist() == [[1.0, 2.0], [2.0, 3.0]]

    def test_depth_one_row(self):
        H = hankel(Signal(np.array([1.0, 0.0, 0.0])), 1)
        assert H.tolist() == [[1.0, 0.0, 0.0]]

    def test_block_structure(self, ex3_input):
        H = hankel(Signal(ex3_input), 2)
        assert H.shape == (4, 6)
        assert H[:, 0].tolist() == [-1.24, 0.67, 0.35, 0.7]

    def test_depth_out_of_range(self):
        with pytest.raises(ValidationError):
            hankel(Signal(np.ones(3)), 4)
        with pytest.raises(ValidationError):
            hankel(Signal(np.ones(3)), 0)

    def test_shape_and_overlap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T, d = rng.integers(2, 12), rng.integers(1, 4)
            k = int(rng.integers(1, T + 1))
            v = Signal(rng.standard_normal((T, d)))
            H = hankel(v, k)
            assert H.shape == (k * d, T - k + 1)
            for j in range(H.shape[1] - 1):
                # column j shifted down one block matches column j+1
                np.testing.assert_array_equal(H[d:, j], H[: (k - 1) * d, j + 1])


class TestPEOrder:
    def test_impulse(self):
        rep = pe_order(Signal(np.array([1.0, 0.0, 0.0])))
        assert rep.max_order == 1
        assert [k for k, _ in rep.per_order] == [1, 2]

    def test_reference_input_not_order_four(self, ex2_input):
        u = Signal(ex2_input)
        rep = pe_order(u)
        assert rep.max_order <= 3
        ok, _ = is_pe(u, 4)
        assert not ok

    def test_zero_signal(self):
        assert pe_order(Signal(np.zeros((6, 2)))).max_order == 0

    def test_scan_cap(self):
        rep = pe_order(Signal(np.ones((7, 1))))
        assert [k for k, _ in rep.per_order] == [1, 2, 3, 4]  # (7+1)//2

    def test_up_to_must_be_positive(self):
        with pytest.raises(ValidationError):
            pe_order(Signal(np.ones((7, 1))), up_to=0)

    def test_gaussian_signal_hits_expected_order(self):
        rng = np.random.default_rng(31)
        for dim in (1, 2, 3):
            for k in (1, 2, 3):
                T = k * (dim + 1) - 1
                rep = pe_order(Signal(rng.standard_normal((T, dim))))
                if rep.max_order != k:  # astronomically unlikely; retry once
                    rep = pe_order(Signal(rng.standard_normal((T, dim))))
                assert rep.max_order == k


class TestIsPE:
    def test_reference_input_order_three(self, ex3_input):
        ok, rep = is_pe(Signal(ex3_input), 3)
        assert not ok
        assert rep.shape == (6, 5)

    def test_gaussian_minimal_length(self):
        rng = np.random.default_rng(37)
        ok, _ = is_pe(Signal(rng.standard_normal((11, 2))), 4)
        assert ok  # T = (n+L)(m+1)-1 with n+L=4, m=2

    def test_impulse_order_one(self):
        ok, _ = is_pe(Signal(np.array([1.0, 0.0, 0.0])), 1)
        assert ok

    def test_monotone_in_order(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            T, d = int(rng.integers(3, 10)), int(rng.integers(1, 3))
            v = Signal(rng.standard_normal((T, d)) * rng.choice([0.0, 1.0], size=(T, d)))
            k_cap = (T + 1) // (d + 1)
            verdicts = [is_pe(v, k)[0] for k in range(1, k_cap + 1)]
            for lower, higher in zip(verdicts, verdicts[1:]):
                assert lower or not higher  # PE at k+1 implies PE at k

    def test_column_bound(self):
        rng = np.random.default_rng(43)
        for n, L, m in ((2, 1, 1), (1, 2, 2), (3, 2, 1)):
            T = (n + L) * (m + 1) - 2  # one sample short of the bound
            if T < n + L:
                continue
            v = Signal(rng.standard_normal((T, m)))
            ok, _ = is_pe(v, n + L)
            assert not ok

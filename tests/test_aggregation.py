"""Tests for dbafl.aggregation: scaling factor, async rule, defense, baselines."""

from fractions import Fraction

import numpy as np
import pytest

from dbafl import aggregation as agg


def _async_oracle(w_prev, w_local, eps):
    # exact rational recomputation of (w_prev + eps * w_local) / (1 + eps)
    e = Fraction(eps)
    return [float((Fraction(p) + e * Fraction(l)) / (1 + e)) for p, l in zip(w_prev, w_local)]


def test_scaling_factor_examples():
    assert agg.scaling_factor(0.5, 0.5) == 1.0
    assert abs(agg.scaling_factor(0.6, 0.4) - 1.5) < 1e-12
    assert agg.scaling_factor(0.005, 0.5) == 0.02  # numerator floored to 0.01


def test_scaling_factor_bounds_and_ratio_consistency():
    rng = np.random.default_rng(10)
    for _ in range(200):
        a, g = rng.uniform(0, 1, size=2)
        eps = agg.scaling_factor(a, g)
        assert 0.01 <= eps <= 100.0
        if a >= 0.01 and g >= 0.01 and 0.01 <= a / g <= 100.0:
            assert abs(eps * g - a) <= 1e-12
    assert agg.scaling_factor(0.0, 0.0) == 1.0  # both floored
    assert agg.scaling_factor(1.0, 0.0) == 100.0  # ceiling clamp
    assert agg.scaling_factor(0.0, 1.0) == 0.01  # floor clamp


def test_aggregate_async_examples():
    out = agg.aggregate_async(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 1.0)
    assert np.array_equal(out, [1.0, 2.0])
    out = agg.aggregate_async(np.array([4.0]), np.array([0.0]), 3.0)
    assert np.array_equal(out, [1.0])


def test_aggregate_async_matches_independent_recomputation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        w_prev = rng.normal(size=d)
        w_local = rng.normal(size=d)
        eps = float(rng.uniform(0.01, 100))
        got = agg.aggregate_async(w_prev, w_local, eps)
        expected = _async_oracle(w_prev, w_local, eps)
        assert np.max(np.abs(got - np.array(expected))) <= 1e-12


def test_aggregate_async_leaves_inputs_unmodified():
    w_prev = np.array([1.0, 2.0])
    w_local = np.array([3.0, 4.0])
    p, l = w_prev.copy(), w_local.copy()
    agg.aggregate_async(w_prev, w_local, 2.0)
    assert np.array_equal(w_prev, p) and np.array_equal(w_local, l)


def test_aggregate_async_dimension_mismatch():
    with pytest.raises(ValueError):
        agg.aggregate_async(np.zeros(2), np.zeros(3), 1.0)


def test_aggregate_async_convexity_and_monotone_influence():
    rng = np.random.default_rng(12)
    for _ in range(50):
        w_prev = rng.normal(size=4)
        w_local = rng.normal(size=4)
        lo = np.minimum(w_prev, w_local)
        hi = np.maximum(w_prev, w_local)
        prev_out = None
        for eps in [0.01, 0.1, 1.0, 10.0, 100.0]:
            out = agg.aggregate_async(w_prev, w_local, eps)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
            if prev_out is not None:
                differ = w_prev != w_local
                # larger eps pulls strictly closer to w_local wherever inputs differ
                assert np.all(
                    np.abs(w_local - out)[differ] < np.abs(w_local - prev_out)[differ]
                )
            prev_out = out


def test_aggregate_async_limits():
    w_prev = np.array([0.0, 8.0])
    w_local = np.array([4.0, 0.0])
    mid = agg.aggregate_async(w_prev, w_local, 1.0)
    assert np.array_equal(mid, (w_prev + w_local) / 2.0)
    near = agg.aggregate_async(w_prev, w_local, 100.0)
    assert np.max(np.abs(near - w_local)) <= np.max(np.abs(w_prev - w_local)) / 101 + 1e-12


def test_defense_filter():
    on = agg.DefensePolicy.threshold(0.9)
    assert agg.defense_filter(0.50, 0.50, on) is True
    assert agg.defense_filter(0.40, 0.50, on) is False
    # exact tie accepts: "below the threshold" discards strictly
    assert agg.defense_filter(0.45, 0.50, on) is True
    zero = agg.DefensePolicy.threshold(0.0)
    off = agg.DefensePolicy.off()
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, g = rng.uniform(0, 1, size=2)
        assert agg.defense_filter(a, g, zero) is True
        assert agg.defense_filter(a, g, off) is True
    with pytest.raises(ValueError):
        agg.DefensePolicy.threshold(1.5)


def test_aggregate_fedavg_examples():
    out = agg.aggregate_fedavg([np.array([0.0]), np.array([2.0])], [1, 1])
    assert np.array_equal(out, [1.0])
    out = agg.aggregate_fedavg([np.array([0.0]), np.array([4.0])], [3, 1])
    assert np.array_equal(out, [1.0])


def test_aggregate_fedavg_matches_bruteforce_weighted_sum():
    rng = np.random.default_rng(14)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        d = int(rng.integers(1, 6))
        models = [rng.normal(size=d) for _ in range(k)]
        sizes = [int(rng.integers(1, 500)) for _ in range(k)]
        got = agg.aggregate_fedavg(models, sizes)
        total = sum(sizes)
        expected = [
            float(sum(Fraction(m[i]) * s for m, s in zip(models, sizes)) / total)
            for i in range(d)
        ]
        assert np.max(np.abs(got - np.array(expected))) <= 1e-12


def test_aggregate_fedavg_errors():
    with pytest.raises(ValueError):
        agg.aggregate_fedavg([], [])
    with pytest.raises(ValueError):
        agg.aggregate_fedavg([np.zeros(2), np.zeros(3)], [1, 1])
    with pytest.raises(ValueError):
        agg.aggregate_fedavg([np.zeros(2)], [0])


def test_aggregate_static():
    # a static-epsilon baseline is aggregate_async with a configuration-fixed epsilon
    w_prev, w_local = np.array([3.0]), np.array([0.0])
    assert np.array_equal(agg.aggregate_async(w_prev, w_local, 0.5), [2.0])
    assert np.array_equal(agg.aggregate_async(np.array([0.0]), np.array([5.0]), 1.5), [3.0])
    rng = np.random.default_rng(15)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    assert np.array_equal(agg.aggregate_async(a, b, 1.0), (a + b) / 2)

"""Tests for dbafl.model: synthetic data, training, evaluation."""

import dataclasses
import errno
import functools
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dbafl import model


def _separable_by_lp(features, labels):
    """Brute-force linear-separator search: LP feasibility with margin 1.

    Strict separability of two classes is equivalent to feasibility of
    sign_i * (x_i . w + b) >= 1 for all i (any strict separator rescales
    to margin 1). Independent of the classifier under test.
    """
    n, f = features.shape
    sign = np.where(labels == 1, 1.0, -1.0)
    a_ub = -sign[:, None] * np.hstack([features, np.ones((n, 1))])
    res = linprog(
        c=np.zeros(f + 1),
        A_ub=a_ub,
        b_ub=-np.ones(n),
        bounds=[(None, None)] * (f + 1),
        method="highs",
    )
    return res.status == 0


def _numeric_grad(params, data, step=1e-6):
    """Central finite differences of local_loss, one coordinate at a time."""
    grad = np.zeros_like(params)
    stack = model.DataStack([data])
    for i in range(len(params)):
        up = params.copy()
        dn = params.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (model.local_loss(up, stack)[0] - model.local_loss(dn, stack)[0]) / (2 * step)
    return grad


def _separable_data():
    return model.generate_synthetic_dataset(seed=7, n=200, f=2, classes=2, separation=6.0)


def test_generate_is_deterministic():
    a = model.generate_synthetic_dataset(seed=7, n=120, f=3, classes=4, separation=2.0)
    b = model.generate_synthetic_dataset(seed=7, n=120, f=3, classes=4, separation=2.0)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = model.generate_synthetic_dataset(seed=8, n=120, f=3, classes=4, separation=2.0)
    assert a.features.tobytes() != c.features.tobytes()


def test_generate_class_balance_and_shapes():
    data = model.generate_synthetic_dataset(seed=1, n=103, f=2, classes=4, separation=1.0)
    assert data.features.shape == (103, 2)
    assert data.labels.shape == (103,)
    counts = np.bincount(data.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert data.labels.min() >= 0 and data.labels.max() < 4


def test_zero_separation_means_identical_class_distributions():
    # Same seed consumes the same draws, so separation only shifts class means.
    flat = model.generate_synthetic_dataset(seed=7, n=100, f=2, classes=2, separation=0.0)
    wide = model.generate_synthetic_dataset(seed=7, n=100, f=2, classes=2, separation=6.0)
    offsets = np.zeros((100, 2))
    offsets[:, 0] = (flat.labels - 0.5) * 6.0
    assert np.array_equal(wide.features, flat.features + offsets)
    # With zero separation both classes share the zero-mean blob by construction.
    assert abs(flat.features[flat.labels == 0].mean()) < 0.5
    assert abs(flat.features[flat.labels == 1].mean()) < 0.5


def test_generate_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        model.generate_synthetic_dataset(seed=1, n=1, f=2, classes=2, separation=1.0)
    with pytest.raises(ValueError):
        model.generate_synthetic_dataset(seed=1, n=10, f=0, classes=2, separation=1.0)
    with pytest.raises(ValueError):
        model.generate_synthetic_dataset(seed=1, n=10, f=2, classes=2, separation=-1.0)


def test_seed7_data_is_linearly_separable_and_trainable_to_one():
    data = _separable_data()
    assert _separable_by_lp(data.features, data.labels)
    w0 = model.init_params(f=2, classes=2)
    cfg = model.TrainConfig(epochs=50, learning_rate=0.1, batch_size=1500)
    trained = model.local_train([w0], [data], cfg, [0])[0]
    assert model.evaluate_accuracy(trained, data) == 1.0


def test_perfect_separator_scores_one():
    # Build params straight from the LP separator: class-1 logit = x.w + b, class-0 logit = 0.
    data = _separable_data()
    n, f = data.features.shape
    sign = np.where(data.labels == 1, 1.0, -1.0)
    a_ub = -sign[:, None] * np.hstack([data.features, np.ones((n, 1))])
    res = linprog(
        c=np.zeros(f + 1),
        A_ub=a_ub,
        b_ub=-np.ones(n),
        bounds=[(None, None)] * (f + 1),
        method="highs",
    )
    assert res.status == 0
    w, b = res.x[:f], res.x[f]
    # class-0 logit fixed at 0, class-1 logit = x.w + b
    params = np.concatenate([np.column_stack([np.zeros(f), w]).ravel(), [0.0, b]])
    assert model.evaluate_accuracy(params, data) == 1.0


def test_vanishing_learning_rate_is_identity():
    data = _separable_data()
    rng = np.random.default_rng(3)
    start = rng.normal(size=model.param_dim(2, 2))
    cfg = model.TrainConfig(epochs=1, learning_rate=1e-12, batch_size=1500)
    out = model.local_train([start], [data], cfg, [1])[0]
    assert np.max(np.abs(out - start)) < 1e-9


def test_local_train_does_not_mutate_start_and_is_deterministic():
    data = model.generate_synthetic_dataset(seed=2, n=90, f=2, classes=3, separation=2.0)
    start = model.init_params(2, 3)
    before = start.copy()
    cfg = model.TrainConfig(epochs=5, learning_rate=0.05, batch_size=16)
    a = model.local_train([start], [data], cfg, [11])[0]
    b = model.local_train([start], [data], cfg, [11])[0]
    assert np.array_equal(start, before)
    assert a.tobytes() == b.tobytes()
    c = model.local_train([start], [data], cfg, [12])[0]
    assert a.tobytes() != c.tobytes()


def test_local_train_needs_a_seed_only_to_draw_mini_batches():
    data = model.generate_synthetic_dataset(seed=2, n=40, f=2, classes=3, separation=2.0)
    start = model.init_params(2, 3)
    mini = model.TrainConfig(epochs=2, learning_rate=0.1, batch_size=16)
    with pytest.raises(ValueError, match="needs an int seed"):
        model.local_train([start], [data], mini, [None])[0]
    with pytest.raises(ValueError, match="needs an int seed"):  # one unseeded item among seeded ones
        model.local_train([start, start], [data, data], mini, [3, None])
    full = model.TrainConfig(epochs=2, learning_rate=0.1, batch_size=40)
    assert model.local_train([start], [data], full, [None])[0].tobytes() \
        == model.local_train([start], [data], full, [5])[0].tobytes()


def test_local_train_dimension_mismatch():
    data = _separable_data()
    cfg = model.TrainConfig(epochs=1, learning_rate=0.1, batch_size=8)
    with pytest.raises(ValueError):
        model.local_train([np.zeros(5)], [data], cfg, [0])[0]


def test_gradient_matches_central_differences():
    # 5 random parameter points, relative error within 1e-4.
    data = model.generate_synthetic_dataset(seed=5, n=60, f=3, classes=3, separation=1.5)
    rng = np.random.default_rng(42)
    for _ in range(5):
        params = rng.normal(scale=0.8, size=model.param_dim(3, 3))
        analytic = model.loss_gradient(params, data)
        numeric = _numeric_grad(params, data)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-4


def _log_softmax(logits):
    """Textbook log-softmax, the oracle for the fused forward pass."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_loss(params, data):
    """The textbook mean cross-entropy that local_loss must reproduce bit for bit."""
    weights, biases = model._check(params, data)
    logp = _log_softmax(data.features @ weights + biases)
    return float(-np.mean(logp[np.arange(data.n), data.labels]))


def _reference_gradient(params, data):
    """The textbook gradient the fused step must reproduce bit for bit."""
    weights, biases = model._check(params, data)
    probs = np.exp(_log_softmax(data.features @ weights + biases))
    probs[np.arange(data.n), data.labels] -= 1.0
    probs /= data.n
    return np.concatenate([(data.features.T @ probs).ravel(), probs.sum(axis=0)])


def _reference_train(start, data, cfg, rng_seed):
    """Mini-batch SGD as a plain loop: a fresh Dataset and gradient per batch."""
    w = np.array(start, dtype=float, copy=True)
    rng = np.random.default_rng(rng_seed)
    n = data.n
    for _ in range(cfg.epochs):
        order = np.arange(n) if cfg.batch_size >= n else rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            rows = order[lo : lo + cfg.batch_size]
            batch = model.Dataset(data.features[rows], data.labels[rows], data.classes)
            w -= cfg.learning_rate * _reference_gradient(w, batch)
    return w


def test_fused_training_is_bit_identical_to_the_reference_loop():
    # classes 2..10 cross numpy's switch to pairwise row sums at 8 elements;
    # batch sizes cover 1, a ragged last batch, exactly n and more than n.
    rng = np.random.default_rng(2024)
    for trial in range(120):
        classes = int(rng.integers(2, 11))
        f = int(rng.integers(1, 6))
        n = int(rng.integers(classes + 1, 60))
        data = model.generate_synthetic_dataset(
            seed=int(rng.integers(1 << 30)), n=n, f=f, classes=classes,
            separation=float(rng.uniform(0.0, 3.0)))
        ragged = n // 2 + 1  # n >= 3, so the last batch is short
        batch_size = (1, 7, ragged, n, n + 5)[trial % 5]
        cfg = model.TrainConfig(epochs=int(rng.integers(1, 4)),
                                learning_rate=float(rng.uniform(0.01, 2.0)),
                                batch_size=batch_size)
        if trial % 2:
            start = model.init_params(f, classes)
        else:
            start = rng.normal(size=model.param_dim(f, classes))
        expected = _reference_train(start, data, cfg, rng_seed=trial)
        assert model.local_train([start], [data], cfg, [trial])[0].tobytes() \
            == expected.tobytes(), (classes, f, n, batch_size)
        assert model.loss_gradient(start, data).tobytes() \
            == _reference_gradient(start, data).tobytes(), (classes, f, n)


def test_fused_loss_is_bit_identical_to_the_textbook_form():
    # classes 2..10 cross the 8-class fold; large scales push some rows'
    # probabilities to exactly 0 or 1, and rounded parameters give exact ties.
    # Each item of a stack of k datasets, scored with one shared vector or
    # with its own, must give the textbook loss of its dataset alone.
    rng = np.random.default_rng(4048)
    trials = 0
    for classes in range(2, 11):
        for f in (1, 2, 5):
            for n in (1, 7, 1200):
                for k in (1, 3, 40):
                    trials += 1
                    scale = (0.1, 1.0, 8.0, 50.0)[trials % 4]
                    xs = rng.normal(scale=2.0, size=(k, n, f))
                    own = rng.normal(scale=scale, size=(k, model.param_dim(f, classes)))
                    if trials % 5 == 0:
                        xs, own = np.round(xs), np.round(own)
                    datas = [model.Dataset(x, rng.integers(0, classes, size=n), classes)
                             for x in xs]
                    stack = model.DataStack(datas)
                    for params in (own[0], model.init_params(f, classes), own):
                        got = model.local_loss(params, stack)
                        assert len(got) == k
                        for i, (data, loss) in enumerate(zip(datas, got)):
                            want = _reference_loss(params[i] if params.ndim == 2 else params,
                                                   data)
                            assert type(loss) is float, type(loss)
                            assert np.float64(loss).tobytes() == np.float64(want).tobytes(), \
                                (classes, f, n, k, i, params.ndim, scale, loss, want)


def test_mixed_shape_datasets_score_as_one_stack_per_shape():
    # Two shapes, interleaved as a node list may hold them: a stack takes one
    # shape only, and each shape's stack scores its items as they score alone.
    rng = np.random.default_rng(4049)
    datas = [model.generate_synthetic_dataset(seed=s, n=(30, 45)[s % 2], f=3, classes=4,
                                              separation=1.0) for s in range(7)]
    with pytest.raises(ValueError):
        model.DataStack(datas[:2])
    groups = {}
    for data in datas:
        groups.setdefault(data.n, []).append(data)
    assert sorted(map(len, groups.values())) == [3, 4]
    shared = rng.normal(size=model.param_dim(3, 4))
    for group in groups.values():
        stack = model.DataStack(group)
        own = rng.normal(size=(len(group), model.param_dim(3, 4)))
        for data, a, b, p in zip(group, model.local_loss(shared, stack),
                                 model.local_loss(own, stack), own):
            assert np.float64(a).tobytes() == np.float64(_reference_loss(shared, data)).tobytes()
            assert np.float64(b).tobytes() == np.float64(_reference_loss(p, data)).tobytes()
        with pytest.raises(ValueError):
            model.local_loss(own[1:], stack)  # one vector short


def test_full_batch_training_builds_no_generator(monkeypatch):
    data = model.generate_synthetic_dataset(seed=3, n=40, f=2, classes=3, separation=2.0)
    start = model.init_params(2, 3)
    cfg = model.TrainConfig(epochs=3, learning_rate=0.1, batch_size=40)
    expected = model.local_train([start], [data], cfg, [0])[0]

    def refuse(*args, **kwargs):
        raise AssertionError("a full-batch epoch drew a generator")

    monkeypatch.setattr(model.np.random, "default_rng", refuse)
    for seed in (0, 1, 12345):
        assert model.local_train([start], [data], cfg, [seed])[0].tobytes() \
            == expected.tobytes()
    big = model.TrainConfig(epochs=3, learning_rate=0.1, batch_size=1500)
    assert model.local_train([start], [data], big, [7])[0].tobytes() == expected.tobytes()
    with pytest.raises(AssertionError, match="drew a generator"):
        model.local_train([start], [data], model.TrainConfig(1, 0.1, batch_size=39), [0])


def test_gradient_matches_central_differences_with_many_classes():
    # 9 classes take the pairwise-sum branch of the fused step.
    data = model.generate_synthetic_dataset(seed=6, n=90, f=2, classes=9, separation=1.0)
    params = np.random.default_rng(8).normal(scale=0.8, size=model.param_dim(2, 9))
    analytic = model.loss_gradient(params, data)
    numeric = _numeric_grad(params, data)
    assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-4


def test_constant_class_zero_predictor_on_balanced_data():
    data = model.generate_synthetic_dataset(seed=7, n=100, f=2, classes=2, separation=0.0)
    zero = model.init_params(2, 2)  # all-equal logits -> argmax picks class 0
    assert model.evaluate_accuracy(zero, data) == 0.5


def test_accuracy_invariant_to_logit_scaling():
    data = model.generate_synthetic_dataset(seed=9, n=150, f=2, classes=3, separation=1.0)
    rng = np.random.default_rng(0)
    params = rng.normal(size=model.param_dim(2, 3))
    assert model.evaluate_accuracy(params, data) == model.evaluate_accuracy(3.0 * params, data)


def test_uniform_predictor_loss_is_ln2():
    data = model.generate_synthetic_dataset(seed=4, n=50, f=2, classes=2, separation=1.0)
    assert abs(model.local_loss(model.init_params(2, 2), model.DataStack([data]))[0]
               - math.log(2)) < 1e-9


def test_confident_correct_single_sample_loss_is_zero():
    data = model.Dataset(features=np.zeros((1, 2)), labels=np.array([1]), classes=2)
    params = np.concatenate([np.zeros(4), [-50.0, 50.0]])
    assert model.local_loss(params, model.DataStack([data]))[0] < 1e-9


def test_fullbatch_loss_trace_is_monotone_nonincreasing():
    data = model.generate_synthetic_dataset(seed=3, n=80, f=2, classes=3, separation=2.0)
    cfg = model.TrainConfig(epochs=1, learning_rate=0.05, batch_size=1500)
    w = model.init_params(2, 3)
    stack = model.DataStack([data])
    losses = model.local_loss(w, stack)
    for _ in range(30):
        w = model.local_train([w], [data], cfg, [0])[0]
        losses += model.local_loss(w, stack)
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-12


def test_loss_and_accuracy_bounds_on_random_inputs():
    rng = np.random.default_rng(17)
    data = model.generate_synthetic_dataset(seed=6, n=40, f=2, classes=3, separation=1.0)
    for _ in range(25):
        params = rng.normal(scale=rng.uniform(0.1, 5.0), size=model.param_dim(2, 3))
        acc = model.evaluate_accuracy(params, data)
        assert 0.0 <= acc <= 1.0
        assert model.local_loss(params, model.DataStack([data]))[0] >= 0.0


def test_evaluate_accuracy_is_a_python_float_equal_to_the_textbook_mean():
    rng = np.random.default_rng(23)
    for classes in (2, 3):
        data = model.generate_synthetic_dataset(seed=8, n=30, f=2, classes=classes,
                                                separation=1.0)
        params = rng.normal(size=model.param_dim(2, classes))
        logits = data.features @ params[:2 * classes].reshape(2, classes) \
            + params[2 * classes:]
        textbook = float(np.mean(np.argmax(logits, axis=1) == data.labels))
        acc = model.evaluate_accuracy(params, data)
        assert type(acc) is float and acc == textbook, classes


_EDGE_FLOATS = st.sampled_from([1e308, -1e308, 1e160, -1e200, math.inf, -math.inf, math.nan])


@given(st.lists(st.one_of(st.floats(), _EDGE_FLOATS), max_size=12))
def test_all_finite_agrees_with_the_elementwise_test(values):
    a = np.array(values, dtype=float)
    assert model.all_finite(a) is bool(np.isfinite(a).all())
    assert model.all_finite(a.reshape(-1, 1)) is bool(np.isfinite(a).all())


def test_empty_dataset_rejected():
    empty = model.Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), classes=2)
    params = model.init_params(2, 2)
    with pytest.raises(ValueError):
        model.evaluate_accuracy(params, empty)
    with pytest.raises(ValueError):
        model.local_loss(params, model.DataStack([empty]))


def test_global_objective_values():
    assert abs(model.global_objective([1.0, 1.0], [0.6931, 0.6931], 2) - 0.6931) < 1e-12
    assert model.global_objective([2.0], [0.5], 1) == 1.0
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        eps = rng.uniform(0.01, 100, size=k)
        losses = rng.uniform(0, 3, size=k)
        expected = math.fsum(e * h for e, h in zip(eps, losses)) / k
        got = model.global_objective(eps, losses, k)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
    with pytest.raises(ValueError):
        model.global_objective([1.0, 1.0], [0.5], 2)


def test_split_dataset_partitions_rows():
    data = model.generate_synthetic_dataset(seed=11, n=100, f=2, classes=2, separation=3.0)
    train, test = model.split_dataset(data, test_fraction=0.2)
    assert train.n == 80 and test.n == 20
    joined = np.vstack([train.features, test.features])
    assert np.array_equal(joined, data.features)
    assert np.array_equal(np.concatenate([train.labels, test.labels]), data.labels)


def test_local_train_returns_an_error_when_training_diverges():
    data = _separable_data()
    start = np.random.default_rng(1).normal(size=model.param_dim(2, 2))
    for batch_size in (8, 1500):  # mini-batch and full batch
        cfg = model.TrainConfig(epochs=5, learning_rate=1e308, batch_size=batch_size)
        with np.errstate(over="ignore", invalid="ignore"):
            (err,) = model.local_train([start], [data], cfg, [0])
        assert isinstance(err, ArithmeticError) and "diverged" in str(err)


_FULL = model.TrainConfig(epochs=2, learning_rate=0.3, batch_size=1500)
_MINI = model.TrainConfig(epochs=2, learning_rate=0.3, batch_size=7)  # ragged last batch


def _call(kind, params, data):
    """One model call; float results as numpy scalars, so every result has tobytes()."""
    if kind == "train_full":
        return model.local_train([params], [data], _FULL, [5])[0]
    if kind == "train_mini":
        return model.local_train([params], [data], _MINI, [5])[0]
    if kind == "loss":
        return np.float64(model.local_loss(params, model.DataStack([data]))[0])
    if kind == "gradient":
        return model.loss_gradient(params, data)
    return np.float64(model.evaluate_accuracy(params, data))


_KINDS = ("train_full", "train_mini", "loss", "gradient", "accuracy")


def test_a_dataset_is_frozen():
    data = _separable_data()
    for name in ("features", "labels", "classes"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, getattr(data, name))


@pytest.mark.parametrize("classes", [2, 9])
def test_interleaved_model_calls_match_calls_on_fresh_datasets(classes):
    # Results are compared only after every call has run, so a result that
    # shares memory with a buffer a later call reuses would show.
    data = model.generate_synthetic_dataset(seed=41, n=30, f=2, classes=classes, separation=1.5)
    rng = np.random.default_rng(42)
    done = []
    for _ in range(60):
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        params = rng.normal(size=model.param_dim(2, classes))
        done.append((kind, params, _call(kind, params, data)))
    assert {kind for kind, _, _ in done} == set(_KINDS)
    for kind, params, got in done:
        want = _call(kind, params, model.Dataset(data.features, data.labels, classes))
        assert got.tobytes() == want.tobytes(), kind


def _assert_model_calls_match_the_references(params, data, cfg, rng_seed):
    """local_loss, loss_gradient, local_train and evaluate_accuracy against the textbook forms."""
    assert np.float64(model.local_loss(params, model.DataStack([data]))[0]).tobytes() \
        == np.float64(_reference_loss(params, data)).tobytes()
    assert model.loss_gradient(params, data).tobytes() \
        == _reference_gradient(params, data).tobytes()
    assert model.local_train([params], [data], cfg, [rng_seed])[0].tobytes() \
        == _reference_train(params, data, cfg, rng_seed).tobytes()
    weights, biases = model._check(params, data)
    want = np.mean((data.features @ weights + biases).argmax(axis=1) == data.labels)
    assert model.evaluate_accuracy(params, data) == want


@pytest.mark.parametrize("classes", [1, 3, 9])
def test_paired_columns_are_bit_identical_with_no_pair_or_an_odd_last_column(classes):
    # One class leaves no column pair; 3 and 9 leave a real last column,
    # and 9 also takes numpy's pairwise row sum.
    rng = np.random.default_rng(classes)
    for trial in range(12):
        f = int(rng.integers(1, 5))
        n = int(rng.integers(classes + 2, 50))
        data = model.generate_synthetic_dataset(
            seed=int(rng.integers(1 << 30)), n=n, f=f, classes=classes,
            separation=float(rng.uniform(0.0, 3.0)))
        cfg = model.TrainConfig(epochs=2, learning_rate=float(rng.uniform(0.05, 1.0)),
                                batch_size=(1, 7, n)[trial % 3])
        params = rng.normal(scale=(0.5, 4.0)[trial % 2], size=model.param_dim(f, classes))
        _assert_model_calls_match_the_references(params, data, cfg, rng_seed=trial)
        _assert_model_calls_match_the_references(model.init_params(f, classes), data, cfg,
                                                 rng_seed=trial)


@pytest.mark.parametrize("classes", [2, 3])
def test_non_contiguous_and_unaligned_params_give_the_same_results(classes):
    data = model.generate_synthetic_dataset(seed=51, n=45, f=3, classes=classes, separation=1.5)
    dim = model.param_dim(3, classes)
    params = np.random.default_rng(52).normal(size=dim)
    strided = np.zeros(2 * dim)[::2]  # every other entry of a larger array
    strided[:] = params
    raw = bytearray(8 * dim + 1)
    unaligned = np.frombuffer(raw, dtype=float, count=dim, offset=1)  # one byte off
    unaligned[:] = params
    assert not strided.flags.c_contiguous and not unaligned.flags.aligned
    cfg = model.TrainConfig(epochs=3, learning_rate=0.4, batch_size=8)
    for view in (strided, unaligned):
        _assert_model_calls_match_the_references(view, data, cfg, rng_seed=3)
        for kind in _KINDS:
            assert _call(kind, view, data).tobytes() == _call(kind, params, data).tobytes(), kind
        assert view.tobytes() == params.tobytes()  # not written to


def test_one_datasets_steps_are_reused_across_two_batch_sizes(monkeypatch):
    # 30 rows in batches of 7 need a 7-row and a 2-row step; the full-batch
    # loss and gradient need a 30-row one. Each is built once and reused.
    monkeypatch.setattr(model, "_stacks", functools.cache(model._Stacks))  # no earlier test's steps
    data = model.generate_synthetic_dataset(seed=61, n=30, f=2, classes=5, separation=1.0)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=7)
    rng = np.random.default_rng(62)
    steps = None
    for trial in range(4):
        params = rng.normal(size=model.param_dim(2, 5))
        _assert_model_calls_match_the_references(params, data, cfg, rng_seed=trial)
        cached = model._stacks(2, 5).steps  # keyed by (items, rows)
        assert sorted(cached) == [(1, 2), (1, 7), (1, 30)]
        if steps is not None:
            assert all(cached[m] is steps[m] for m in steps)
        steps = dict(cached)
    # the two mini-batch steps, called in turn on their own batches
    prepared = data._prepared
    weights, biases = model._unpack(params, 2, 5)
    for rows in (np.arange(7), np.arange(28, 30), np.arange(7, 14), np.arange(0, 30, 15)):
        batch = model.Dataset(data.features[rows], data.labels[rows], 5)
        got = steps[1, len(rows)](weights, biases, prepared.x[:, rows], prepared.onehot[:, rows])
        assert got[0].tobytes() == _reference_gradient(params, batch).tobytes()


def test_datasets_of_one_shape_share_their_steps(monkeypatch):
    # c trains beside a only after [a, b] has built every (items, rows) step
    # the shape needs, so the second call builds none.
    monkeypatch.setattr(model, "_stacks", functools.cache(model._Stacks))
    a, b, c = (model.generate_synthetic_dataset(seed=s, n=24, f=3, classes=4, separation=1.0)
               for s in (63, 64, 65))
    built = []

    class CountedStep(model._GradientStep):
        def __init__(self, k, m, *rest):
            built.append((k, m))
            super().__init__(k, m, *rest)

    monkeypatch.setattr(model, "_GradientStep", CountedStep)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=10)  # 10, 10 and 4 rows
    starts = [model.init_params(3, 4)] * 2
    model.local_train(starts, [a, b], cfg, [1, 2])
    assert built == [(2, 10), (2, 4)]
    model.local_train(starts, [c, a], cfg, [3, 4])
    assert built == [(2, 10), (2, 4)]


def _oracle_items(draw_int, k, n, f, classes):
    """k items on datasets of n rows, and sometimes a second shape of n + 3 rows."""
    datas = [model.generate_synthetic_dataset(seed=draw_int(), n=n + 3 * (i % 3 == 2), f=f,
                                              classes=classes, separation=2.0)
             for i in range(k)]
    rng = np.random.default_rng(draw_int())
    starts = [rng.normal(scale=2.0, size=model.param_dim(f, classes)) if i % 2
              else model.init_params(f, classes) for i in range(k)]
    return starts, datas, [draw_int() for _ in range(k)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=st.integers(1, 6), classes=st.integers(2, 10), f=st.integers(1, 5),
       n=st.integers(11, 40), batch=st.sampled_from(["1", "ragged", "n", "n+5"]),
       epochs=st.integers(1, 3), lr=st.floats(0.01, 2.0), seed=st.integers(0, 2**30))
def test_stacked_training_is_bit_identical_to_the_reference_loop(k, classes, f, n, batch,
                                                                 epochs, lr, seed):
    # Every third item has n + 3 rows, so k >= 3 trains two stacks in one call.
    size = {"1": 1, "ragged": n // 2 + 1, "n": n, "n+5": n + 5}[batch]
    cfg = model.TrainConfig(epochs=epochs, learning_rate=lr, batch_size=size)
    draws = iter(np.random.default_rng(seed).integers(1 << 30, size=2 * k + 1).tolist())
    starts, datas, seeds = _oracle_items(lambda: next(draws), k, n, f, classes)
    got = model.local_train(starts, datas, cfg, seeds)
    assert len(got) == k
    for start, data, item_seed, params in zip(starts, datas, seeds, got):
        want = _reference_train(start, data, cfg, item_seed)
        assert params.tobytes() == want.tobytes(), (k, classes, f, data.n, size)


@pytest.mark.parametrize("batch_size", [8, 1500])  # mini-batch and full batch
@pytest.mark.parametrize("classes", [2, 9])
def test_a_diverging_item_fails_alone(batch_size, classes):
    datas = [model.generate_synthetic_dataset(seed=70 + i, n=40, f=2, classes=classes,
                                              separation=1.0) for i in range(4)]
    rng = np.random.default_rng(71)
    starts = [rng.normal(size=model.param_dim(2, classes)) for _ in range(4)]
    starts[1] = np.full(model.param_dim(2, classes), 1e308)  # its logits overflow
    cfg = model.TrainConfig(epochs=3, learning_rate=0.5, batch_size=batch_size)
    seeds = [72, 73, 74, 75]
    with np.errstate(over="ignore", invalid="ignore"):
        got = model.local_train(starts, datas, cfg, seeds)
        alone = model.local_train([starts[1]], [datas[1]], cfg, [seeds[1]])[0]
    for err in (got[1], alone):
        assert isinstance(err, ArithmeticError) and "diverged" in str(err)
    for i in (0, 2, 3):
        solo = model.local_train([starts[i]], [datas[i]], cfg, [seeds[i]])[0]
        assert got[i].tobytes() == solo.tobytes(), i


# ------------------------------------------------------- training in shares


def _share_items(k, classes, seed=90):
    """k items of 30 rows: random starts, and an int seed each."""
    datas = [model.generate_synthetic_dataset(seed=seed + i, n=30, f=2, classes=classes,
                                              separation=1.0) for i in range(k)]
    rng = np.random.default_rng(seed)
    starts = [rng.normal(size=model.param_dim(2, classes)) for _ in range(k)]
    return starts, datas, [seed + 100 + i for i in range(k)]


def _in_shares(count):
    """A share rule for model.TrainPool: every stack in count shares, whatever its work."""
    return lambda row_epochs: count


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k, shares", [(2, 2), (2, 3), (3, 2), (3, 3), (17, 2), (17, 3)])
def test_shares_are_bit_identical_to_one_stack(k, shares, forks, capfd):
    items = {classes: _share_items(k, classes) for classes in (2, 3, 4)}
    pool = model.TrainPool([d for _, datas, _ in items.values() for d in datas],
                           _in_shares(shares))
    try:
        for classes, (starts, datas, seeds) in items.items():
            for batch_size in (30, 7):  # full batch, and ragged mini-batches drawn from the seeds
                cfg = model.TrainConfig(epochs=3, learning_rate=0.5, batch_size=batch_size)
                one = model.local_train(starts, datas, cfg, seeds)
                split = model.local_train(starts, datas, cfg, seeds, pool)
                assert [p.tobytes() for p in split] == [p.tobytes() for p in one], \
                    (classes, batch_size)
    finally:
        pool.close()
    _assert_no_child_left()
    # one pool serves all six calls: one fork per helper, at most one share per item
    assert forks[0] == min(k, shares) - 1
    assert capfd.readouterr() == ("", "")  # no helper prints or flushes a buffer


@pytest.mark.parametrize("batch_size", [7, 30])  # mini-batch and full batch
def test_a_diverging_item_in_a_childs_share_fails_in_its_place(batch_size, forks):
    starts, datas, seeds = _share_items(4, 3)
    starts[3] = np.full_like(starts[3], 1e308)  # the second share, which a helper trains
    cfg = model.TrainConfig(epochs=3, learning_rate=0.5, batch_size=batch_size)
    pool = model.TrainPool(datas, _in_shares(2))
    with np.errstate(over="ignore", invalid="ignore"):
        one = model.local_train(starts, datas, cfg, seeds)
        split = model.local_train(starts, datas, cfg, seeds, pool)
    pool.close()
    assert forks[0] == 1
    for err in (one[3], split[3]):
        assert isinstance(err, ArithmeticError) and "diverged" in str(err)
    assert [p.tobytes() for p in split[:3]] == [p.tobytes() for p in one[:3]]
    _assert_no_child_left()


def test_a_bad_item_in_the_back_share_raises_before_any_fork(forks):
    starts, datas, seeds = _share_items(4, 2)
    mini = model.TrainConfig(epochs=1, learning_rate=0.5, batch_size=7)
    pool = model.TrainPool(datas, _in_shares(2))
    cases = {"None seed": (starts, seeds[:3] + [None]),
             "one short start": (starts[:3] + [np.zeros(5)], seeds),
             "short starts": ([np.zeros(5)] * 4, seeds)}
    for case, (bad_starts, bad_seeds) in cases.items():
        with pytest.raises(ValueError) as one:
            model.local_train(bad_starts, datas, mini, bad_seeds)
        with pytest.raises(ValueError) as split:
            model.local_train(bad_starts, datas, mini, bad_seeds, pool)
        assert str(split.value) == str(one.value), case
    with pytest.raises(ValueError, match="^a seed is None, but batch_size 7 < 30 rows"):
        model.local_train(starts, datas, mini, seeds[:3] + [None], pool)
    assert forks[0] == 0
    assert pool.helpers == []


def test_a_failing_child_makes_the_call_raise_and_prints_nothing(monkeypatch, capfd):
    parent, train_stack = os.getpid(), model._train_stack

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise MemoryError("the child's share")
        train_stack(*args)

    monkeypatch.setattr(model, "_train_stack", fails_in_a_child)
    starts, datas, seeds = _share_items(5, 2)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=7)
    pool = model.TrainPool(datas, _in_shares(2))
    with pytest.raises(RuntimeError, match="^the child process training items 3 to 4 of a "
                                           "stack failed: exit code 1, 0 of 96 bytes$"):
        model.local_train(starts, datas, cfg, seeds, pool)
    assert pool.helpers == []  # the failure closed the pool
    _assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_a_failing_own_share_kills_and_reaps_the_children(monkeypatch):
    parent, train_stack = os.getpid(), model._train_stack

    def fails_in_the_parent(*args):
        if os.getpid() == parent:
            raise KeyError("the parent's share")
        time.sleep(60)  # the call must not wait for it
        train_stack(*args)

    monkeypatch.setattr(model, "_train_stack", fails_in_the_parent)
    starts, datas, seeds = _share_items(3, 2)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=7)
    pool = model.TrainPool(datas, _in_shares(3))
    began = time.monotonic()
    with pytest.raises(KeyError, match="the parent's share"):
        model.local_train(starts, datas, cfg, seeds, pool)
    assert time.monotonic() - began < 30
    assert pool.helpers == []
    _assert_no_child_left()


def test_a_stack_with_a_dataset_the_pool_does_not_know_trains_here(forks):
    starts, datas, seeds = _share_items(4, 2)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=7)
    pool = model.TrainPool(datas[:3], _in_shares(2))
    one = model.local_train(starts, datas, cfg, seeds)
    split = model.local_train(starts, datas, cfg, seeds, pool)
    assert [p.tobytes() for p in split] == [p.tobytes() for p in one]
    assert forks[0] == 0 and pool.helpers == []


def test_a_seed_the_pool_cannot_send_trains_here(forks):
    starts, datas, seeds = _share_items(2, 2)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=7)
    pool = model.TrainPool(datas, _in_shares(2))
    big = [seeds[0], 1 << 64]  # numpy draws from any int; an int64 holds less
    one = model.local_train(starts, datas, cfg, big)
    split = model.local_train(starts, datas, cfg, big, pool)
    assert [p.tobytes() for p in split] == [p.tobytes() for p in one]
    assert forks[0] == 0 and pool.helpers == []


@pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
def test_a_refused_fork_trains_the_stack_here(monkeypatch, code):
    def refused():
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "fork", refused)
    starts, datas, seeds = _share_items(3, 2)
    cfg = model.TrainConfig(epochs=2, learning_rate=0.5, batch_size=7)
    pool = model.TrainPool(datas, _in_shares(2))
    one = model.local_train(starts, datas, cfg, seeds)
    split = model.local_train(starts, datas, cfg, seeds, pool)
    assert [p.tobytes() for p in split] == [p.tobytes() for p in one]
    assert pool.helpers == []


def test_a_pool_of_three_helpers_closes_without_hanging(forks):
    import signal

    starts, datas, seeds = _share_items(4, 2)
    cfg = model.TrainConfig(epochs=1, learning_rate=0.5, batch_size=30)
    pool = model.TrainPool(datas, _in_shares(4))
    model.local_train(starts, datas, cfg, seeds, pool)
    assert forks[0] == len(pool.helpers) == 3

    def hung(*_):
        raise TimeoutError("a helper never saw the end of its requests")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        # The first helper exits once the pool ends its requests, though the
        # later helpers were forked while the pool held their write end.
        pid, requests, _ = pool.helpers[0]
        requests.close()
        assert os.waitpid(pid, 0)[1] == 0
        pool.helpers.pop(0)[2].close()
        pool.close()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


def test_the_share_count_follows_the_work_the_cpus_and_fork(monkeypatch):
    least = model.MIN_SHARE_ROW_EPOCHS
    cpus = len(os.sched_getaffinity(0))
    shares = model.TrainPool([]).shares
    assert shares(2 * least - 1) == 1
    assert shares(3 * least) == min(3, cpus)
    assert shares(40 * least) == min(40, cpus)
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.delattr(os, name)
            assert model.TrainPool([]).shares(40 * least) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert model.TrainPool([]).shares(40 * least) == 1
    assert shares(40 * least) == min(40, cpus)  # a pool reads the CPUs once, when made

"""Synthetic datasets, a softmax classifier over flat parameter vectors, and seeded SGD.

Model parameters are flat float64 vectors of length (f + 1) * classes: the
weight matrix (f x classes, row-major) followed by the per-class biases.
All operations are pure and deterministic given their arguments and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ModelParams = np.ndarray


@dataclass(eq=False)
class Dataset:
    """Feature matrix (n x f), integer labels in [0, classes), optional global row ids.

    The arrays are never mutated in place: the model calls derive constants
    from them once (`_prepare`) and notice only when a field is reassigned.
    """

    features: np.ndarray
    labels: np.ndarray
    classes: int
    indices: np.ndarray = field(default=None)
    _prepared: _Prepared = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.indices is None:
            self.indices = np.arange(len(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_size: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def param_dim(f: int, classes: int) -> int:
    return (f + 1) * classes


def init_params(f: int, classes: int) -> ModelParams:
    """Zero initialization; all logits equal, argmax predicts class 0."""
    return np.zeros(param_dim(f, classes))


def pack_params(weights: np.ndarray, biases: np.ndarray) -> ModelParams:
    return np.concatenate([np.asarray(weights, dtype=float).ravel(), np.asarray(biases, dtype=float)])


def _unpack(params: ModelParams, f: int, classes: int):
    if params.ndim != 1 or len(params) != param_dim(f, classes):
        raise ValueError(
            f"parameter vector of length {len(params)} does not match dimension {param_dim(f, classes)}"
        )
    return params[: f * classes].reshape(f, classes), params[f * classes :]


def _check(params: ModelParams, data: Dataset):
    if data.n == 0:
        raise ValueError("empty dataset")
    return _unpack(np.asarray(params, dtype=float), data.features.shape[1], data.classes)


# Blob standard deviation; separation is the distance between adjacent class means,
# so separation/BLOB_SIGMA is the gap in noise units.
BLOB_SIGMA = 0.5


def generate_synthetic_dataset(seed: int, n: int, f: int, classes: int, separation: float) -> Dataset:
    """Class-balanced Gaussian blobs on a line, centered as a group at the origin.

    Class c is centered at (c - (classes - 1) / 2) * separation on feature
    axis 0. Identical arguments give a bit-identical dataset. separation 0
    makes all classes identically distributed by construction.
    """
    if classes < 1 or n < classes:
        raise ValueError("need n >= classes >= 1")
    if f < 1:
        raise ValueError("need f >= 1")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    blocks, labels = [], []
    for c, count in enumerate(counts):
        block = BLOB_SIGMA * rng.standard_normal((count, f))
        block[:, 0] += (c - (classes - 1) / 2) * separation
        blocks.append(block)
        labels.append(np.full(count, c, dtype=np.int64))
    features = np.vstack(blocks)
    labels = np.concatenate(labels)
    perm = rng.permutation(n)
    return Dataset(features=features[perm], labels=labels[perm], classes=classes)


def holdout_rows(n: int, test_fraction: float) -> int:
    """Rows of n that split_dataset holds out for testing; ValueError if a split is empty."""
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ValueError(f"test_fraction {test_fraction} leaves an empty train or test "
                         f"split of {n} rows")
    return n_test


def split_dataset(data: Dataset, test_fraction: float) -> tuple[Dataset, Dataset]:
    """Head/tail split; callers pass pre-shuffled data (generate_synthetic_dataset shuffles)."""
    cut = data.n - holdout_rows(data.n, test_fraction)
    train = Dataset(data.features[:cut], data.labels[:cut], data.classes, data.indices[:cut])
    test = Dataset(data.features[cut:], data.labels[cut:], data.classes, data.indices[cut:])
    return train, test


def evaluate_accuracy(params: ModelParams, data: Dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    weights, biases = _check(params, data)
    logits = _prepare(data).x @ weights + biases
    return np.count_nonzero(logits.argmax(axis=1) == data.labels) / data.n


def local_loss(params: ModelParams, data: Dataset) -> float:
    """Mean cross-entropy over the dataset (log-sum-exp stable)."""
    weights, biases = _check(params, data)
    p = _prepare(data)
    logp = p.step(data.n).log_softmax(weights, biases, p.x)
    return float(-logp.take(p.label_at).mean())


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    onehot = np.zeros((len(labels), classes))
    onehot[np.arange(len(labels)), labels] = 1.0
    return onehot


class _Prepared:
    """A dataset's per-call constants, built once and shared by every model call on it.

    Holds the C-contiguous float64 features, the one-hot labels, the flat
    indices of logp[rows, labels], and one _GradientStep per batch size.
    The steps' buffers are scratch space: no model function returns a view
    of them.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, classes: int):
        self.features, self.labels, self.classes = features, labels, classes  # the cache key
        self.x = np.ascontiguousarray(features, dtype=float)
        self.onehot = _one_hot(labels, classes)
        # logp[rows, labels] through flat indices, which numpy gathers faster
        self.label_at = np.arange(0, len(labels) * classes, classes) + labels
        self._steps = {}

    def step(self, m: int) -> _GradientStep:
        step = self._steps.get(m)
        if step is None:
            step = self._steps[m] = _GradientStep(m, self.x.shape[1], self.classes)
        return step


def _prepare(data: Dataset) -> _Prepared:
    """data's derived model inputs, rebuilt when its features, labels or classes were reassigned."""
    p = data._prepared
    if (p is None or p.features is not data.features or p.labels is not data.labels
            or p.classes != data.classes):
        p = data._prepared = _Prepared(data.features, data.labels, data.classes)
    return p


def _pair_columns(a: np.ndarray) -> list:
    """Columns of 2-D a, each adjacent pair 2k, 2k+1 as one complex128 column view.

    An odd last column stays a real column view. Pairing needs numpy >= 1.23,
    which views the non-contiguous a[:, :even] as complex.
    """
    even = a.shape[1] - a.shape[1] % 2
    pairs = a[:, :even].view(complex)
    return [pairs[:, k] for k in range(even // 2)] + [a[:, j] for j in range(even, a.shape[1])]


def _pair_values(v: np.ndarray) -> list:
    """Entries of 1-D v paired as _pair_columns pairs columns: complex(v[2k], v[2k+1]), ..."""
    v = v.tolist()  # values, never a view of the caller's array
    pairs = iter(v)  # map draws each complex's two parts from it in turn
    return [*map(complex, pairs, pairs), *v[len(v) - len(v) % 2:]]


def _fold(ufunc, cols: list, out: np.ndarray) -> np.ndarray:
    """ufunc folded over cols from the left into out; a lone column is returned as it is."""
    acc = cols[0]
    for col in cols[1:]:
        acc = ufunc(acc, col, out=out)
    return acc


class _GradientStep:
    """Mean cross-entropy gradient of m-row batches, computed in preallocated buffers.

    Performs the floating-point operations of the textbook form (logits,
    log-softmax, exp, subtract the one-hot labels, divide by m, X^T @ probs,
    column sums) in the same order, so its results are bit-identical to it.
    Row-wise broadcasts run one column at a time, which is exact and avoids
    numpy's slow short inner loops.

    Where the same operation runs on every column, adjacent class columns
    2k, 2k+1 run as one complex128 column (`_pair_columns`), which halves the
    numpy calls and is still exact: complex addition is the two float
    additions of its parts, so adding complex(b[2k], b[2k+1]) adds each bias
    to its own column, and `np.add.accumulate` of a complex column keeps two
    running sums that add the rows in order, as `sum(axis=0)` of a C-ordered
    matrix does. The row max and sum folds start from the first two columns
    (`_fold`), so they skip the copy of the first.
    """

    def __init__(self, m: int, f: int, classes: int):
        self.logits = np.empty((m, classes))
        self.probs = np.empty((m, classes))
        self.row = np.empty(m)
        self.grad = np.empty(param_dim(f, classes))
        self.gw, self.gb = _unpack(self.grad, f, classes)  # views of grad
        self.logit_cols = [self.logits[:, j] for j in range(classes)]
        self.prob_cols = [self.probs[:, j] for j in range(classes)]
        self.logit_pairs = _pair_columns(self.logits)
        self.prob_pairs = _pair_columns(self.probs)
        self.gb_pairs = _pair_columns(self.gb[None, :])  # one-entry views of gb

    def log_softmax(self, weights, biases, x):
        """Log-softmax of x @ weights + biases, left in this step's logits buffer."""
        z, p, row = self.logits, self.probs, self.row
        np.matmul(x, weights, out=z)
        for col, b in zip(self.logit_pairs, _pair_values(biases)):
            col += b
        top = _fold(np.maximum, self.logit_cols, row)
        for col in self.logit_cols:
            col -= top
        np.exp(z, out=p)
        # numpy sums rows pairwise from 8 elements on: fold columns only below 8.
        if len(self.prob_cols) < 8:
            total = _fold(np.add, self.prob_cols, row)
        else:
            total = p.sum(axis=1, out=row)
        np.log(total, out=row)
        for col in self.logit_cols:
            col -= row
        return z

    def __call__(self, weights, biases, x, onehot):
        """Flat gradient on batch (x, onehot), left in this step's grad buffer."""
        p = self.probs
        np.exp(self.log_softmax(weights, biases, x), out=p)
        p -= onehot  # equals probs[rows, labels] -= 1.0, since x - 0.0 == x
        p /= len(p)
        np.matmul(x.T, p, out=self.gw)
        # The logits are spent, so each column's running sums go into its logits column.
        for gb, col, sums in zip(self.gb_pairs, self.prob_pairs, self.logit_pairs):
            gb[0] = np.add.accumulate(col, out=sums)[-1]
        return self.grad


def loss_gradient(params: ModelParams, data: Dataset) -> ModelParams:
    """Analytic gradient of local_loss with respect to the flat parameter vector."""
    weights, biases = _check(params, data)
    p = _prepare(data)
    return p.step(data.n)(weights, biases, p.x, p.onehot).copy()


def draws_batches(cfg: TrainConfig, data: Dataset) -> bool:
    """True when local_train shuffles data into mini-batches, the only time it reads its seed."""
    return cfg.batch_size < data.n


def local_train(start: ModelParams, data: Dataset, cfg: TrainConfig,
                rng_seed: int | None) -> ModelParams:
    """cfg.epochs passes of mini-batch gradient descent; full batch when batch_size >= n.

    Deterministic given (start, data, cfg, rng_seed); start is not mutated.
    rng_seed is read only when draws_batches(cfg, data).
    """
    w = np.array(start, dtype=float, copy=True)
    weights, biases = _check(w, data)  # views: updating them updates w
    p = _prepare(data)
    x, onehot = p.x, p.onehot
    n, size = data.n, cfg.batch_size
    rng = np.random.default_rng(rng_seed) if draws_batches(cfg, data) else None
    for _ in range(cfg.epochs):
        if rng is None:
            batches = [(x, onehot)]
        else:
            order = rng.permutation(n)
            batches = [(x[rows], onehot[rows])
                       for rows in (order[lo : lo + size] for lo in range(0, n, size))]
        for xb, yb in batches:
            grad = p.step(len(xb))(weights, biases, xb, yb)
            grad *= cfg.learning_rate
            w -= grad
    if not np.isfinite(w).all():
        raise ArithmeticError("training diverged to non-finite parameters")
    return w


def global_objective(epsilons, losses, K: int) -> float:
    """Diagnostic objective: sum_k (eps_k / K) * h_k."""
    epsilons = list(epsilons)
    losses = list(losses)
    if len(epsilons) != K or len(losses) != K:
        raise ValueError("epsilons and losses must both have length K")
    return float(sum(e * h for e, h in zip(epsilons, losses)) / K)

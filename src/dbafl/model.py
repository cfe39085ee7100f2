"""Synthetic datasets, a softmax classifier over flat parameter vectors, and seeded SGD.

Model parameters are flat float64 vectors of length (f + 1) * classes: the
weight matrix (f x classes, row-major) followed by the per-class biases.
All operations are pure and deterministic given their arguments and seeds.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

ModelParams = np.ndarray


def all_finite(a: np.ndarray) -> bool:
    """True iff every entry of the float64 array a is finite.

    A finite sum of squares proves it, since an inf or a nan carries into
    the sum; only an array whose sum of squares overflows pays for the
    elementwise test.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n x f) and integer labels in [0, classes).

    Frozen, and its arrays are never mutated in place, so the model calls
    derive their constants from it once (`_prepared`, its one-item stack).
    To change a dataset, build a new one.
    """

    features: np.ndarray
    labels: np.ndarray
    classes: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def _prepared(self) -> DataStack:
        return DataStack((self,))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_size: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:  # NaN fails it too
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def param_dim(f: int, classes: int) -> int:
    return (f + 1) * classes


def init_params(f: int, classes: int) -> ModelParams:
    """Zero initialization; all logits equal, argmax predicts class 0."""
    return np.zeros(param_dim(f, classes))


def _unpack(params: ModelParams, f: int, classes: int):
    """Views of the weights (f x classes) and biases of one flat parameter vector."""
    if params.ndim != 1 or len(params) != param_dim(f, classes):
        raise ValueError(
            f"parameter vector of length {len(params)} does not match dimension {param_dim(f, classes)}"
        )
    return _split(params, f, classes)


def _split(params: np.ndarray, f: int, classes: int):
    """Views of the weights (... x f x classes) and biases (... x classes) of flat params.

    params may have leading axes, one flat vector per entry.
    """
    weights = params[..., : f * classes].reshape(params.shape[:-1] + (f, classes))
    return weights, params[..., f * classes :]


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
    train = Dataset(data.features[:cut], data.labels[:cut], data.classes)
    test = Dataset(data.features[cut:], data.labels[cut:], data.classes)
    return train, test


def evaluate_accuracy(params: ModelParams, data: Dataset) -> float:
    """Fraction of samples whose argmax logit matches the label, as a Python float."""
    n = data.n
    if n == 0:
        raise ValueError("empty dataset")
    # _check's steps inline: the leader calls this twice per decision
    weights, biases = _unpack(np.asarray(params, dtype=float), data.features.shape[1],
                              data.classes)
    logits = data._prepared.x[0] @ weights
    logits += biases
    return int(np.count_nonzero(logits.argmax(axis=1) == data.labels)) / n


def local_loss(params: ModelParams, stack: DataStack) -> list:
    """Each item's mean cross-entropy on its dataset (log-sum-exp stable), as Python floats.

    params is one flat vector that every item is scored with, or a k x dim
    stack of one vector per item. Item i's loss is bit-identical to a
    one-item call on its own dataset.
    """
    k, n, f = stack.x.shape
    if n == 0:
        raise ValueError("empty dataset")
    params = np.asarray(params, dtype=float)
    if params.ndim == 2:
        if len(params) != k:
            raise ValueError(f"{len(params)} parameter vectors for a stack of {k} datasets")
        _unpack(params[0], f, stack.classes)  # params is rectangular, so this checks every item
        weights, biases = _split(params, f, stack.classes)
    else:
        weights, biases = _unpack(params, f, stack.classes)
    return _stacks(f, stack.classes).step(k, n).losses(weights, biases, stack.x,
                                                       stack.label_at).tolist()


class DataStack:
    """k datasets of one shape (n rows, f features, classes), stacked once for the model calls.

    Holds the C-contiguous float64 features (k x n x f) and the flat
    indices of each row's label in a k x n x classes array, and builds the
    one-hot labels (k x n x classes) at their first use. Every model call
    on a dataset uses its one-item stack (`Dataset._prepared`); a caller
    that scores many datasets together builds their stack once.
    """

    def __init__(self, datas):
        self.classes = datas[0].classes
        if any(d.classes != self.classes for d in datas):
            raise ValueError("a stack needs datasets with one number of classes")
        x = [np.ascontiguousarray(d.features, dtype=float) for d in datas]
        self.x = x[0][None] if len(x) == 1 else np.stack(x)  # one item: no copy
        labels = np.stack([d.labels for d in datas])
        k, n = labels.shape
        # logp[item, rows, labels] through flat indices, which numpy gathers faster
        self.label_at = (np.arange(0, k * n * self.classes, self.classes).reshape(k, n)
                         + labels).ravel()

    @functools.cached_property
    def onehot(self) -> np.ndarray:
        onehot = np.zeros(self.x.shape[:2] + (self.classes,))
        np.put(onehot, self.label_at, 1.0)
        return onehot


class _Stacks:
    """The _GradientSteps of datasets of one (f, classes), one per (k items, m rows), on one buffer.

    Each model call runs one step at a time and spends its results before
    the next step runs, so the steps can share the memory of the largest:
    a stack of many items costs its buffers once, not once per k. The buffer
    is scratch space: no model function returns a view of it. So every
    dataset of a shape shares that shape's one _Stacks (`_stacks`).
    """

    def __init__(self, f: int, classes: int):
        self.f, self.classes = f, classes
        self.buffer = np.empty(0)
        self.steps = {}

    def step(self, k: int, m: int) -> _GradientStep:
        step = self.steps.get((k, m))
        if step is None:
            size = sum(map(math.prod, _GradientStep.shapes(k, m, self.f, self.classes)))
            if size > self.buffer.size:
                self.buffer = np.empty(size)
                self.steps.clear()  # they view the old buffer
            step = self.steps[k, m] = _GradientStep(k, m, self.f, self.classes, self.buffer)
        return step


_stacks = functools.cache(_Stacks)  # _stacks(f, classes): one per shape, for the process


def _pair_columns(a: np.ndarray) -> list:
    """Columns of a along its last axis, each adjacent pair 2k, 2k+1 as one complex128 view.

    An odd last column stays a real column view. Pairing needs numpy >= 1.23,
    which views the non-contiguous a[..., :even] as complex.
    """
    even = a.shape[-1] - a.shape[-1] % 2
    pairs = a[..., :even].view(complex)
    return [pairs[..., k] for k in range(even // 2)] + [a[..., j] for j in range(even, a.shape[-1])]


def _fold(ufunc, cols: list, out: np.ndarray) -> np.ndarray:
    """ufunc folded over cols from the left into out; a lone column is returned as it is."""
    acc = cols[0]
    for col in cols[1:]:
        acc = ufunc(acc, col, out=out)
    return acc


class _GradientStep:
    """Mean cross-entropy gradients of k stacked m-row batches, computed in preallocated buffers.

    Every buffer, and the batches x and onehot, has a leading item axis:
    item i's batch is x[i], onehot[i] and its parameters weights[i],
    biases[i]. One item's parameters may also come without the axis.

    Performs the floating-point operations of the textbook form (logits,
    log-softmax, exp, subtract the one-hot labels, divide by m, X^T @ probs,
    column sums) in the same order, so each item's results are bit-identical
    to it. Elementwise operations run over the whole stack, np.matmul runs
    per item (a stacked matmul calls the same kernel once per item), and
    nothing mixes two items, so a diverging item leaves its neighbours
    untouched. Row-wise broadcasts run one column at a time, which is exact
    and avoids numpy's slow short inner loops.

    Where the same operation runs on every column, adjacent class columns
    2k, 2k+1 run as one complex128 column (`_pair_columns`), which halves the
    numpy calls and is still exact: complex addition is the two float
    additions of its parts, so adding complex(b[2k], b[2k+1]) adds each bias
    to its own column, and `np.add.accumulate` of a complex column along the
    rows keeps two running sums that add the rows in order, as `sum(axis=0)`
    of a C-ordered matrix does. The row max and sum folds start from the
    first two columns (`_fold`), so they skip the copy of the first.
    """

    @staticmethod
    def shapes(k: int, m: int, f: int, classes: int) -> tuple:
        """Shapes of the logits, probs, row, bias and grad buffers."""
        return (k, m, classes), (k, m, classes), (k * m,), (k, classes), (k, param_dim(f, classes))

    def __init__(self, k: int, m: int, f: int, classes: int, buffer: np.ndarray):
        """Buffers are carved from the front of buffer."""
        shapes = self.shapes(k, m, f, classes)
        views, at = [], 0
        for shape in shapes:
            views.append(buffer[at : at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
        self.logits, self.probs, self.row, self.bias, self.grad = views
        self.gw, self.gb = _split(self.grad, f, classes)  # views of grad
        # Row-wise operations see each class column of all k * m rows as one
        # 1-D view, which numpy loops over fastest; per-item ones keep the axis.
        self.logit_cols = list(self.logits.reshape(k * m, classes).T)
        self.prob_cols = list(self.probs.reshape(k * m, classes).T)
        self.logit_pairs = _pair_columns(self.logits)
        self.prob_pairs = _pair_columns(self.probs)
        # the biases are copied into bias, so that they can be paired
        self.bias_pairs = _pair_columns(self.bias[:, None])
        self.gb_pairs = _pair_columns(self.gb)  # views of gb, one entry per item

    def log_softmax(self, weights, biases, x):
        """Log-softmax of x @ weights + biases, left in this step's logits buffer."""
        z, p, row = self.logits, self.probs, self.row
        np.matmul(x, weights, out=z)
        self.bias[...] = biases
        for col, b in zip(self.logit_pairs, self.bias_pairs):
            col += b
        top = _fold(np.maximum, self.logit_cols, row)
        for col in self.logit_cols:
            col -= top
        np.exp(z, out=p)
        # numpy sums rows pairwise from 8 elements on: fold columns only below 8.
        if len(self.prob_cols) < 8:
            total = _fold(np.add, self.prob_cols, row)
        else:
            total = p.reshape(row.size, -1).sum(axis=1, out=row)
        np.log(total, out=row)
        for col in self.logit_cols:
            col -= row
        return z

    def losses(self, weights, biases, x, label_at) -> np.ndarray:
        """Each item's mean of -logp at the flat indices label_at of the logits, as k floats."""
        # the row buffer's log totals are spent; mode="clip" writes straight to
        # out (label_at is in range), where numpy buffers out under "raise"
        picked = self.log_softmax(weights, biases, x).take(label_at, out=self.row, mode="clip")
        means = picked.reshape(len(self.bias), -1).mean(axis=1)
        return np.negative(means, out=means)

    def __call__(self, weights, biases, x, onehot):
        """Flat gradients on batches (x, onehot), one row per item, left in this step's grad buffer."""
        p = self.probs
        np.exp(self.log_softmax(weights, biases, x), out=p)
        p -= onehot  # equals probs[rows, labels] -= 1.0, since x - 0.0 == x
        p /= p.shape[-2]  # m
        np.matmul(x.swapaxes(-1, -2), p, out=self.gw)
        # The logits are spent, so each column's running sums go into its logits column.
        for gb, col, sums in zip(self.gb_pairs, self.prob_pairs, self.logit_pairs):
            gb[...] = np.add.accumulate(col, axis=-1, out=sums)[..., -1]
        return self.grad


def loss_gradient(params: ModelParams, data: Dataset) -> ModelParams:
    """Analytic gradient of local_loss with respect to the flat parameter vector."""
    weights, biases = _check(params, data)
    p = data._prepared
    return _stacks(*weights.shape).step(1, data.n)(weights, biases, p.x, p.onehot)[0].copy()


def draws_batches(cfg: TrainConfig, data: Dataset) -> bool:
    """True when local_train shuffles data into mini-batches, the only time it reads its seed."""
    return cfg.batch_size < data.n


def shape_groups(datas) -> list:
    """The indices of datas, grouped by shape (n, f, classes) in order of first appearance."""
    groups = {}
    for i, data in enumerate(datas):
        groups.setdefault((data.n, data.features.shape[1], data.classes), []).append(i)
    return list(groups.values())


def local_train(starts, datas, cfg: TrainConfig, seeds, pool: TrainPool | None = None) -> list:
    """Item i: cfg.epochs passes of mini-batch gradient descent from starts[i] on datas[i].

    Full batch when batch_size >= n. Deterministic given the item's (start,
    data, cfg, seed), and bit-identical to a one-item call of it; no start
    is mutated. seeds[i] is read only when draws_batches(cfg, datas[i]), and
    must then be an int. Items whose datasets share a shape (n, f, classes)
    train together as one stack, each with its own mini-batch order drawn
    from its own seed. Every stack trains in this process, unless pool is
    given: then a stack of its datasets with at least twice
    MIN_SHARE_ROW_EPOCHS of work (rows x epochs) trains in contiguous
    shares, this process training the first and the pool's helpers, forked
    once for the pool's life, each other one (`TrainPool.train`); no result
    depends on the split. Returns one entry per item: its trained
    parameters, or an ArithmeticError when they diverged to non-finite
    values. ValueError if an item's arguments are invalid.
    """
    if not len(starts) == len(datas) == len(seeds):
        raise ValueError("local_train needs one start, dataset and seed per item")
    stacks = []  # every item is checked before any stack trains
    for items in shape_groups(datas):
        w = np.array([starts[i] for i in items], dtype=float)  # a copy: no start is written to
        data = datas[items[0]]
        _check(w[0], data)  # w is rectangular, so this checks every item
        stack_seeds = [seeds[i] for i in items]
        if draws_batches(cfg, data) and None in stack_seeds:
            raise ValueError(f"a seed is None, but batch_size {cfg.batch_size} < {data.n} rows "
                             f"draws mini-batches, which needs an int seed")
        stacks.append((items, w, [datas[i] for i in items], stack_seeds))
    out = [None] * len(datas)
    train = _train_stack if pool is None else pool.train
    for items, w, stack_datas, stack_seeds in stacks:
        train(w, stack_datas, cfg, stack_seeds)
        finite = all_finite(w)  # else each item is tested on its own
        for i, params in zip(items, w):
            out[i] = params if finite or all_finite(params) else \
                ArithmeticError("training diverged to non-finite parameters")
    return out


# The least work, in rows x epochs, of a share of a stack, so a stack splits
# from twice this on: eight stock items of 1200 rows x 50 epochs. On a 2-vCPU
# VM, once a run's helper runs, two shares beat one from two stock items on
# (-12 to -15% at two and three, -21 to -42% from four to sixteen). But the
# run's first split forks the helper: at eight items it took 13.1 ms, a later
# split 9.4 ms and one share 14.6 ms, and the fork's copy-on-write faults fall
# on the rest of the run. The stock scenario's calls train at most five items
# and never split; at 120_000 or 60_000 each stock run forked a helper, took
# about 700 minor faults more and ran 5 to 11% slower (DBAFL and FedAVG).
MIN_SHARE_ROW_EPOCHS = 240_000


# A request's items, epochs, batch size and learning rate; then each item's
# position in the pool's datasets and its seed (int64), then its start rows.
_REQUEST = struct.Struct("<3qd")


class TrainPool:
    """Helper processes that train shares of stacks on the datasets the pool was made with.

    Forks nothing until the first stack that splits, then as many helpers as
    that stack has shares after the first, and keeps them for every later
    split. A helper inherits the datasets at its fork, so a request carries
    only each item's position in them, its seed, the TrainConfig and the
    start rows, and the reply only the trained rows. A helper runs under the
    numpy floating-point error handling in force at its fork. `close` ends
    and reaps every helper; the owner calls it on every exit path.
    """

    def __init__(self, datas, shares=None):
        """shares(row_epochs) is the number of shares a stack of that much work trains
        in. By default each share has at least MIN_SHARE_ROW_EPOCHS, and there is at
        most one per CPU this process may run on, a count read here once: one where the
        platform has no fork or CPU affinity."""
        self.datas = tuple(datas)
        self.positions = {data: i for i, data in enumerate(self.datas)}
        if shares is None:
            cpus = 1
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))

            def shares(row_epochs: int) -> int:
                return max(1, min(row_epochs // MIN_SHARE_ROW_EPOCHS, cpus))
        self.shares = shares
        self.helpers = []  # (pid, request pipe, reply pipe) of each forked helper

    def train(self, w: np.ndarray, datas, cfg: TrainConfig, seeds) -> None:
        """_train_stack(w, datas, cfg, seeds) on contiguous shares of the items of w (at
        most one per item): the first, the largest, in this process and each other in a
        helper. The whole stack trains here when it has one share, a dataset the pool was
        not made with, a seed that is not an int in [0, 2**63), or a fork is refused.
        RuntimeError if a helper failed; on any error every helper is killed and reaped.
        """
        k, n = len(w), datas[0].n
        count = min(k, self.shares(k * n * cfg.epochs))
        if count == 1:  # most calls
            return _train_stack(w, datas, cfg, seeds)
        draws = draws_batches(cfg, datas[0])
        if (not all(d in self.positions for d in datas)
                or draws and not all(type(s) is int and 0 <= s < 1 << 63 for s in seeds)
                or not self._start(count - 1)):
            return _train_stack(w, datas, cfg, seeds)
        cuts = [-(-k * j // count) for j in range(count + 1)]  # ceilings: the first share is largest
        spans = list(zip(cuts, cuts[1:]))
        # any batch of n rows or more is the full batch, so an int64 holds the size
        head = (cfg.epochs, min(cfg.batch_size, n), cfg.learning_rate)
        positions = [self.positions[d] for d in datas]
        sent = seeds if draws else [0] * k  # a helper reads no seed when nothing draws one
        helpers = self.helpers[: count - 1]
        try:
            for (_, requests, _), (lo, hi) in zip(helpers, spans[1:]):
                ints = np.array(positions[lo:hi] + sent[lo:hi], dtype=np.int64)
                _send(requests, _REQUEST.pack(hi - lo, *head), ints, w[lo:hi])
            lo, hi = spans[0]
            _train_stack(w[lo:hi], datas[lo:hi], cfg, seeds[lo:hi])
            received = [replies.readinto(w[lo:hi])
                        for (_, _, replies), (lo, hi) in zip(helpers, spans[1:])]
        except BaseException:
            self.close(kill=True)
            raise
        for slot, ((lo, hi), got) in enumerate(zip(spans[1:], received)):
            if got != w[lo:hi].nbytes:
                status = self.close(kill=True)[slot]
                raise RuntimeError(f"the child process training items {lo} to {hi - 1} of a "
                                   f"stack failed: exit code {os.waitstatus_to_exitcode(status)}, "
                                   f"{got} of {w[lo:hi].nbytes} bytes")

    def _start(self, count: int) -> bool:
        """True once the pool has at least count helpers, forking those it lacks; False
        if the system refuses a pipe or a fork."""
        try:
            while len(self.helpers) < count:
                self.helpers.append(self._fork())
        except OSError:
            return False
        return True

    def _fork(self) -> tuple:
        """(pid, request pipe, reply pipe) of a new helper, which serves until the
        request pipe ends. It leaves through os._exit, so it runs no exit handler and
        flushes none of this process's buffers; its exit code is 1 on any exception,
        which it does not print."""
        fds = os.pipe() + os.pipe()  # requests: read, write; replies: read, write
        try:
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                # an earlier helper sees the end of its requests only once no
                # process but this one holds their write end
                for _, requests, replies in self.helpers:
                    os.close(requests.fileno())
                    os.close(replies.fileno())
                os.close(fds[1])
                os.close(fds[2])
                _serve(self.datas, open(fds[0], "rb"), open(fds[3], "wb", buffering=0))
                code = 0
            finally:
                os._exit(code)
        os.close(fds[0])
        os.close(fds[3])
        return pid, open(fds[1], "wb", buffering=0), open(fds[2], "rb")

    def close(self, kill: bool = False) -> list:
        """Ends every helper, killing it first when kill, and reaps it; returns their
        wait statuses. A helper that is not killed exits at the end of its requests."""
        helpers, self.helpers = self.helpers, []
        if kill and helpers:
            import signal  # only this path needs it, and its import costs about 1 ms
        for pid, requests, replies in helpers:
            requests.close()
            replies.close()
            if kill:
                os.kill(pid, signal.SIGKILL)
        return [os.waitpid(pid, 0)[1] for pid, _, _ in helpers]


def _send(pipe, *parts) -> None:
    """Writes each buffer of parts to the unbuffered pipe in full: a write may take part of one."""
    for part in parts:
        view = memoryview(part).cast("B")
        while view:
            view = view[pipe.write(view):]


def _serve(datas, requests, replies) -> None:
    """A helper's loop: trains the rows of each request on datas and sends them back,
    until the requests end."""
    while head := requests.read(_REQUEST.size):
        k, epochs, batch_size, learning_rate = _REQUEST.unpack(head)
        ints = np.frombuffer(requests.read(16 * k), dtype=np.int64).tolist()
        share = [datas[i] for i in ints[:k]]
        data = share[0]
        w = np.empty((k, param_dim(data.features.shape[1], data.classes)))
        requests.readinto(w)
        _train_stack(w, share, TrainConfig(epochs, learning_rate, batch_size), ints[k:])
        _send(replies, w)


def _train_stack(w: np.ndarray, datas, cfg: TrainConfig, seeds) -> None:
    """Trains the k x dim parameters w in place, item i on datas[i]; the datas share one shape.

    Its arguments are checked by local_train.
    """
    k, data = len(datas), datas[0]
    n, f, classes = data.n, data.features.shape[1], data.classes
    weights, biases = _split(w, f, classes)  # views: updating w updates them
    prepared = [d._prepared for d in datas]
    stacks = _stacks(f, classes)
    x = np.concatenate([p.x for p in prepared])  # k x n x f
    onehot = np.concatenate([p.onehot for p in prepared])
    rngs = None
    if draws_batches(cfg, data):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        first_row = np.arange(0, k * n, n)[:, None]  # item i's rows start at i * n
        x, onehot = x.reshape(k * n, f), onehot.reshape(k * n, classes)
    size = cfg.batch_size
    for _ in range(cfg.epochs):
        if rngs is None:
            batches = [(x, onehot)]
        else:
            order = np.concatenate([rng.permutation(n) for rng in rngs]).reshape(k, n)
            order += first_row
            batches = [(x[rows], onehot[rows])
                       for rows in (order[:, lo : lo + size] for lo in range(0, n, size))]
        for xb, yb in batches:
            grad = stacks.step(k, xb.shape[1])(weights, biases, xb, yb)
            grad *= cfg.learning_rate
            w -= grad


def global_objective(epsilons, losses, K: int) -> float:
    """Diagnostic objective: sum_k (eps_k / K) * h_k."""
    epsilons = list(epsilons)
    losses = list(losses)
    if len(epsilons) != K or len(losses) != K:
        raise ValueError("epsilons and losses must both have length K")
    return float(sum(e * h for e, h in zip(epsilons, losses)) / K)

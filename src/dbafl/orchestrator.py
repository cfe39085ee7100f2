"""Event-driven protocol simulation: node lifecycles, committee service, attacks.

Every node cycles through download, train, self-test, upload, and a wait
for the aggregation decision; which of those legs exist, and who serves
the aggregation, depends on the strategy's row in STRATEGIES.  Asynchronous
strategies aggregate each arrival as it lands, synchronous ones hold a
barrier for all K fresh models.  The simulation is fully deterministic:
all randomness flows from the master seed through derive_seed, and
simultaneous events replay in insertion order.
"""

from __future__ import annotations

import enum
import hashlib
import math
import re
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .aggregation import (DefenseMode, DefensePolicy, aggregate_async, aggregate_fedavg,
                          defense_filter, scaling_factor)
from .chain import (Chain, CommitteeState, BlockCutPolicy, HashRecord, RecordKind,
                    hash_model, verify_record)
from .model import (DataStack, Dataset, ModelParams, TrainConfig, TrainPool, draws_batches,
                    evaluate_accuracy, generate_synthetic_dataset, global_objective,
                    holdout_rows, init_params, local_loss, local_train, shape_groups,
                    split_dataset)
from .netsim import (DdosConfig, EventQueue, LatencyBreakdown, LinkParams, PayloadSizes,
                     ddos_effective_rate, round_latency, shannon_rate, tx_time)

DEFAULT_LINK = LinkParams(mobile_bandwidth_hz=20e6, mobile_snr=3.0,
                          ethernet_rate_bps=1e9)
DEFAULT_PAYLOAD = PayloadSizes(model_bits=80_000_000, hash_bits=256, block_bits=8000)
DEFAULT_TRAIN = TrainConfig(epochs=50, learning_rate=0.01, batch_size=1500)

STAGES = ("training", "testing", "communication", "waiting")
# The most duration_s / metrics_interval_s: run() schedules every sample up front.
MAX_SAMPLES = 10**6
# The most values in the shared pool, rows times (features + classes): 80 MB of float64.
MAX_POOL_VALUES = 10**7


def derive_seed(master: int, purpose: str, *indices: int) -> int:
    """Child seed for one (purpose, index...) slot, stable across runs."""
    tag = ":".join([str(master), purpose, *(str(i) for i in indices)])
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big") >> 1


class Role(enum.Enum):
    BUS = "Bus"
    RSU = "RSU"


# The one spelling of a number in text (fullmatch): plain decimal or exponent
# digits, not "1_0", " 2" or non-ASCII digits, which float() also reads. The
# words inf and nan pass, for the caller's finiteness check to name them.
PLAIN_NUMBER = re.compile(r"(?i)[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf(inity)?|nan)")


@dataclass(frozen=True)
class Strategy:
    """Aggregation discipline: its canonical label and the decisions that set
    it apart. The simulator reads only the decisions, never the label."""

    label: str
    serves: bool = True          # some node aggregates uploads; else each keeps its own
    chain: bool = False          # digests go on the committee's chain
    barrier: bool = False        # one aggregation once all K fresh models have arrived
    bootstrap: bool = False      # the serving node trains the first global alone
    size_weighted: bool = False  # barrier mean and objective weights by sample count
    takes_epsilon: bool = False  # the label names epsilon, e.g. StaticEps:0.5
    epsilon: Optional[float] = 1.0  # each model's scaling factor; None: the accuracy ratio

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        name, sep, eps = text.partition(":")
        row = STRATEGIES.get(name)
        if row is None:
            raise ValueError(f"unknown strategy {text!r}")
        if not row.takes_epsilon:
            if sep:
                raise ValueError(f"{name} does not take an epsilon")
            return row
        if not sep:
            raise ValueError(f"{name} needs an epsilon, e.g. {name}:1.0")
        if not PLAIN_NUMBER.fullmatch(eps):
            raise ValueError(f"{name} epsilon must be a number, got {eps!r}")
        epsilon = float(eps)
        if not 0 < epsilon < math.inf:
            raise ValueError(f"{name} needs a positive finite epsilon")
        return replace(row, label=f"{name}:{epsilon!r}", epsilon=epsilon)


# Each stock strategy's row, keyed by its label (less any epsilon).
STRATEGIES = {s.label: s for s in (
    Strategy("DBAFL", chain=True, bootstrap=True, epsilon=None),
    Strategy("BSFL", chain=True, barrier=True, bootstrap=True),
    Strategy("FedAVG", barrier=True, size_weighted=True),
    Strategy("StaticEps", chain=True, bootstrap=True, takes_epsilon=True),
    Strategy("LocalOnly", serves=False),
    Strategy("AFL", bootstrap=True),
)}


@dataclass(frozen=True)
class NodeConfig:
    id: int
    role: Role = Role.RSU
    compute_time_multiplier: float = 1.0  # simulated s of training per epoch per 1000 samples
    dataset: Optional[Dataset] = None     # None derives a slice of the shared pool
    link: LinkParams = DEFAULT_LINK

    def __post_init__(self) -> None:
        if not 0 <= self.id < 1 << 64:  # chain records pack it as an unsigned 64-bit field
            raise ValueError(f"id must be in [0, 2**64), got {self.id}")
        if not self.compute_time_multiplier >= 1.0:  # NaN fails it too
            raise ValueError("compute_time_multiplier must be at least 1")


@dataclass(frozen=True)
class DataSpec:
    """Geometry of the synthetic pool each node draws its slice from."""

    samples_per_node: int = 1500
    features: int = 2
    classes: int = 2
    separation: float = 4.0
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.samples_per_node < 10:
            raise ValueError("samples_per_node must be at least 10")
        if self.features < 1:
            raise ValueError("features must be at least 1")
        if self.classes < 2:
            raise ValueError("classes must be at least 2")
        if not self.separation >= 0:  # NaN fails it too
            raise ValueError("separation must be non-negative")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        holdout_rows(self.samples_per_node, self.test_fraction)  # raises on an empty split


@dataclass(frozen=True)
class AttackConfig:
    poisoners: frozenset[int] = frozenset()
    poison_magnitude: float = 10.0
    ddos: Optional[DdosConfig] = None
    defense: DefensePolicy = DefensePolicy.off()

    def __post_init__(self) -> None:
        if not self.poison_magnitude > 0:  # NaN fails it too
            raise ValueError("poison_magnitude must be positive")
        object.__setattr__(self, "poisoners", frozenset(self.poisoners))


@dataclass(frozen=True)
class ScenarioConfig:
    """One run; the field defaults are the paper's stock experiment."""

    nodes: tuple[NodeConfig, ...] = (  # three RSUs, then two buses at 4x compute
        NodeConfig(0), NodeConfig(1), NodeConfig(2),
        NodeConfig(3, Role.BUS, 4.0), NodeConfig(4, Role.BUS, 4.0))
    strategy: Strategy = Strategy.parse("DBAFL")
    train: TrainConfig = DEFAULT_TRAIN
    data: DataSpec = DataSpec()
    chain_policy: BlockCutPolicy = BlockCutPolicy()
    term_blocks: int = 10
    payload: PayloadSizes = DEFAULT_PAYLOAD
    attack: AttackConfig = AttackConfig()
    duration_s: float = 600.0
    master_seed: int = 1
    metrics_interval_s: float = 5.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("nodes: need at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("nodes: ids must be unique")
        if self.strategy.serves and not any(n.role is Role.RSU for n in self.nodes):
            raise ValueError(
                f"nodes: {self.strategy.label} needs at least one RSU to serve")
        # a non-finite horizon or sampling interval would never end a run
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        if not 0 < self.metrics_interval_s < math.inf:
            raise ValueError("metrics_interval_s must be positive and finite")
        if self.duration_s / self.metrics_interval_s > MAX_SAMPLES:
            raise ValueError(f"metrics_interval_s must leave at most {MAX_SAMPLES} samples "
                             f"in duration_s = {self.duration_s!r}, got "
                             f"{self.metrics_interval_s!r}")
        rows = self.data.samples_per_node * len(self.nodes)
        if self.data.classes > rows:  # the shared pool needs a row of each class
            raise ValueError(f"data.classes must not exceed the {rows} rows of the shared "
                             f"pool (data.samples_per_node * len(nodes)), got {self.data.classes}")
        values = rows * (self.data.features + self.data.classes)
        if values > MAX_POOL_VALUES:
            raise ValueError(f"data: the shared pool holds data.samples_per_node * len(nodes) "
                             f"* (data.features + data.classes) = {values} values, more "
                             f"than {MAX_POOL_VALUES}")
        if self.term_blocks < 1:
            raise ValueError("term_blocks must be at least 1")
        if not self.attack.poisoners <= set(ids):
            raise ValueError("attack.poisoners must reference configured node ids")
        if self.attack.defense.mode is not DefenseMode.OFF and (
                self.strategy.barrier or not self.strategy.serves):
            raise ValueError(f"attack.defense: {self.strategy.label} never applies it; only a "
                             f"serving node that aggregates each arrival as it lands does")
        for i, n in enumerate(self.nodes):
            if n.dataset is not None:
                _check_node_dataset(n.dataset, self.data, f"nodes[{i}].dataset.")


def _check_node_dataset(ds: Dataset, spec: DataSpec, where: str) -> None:
    """A node's own dataset must fit the model that data describes."""
    x, labels = np.asarray(ds.features), np.asarray(ds.labels)
    if ds.classes != spec.classes:
        raise ValueError(f"{where}classes must equal data.classes = {spec.classes}, "
                         f"got {ds.classes}")
    if x.ndim != 2 or x.shape[1] != spec.features:
        raise ValueError(f"{where}features must be rows of data.features = "
                         f"{spec.features} values, got shape {x.shape}")
    if not np.isfinite(x).all():  # training on them diverges
        raise ValueError(f"{where}features must be finite numbers")
    if labels.shape != (len(x),) or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"{where}labels must hold one integer label per features "
                         f"row ({len(x)}), got {labels.dtype} of shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= ds.classes):
        raise ValueError(f"{where}labels must lie in [0, {ds.classes}), got "
                         f"{labels.min()}..{labels.max()}")
    try:
        holdout_rows(len(x), spec.test_fraction)
    except ValueError as exc:
        raise ValueError(f"{where.rstrip('.')}: data.{exc}") from None


# The records made per sample, round, arrival or decision are named tuples,
# immutable and with no per-instance __dict__: a chain-heavy run holds
# thousands, and builds most of them on the leader's per-decision path.
class MetricsRow(NamedTuple):
    sim_time_s: float
    avg_test_accuracy: float
    global_objective: float
    t_training: float       # cumulative seconds, summed over nodes
    t_testing: float
    t_communication: float
    t_waiting: float
    blocks_appended: int
    current_leader: int     # -1 when no node serves aggregations


class RoundLog(NamedTuple):
    node_id: int
    round_index: int
    start_s: float
    download_done_s: float
    train_done_s: float
    test_done_s: float
    upload_done_s: float
    decision_s: float


class StepVerdict(enum.Enum):
    ACCEPTED = "Accepted"
    DISCARDED = "Discarded"
    TAMPERED = "Tampered"
    IGNORED = "Ignored"


class DecisionLog(NamedTuple):
    time_s: float
    node_id: int
    round_index: int
    verdict: StepVerdict
    epsilon: Optional[float]
    acc_local: Optional[float]
    acc_global: Optional[float]
    upload_digest: bytes
    global_digest_before: bytes
    global_digest_after: bytes


@dataclass
class RunResult:
    config: ScenarioConfig
    rows: list
    node_accuracies: list   # one tuple per row, node accuracies in config order
    chain: Optional[Chain]
    stage_totals: dict      # node id -> {stage: cumulative seconds at duration}
    decisions: list
    round_logs: list        # every finished round; a barrier round is K sharing a decision_s


def node_datasets(cfg: ScenarioConfig) -> list:
    """Per-node (train, test) splits, in configuration order.

    Nodes without an explicit dataset share one seeded pool, sliced by
    position, so the population is identically distributed across nodes.
    """
    pool = generate_synthetic_dataset(
        seed=derive_seed(cfg.master_seed, "data"),
        n=cfg.data.samples_per_node * len(cfg.nodes),
        f=cfg.data.features, classes=cfg.data.classes,
        separation=cfg.data.separation)
    out = []
    for position, node in enumerate(cfg.nodes):
        if node.dataset is not None:
            out.append(split_dataset(node.dataset, cfg.data.test_fraction))
            continue
        lo = position * cfg.data.samples_per_node
        hi = lo + cfg.data.samples_per_node
        piece = Dataset(pool.features[lo:hi].copy(), pool.labels[lo:hi].copy(),
                        pool.classes)
        out.append(split_dataset(piece, cfg.data.test_fraction))
    return out


# ------------------------------------------------------------------ operations


def poison(params: ModelParams, magnitude: float, rng_seed: int) -> ModelParams:
    """Uploaded-copy corruption: seeded uniform noise in [-magnitude, +magnitude]."""
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    rng = np.random.default_rng(rng_seed)
    return params + rng.uniform(-magnitude, magnitude, size=params.shape)


def average_test_accuracy(accuracies: Sequence[float]) -> float:
    """Arithmetic mean of the nodes' current-model accuracies."""
    if len(accuracies) == 0:
        raise ValueError("need at least one accuracy")
    return float(np.mean(np.asarray(accuracies, dtype=float)))


def synchronous_round(strategy: Strategy, w_global_prev: ModelParams,
                      models: Sequence[ModelParams],
                      sizes: Sequence[int]) -> ModelParams:
    """One barrier aggregation over all K fresh local models.

    FedAVG takes the sample-size-weighted mean; the synchronized chain
    variant folds the models into the previous global in arrival order,
    each with the strategy's scaling factor.
    """
    if not strategy.barrier:
        raise ValueError(f"{strategy.label} does not aggregate on a barrier")
    if strategy.size_weighted:
        return aggregate_fedavg(models, sizes)
    out = w_global_prev
    for m in models:
        out = aggregate_async(out, m, strategy.epsilon)
    return out


class IncomingModel(NamedTuple):
    params: ModelParams
    record: HashRecord  # names the uploader and its round


class StepOutcome(NamedTuple):
    verdict: StepVerdict
    epsilon: Optional[float]
    acc_local: Optional[float]
    acc_global: Optional[float]
    global_params: Optional[ModelParams] = None  # the new global; None unless accepted


def leader_aggregation_step(global_params: ModelParams, test_data: Dataset,
                            incoming: IncomingModel, c: Optional[Chain],
                            defense: DefensePolicy,
                            epsilon: Optional[float] = None) -> StepOutcome:
    """Process one model arrival: verify, filter, weigh, aggregate.

    With a chain, the upload must hash to the digest recorded for it, sealed
    or still in the open block.  Tampering blacklists the sender (the step's
    one side effect); a blacklisted sender is ignored outright until the
    next election.  Without a chain (AFL) there is nothing to verify against
    and no blacklist.  epsilon weighs an accepted model; None applies the
    accuracy-ratio rule on the leader's test_data.  An accepted model yields
    a new global array; global_params itself is never mutated, and
    publishing is the caller's.
    """
    if c is not None:
        if c.committee is None:
            raise ValueError("chain has no committee attached")
        if incoming.record.node_id in c.committee.blacklist:
            return StepOutcome(StepVerdict.IGNORED, None, None, None)
        if not verify_record(c, incoming.params, incoming.record):
            return StepOutcome(StepVerdict.TAMPERED, None, None, None)
    acc_l = acc_g = None
    if defense.mode is not DefenseMode.OFF or epsilon is None:
        acc_l = evaluate_accuracy(incoming.params, test_data)
        acc_g = evaluate_accuracy(global_params, test_data)
        if not defense_filter(acc_l, acc_g, defense):
            return StepOutcome(StepVerdict.DISCARDED, None, acc_l, acc_g)
    if epsilon is None:
        epsilon = scaling_factor(acc_l, acc_g)
    return StepOutcome(StepVerdict.ACCEPTED, epsilon, acc_l, acc_g,
                       aggregate_async(global_params, incoming.params, epsilon))


# ------------------------------------------------------------------ simulation


class _NodeRT:
    """Mutable per-node runtime state and stage accounting."""

    def __init__(self, cfg: NodeConfig, train_data: Dataset, test_data: Dataset,
                 train_cfg: TrainConfig, payload: PayloadSizes):
        self.cfg = cfg
        # link constants; a radio rate's round_latency is built at its first
        # use, since a zero rate must fail only when a transfer needs the radio
        self.radio_bps = shannon_rate(cfg.link)
        self.latency: dict = {}  # (radio rate, serving node's backbone rate) -> LatencyBreakdown
        self.eth_model_s = tx_time(payload.model_bits, cfg.link.ethernet_rate_bps)
        self.eth_hash_s = tx_time(payload.hash_bits, cfg.link.ethernet_rate_bps)
        self.train_data = train_data
        self.test_data = test_data
        self.params = init_params(train_data.features.shape[1], train_data.classes)
        self.base_version = 0
        self.round = 0
        self.last_eps = 1.0
        self.train_time = cfg.compute_time_multiplier * train_cfg.epochs \
            * train_data.n / 1000.0
        self.test_time = cfg.compute_time_multiplier * test_data.n / 1000.0
        self.unread = False  # from a train event until its result is read or discarded
        self.stage = "waiting"
        self.since = 0.0
        self.committed = dict.fromkeys(STAGES, 0.0)
        self.marks = {}
        # (params, value) of the last sampled accuracy and loss; the params
        # array's identity is enough, since no params array is mutated after
        # it is created: training copies its start, aggregation returns new arrays
        self.sampled_acc = (None, 0.0)
        self.sampled_loss = (None, 0.0)

    def switch(self, now: float, stage: str) -> None:
        self.committed[self.stage] += now - self.since
        self.stage = stage
        self.since = now

    def totals_at(self, now: float) -> dict:
        out = dict(self.committed)
        out[self.stage] += now - self.since
        return out


class _Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.strategy = strategy = cfg.strategy
        datasets = node_datasets(cfg)
        self.nodes = [_NodeRT(nc, tr, te, cfg.train, cfg.payload)
                      for nc, (tr, te) in zip(cfg.nodes, datasets)]
        self.by_id = {n.cfg.id: n for n in self.nodes}
        # the nodes' training rows, stacked once per shape for the sampled losses
        trains = [n.train_data for n in self.nodes]
        self.loss_stacks = [([self.nodes[i] for i in items], DataStack([trains[i] for i in items]))
                            for items in shape_groups(trains)]
        self.pool = TrainPool(trains)  # its helpers live until run_scenario closes it
        self.global_params = init_params(cfg.data.features, cfg.data.classes)
        self.global_digest: Optional[bytes] = None  # of global_params once published
        self.global_version = 0
        rsu_ids = tuple(n.id for n in cfg.nodes if n.role is Role.RSU)
        self.server_id = rsu_ids[0] if strategy.serves else None  # None: no node serves
        self.chain: Optional[Chain] = None
        if strategy.chain:
            committee = CommitteeState(members=rsu_ids, term_blocks=cfg.term_blocks)
            self.chain = Chain(policy=cfg.chain_policy, committee=committee)
        # (time, node, incoming) per upload: an asynchronous service serves the
        # head, a barrier waits for all K
        self.arrivals: deque = deque()
        self.q = EventQueue()
        self.rows: list = []
        self.node_accuracies: list = []
        self.decisions: list = []
        self.round_logs: list = []
        # trainings due within the horizon: node -> (start params, train data, seed)
        # until trained, then node -> trained params or the error training raised
        self.untrained: dict = {}
        self.trained: dict = {}
        if strategy.size_weighted:
            total = sum(n.train_data.n for n in self.nodes)
            for n in self.nodes:
                n.last_eps = len(self.nodes) * n.train_data.n / total

    # -------------------------------------------------------------- plumbing

    def _aggregator(self) -> Optional[int]:
        if self.chain is not None:
            return self.chain.committee.leader
        return self.server_id

    def _keeper(self) -> Optional[int]:
        """Id of the node serving an asynchronous strategy, which uploads no model."""
        return None if self.strategy.barrier else self._aggregator()

    def _flood_target(self, ddos: DdosConfig) -> Optional[int]:
        if self.chain is None:
            return self.server_id  # a static server is trivially tracked
        history = self.chain.committee.leader_history
        idx = len(history) - 1 - ddos.retarget_lag_terms
        return history[idx] if idx >= 0 else None

    def _radio(self, node: _NodeRT, endpoint: int) -> LatencyBreakdown:
        """node's stage latencies at the radio rate a flood on endpoint leaves it,
        with endpoint, the serving node, mirroring over its own backbone."""
        rate = node.radio_bps
        ddos = self.cfg.attack.ddos
        if ddos is not None:
            rate = ddos_effective_rate(rate, ddos, self._flood_target(ddos) == endpoint)
        key = (rate, self.by_id[endpoint].cfg.link.ethernet_rate_bps)
        lat = node.latency.get(key)
        if lat is None:
            lat = node.latency[key] = round_latency(self.cfg.payload, *key)
        return lat

    def _download_duration(self, node: _NodeRT) -> float:
        source = self._aggregator()
        if node.cfg.id == source:
            return 0.0
        if node.cfg.role is Role.RSU:
            if self.chain is not None:
                return 0.0  # replicas are already synchronized across RSUs
            return node.eth_model_s
        return self._radio(node, source).t_dn

    def _upload_duration(self, node: _NodeRT) -> float:
        target = self._aggregator()
        if self.chain is not None:
            peers = len(self.chain.committee.members) > 1
            if node.cfg.role is Role.RSU:
                if not peers:
                    return 0.0
                return node.eth_model_s + node.eth_hash_s
            lat = self._radio(node, target)
            return lat.t_up if peers else lat.t_up_model + lat.t_up_hash
        if node.cfg.id == target:
            return 0.0
        if node.cfg.role is Role.RSU:
            return node.eth_model_s
        return self._radio(node, target).t_up_model

    def _service_extras(self, leader: _NodeRT) -> float:
        """Digest notification and replica sync once a new global exists."""
        if self.chain is None:
            return 0.0
        lat = self._radio(leader, leader.cfg.id)
        return lat.t_ag if len(self.chain.committee.members) > 1 else lat.t_up_hash

    def _submit(self, record: HashRecord, now: float) -> None:
        """Record on the chain; a block this opens gets a max-wait timer naming its index."""
        if self.chain.submit(record, now):
            self.q.schedule(now + self.chain.policy.max_wait_s, ("cut", len(self.chain)))

    def _publish(self, params: ModelParams, digest: bytes) -> None:
        """Make a new global visible to downloads and sampling."""
        self.global_params = params
        self.global_digest = digest
        self.global_version += 1

    def _publish_aggregate(self, params: ModelParams, server_id: int, now: float) -> None:
        """Publish an aggregation's new global and record its digest as server_id's."""
        # the aggregations published before this one; the bootstrap's global is none
        round_ = self.global_version - self.strategy.bootstrap
        self._publish(params, hash_model(params))
        if self.chain is not None:
            self._submit(HashRecord(RecordKind.GLOBAL, server_id, round_, self.global_digest), now)

    def _upload_payload(self, node: _NodeRT) -> IncomingModel:
        params = self._model(node)  # never mutated, like every params array
        if node.cfg.id in self.cfg.attack.poisoners:
            params = poison(params, self.cfg.attack.poison_magnitude,
                            derive_seed(self.cfg.master_seed, "poison",
                                        node.cfg.id, node.round))
        record = HashRecord(RecordKind.LOCAL, node.cfg.id, node.round, hash_model(params))
        return IncomingModel(params, record)

    def _schedule_train(self, now: float, node: _NodeRT) -> None:
        """Start node's training at now; its inputs are fixed from here on.

        A training due within the horizon is registered; it is computed only
        when _model first reads its result.
        """
        start = self._model(node)
        node.marks["dl"] = now
        node.switch(now, "training")
        due = now + node.train_time
        if due <= self.cfg.duration_s:  # run() processes exactly the events due by then
            seed = None
            if draws_batches(self.cfg.train, node.train_data):
                seed = derive_seed(self.cfg.master_seed, "train", node.cfg.id, node.round)
            self.untrained[node] = (start, node.train_data, seed)
        self.q.schedule(due, ("train", node))

    def _model(self, node: _NodeRT) -> ModelParams:
        """node's current params, computing its finished training at the first read.

        That read trains every registered training in one local_train call,
        but for the serving node's, which is left out unless it is the one
        read.  A training that diverged comes back from local_train as an
        ArithmeticError, which is raised here.
        """
        if node.unread:
            node.unread = False
            if node not in self.trained:
                keeper = self._keeper()
                batch = [n for n in self.untrained if n is node or n.cfg.id != keeper]
                starts, datas, seeds = zip(*map(self.untrained.pop, batch))
                results = local_train(starts, datas, self.cfg.train, seeds, self.pool)
                self.trained.update(zip(batch, results))
            params = self.trained.pop(node)
            if isinstance(params, ArithmeticError):
                raise params
            node.params = params
        return node.params

    def _finish_round(self, node: _NodeRT, upload_done: float, decision: float) -> None:
        m = node.marks
        self.round_logs.append(RoundLog(
            node.cfg.id, node.round, m["start"], m["dl"], m["train"], m["test"],
            upload_done, decision))
        node.round += 1

    # -------------------------------------------------------------- handlers

    def _on_start(self, now: float, node: _NodeRT) -> None:
        node.marks = {"start": now}
        if node.base_version != self.global_version:
            # no global is mutated once published, so the array itself is the snapshot
            node.switch(now, "communication")
            self.q.schedule(now + self._download_duration(node),
                            ("dl", node, self.global_version, self.global_params))
            return
        self._schedule_train(now, node)

    def _on_dl(self, now: float, node: _NodeRT, version: int,
               snapshot: ModelParams) -> None:
        # the download replaces a result nobody read, if any: never compute it
        node.unread = False
        self.untrained.pop(node, None)
        self.trained.pop(node, None)
        node.params = snapshot
        node.base_version = version
        self._schedule_train(now, node)

    def _on_train(self, now: float, node: _NodeRT) -> None:
        node.unread = True  # from now on, node's model is its training's result
        node.marks["train"] = now
        node.switch(now, "testing")
        self.q.schedule(now + node.test_time, ("test", node))

    def _on_test(self, now: float, node: _NodeRT) -> None:
        node.marks["test"] = now
        # the bootstrap upload: nothing is published before it, so only the server runs
        if self.global_version == 0 and self.strategy.bootstrap:
            node.switch(now, "communication")
            self.q.schedule(now + self._upload_duration(node),
                            ("boot_up", node, self._model(node)))
            return
        if self.strategy.serves and node.cfg.id != self._keeper():
            incoming = self._upload_payload(node)
            node.switch(now, "communication")
            self.q.schedule(now + self._upload_duration(node), ("up", node, incoming))
            return
        # the serving node, or any node when none serves, keeps its model and trains on
        self._finish_round(node, now, now)
        self.q.schedule(now, ("start", node))

    def _on_boot_up(self, now: float, node: _NodeRT, params: ModelParams) -> None:
        digest = hash_model(params)
        self._publish(params, digest)
        node.base_version = self.global_version
        if self.chain is not None:
            self._submit(HashRecord(RecordKind.LOCAL, node.cfg.id, 0, digest), now)
            self._submit(HashRecord(RecordKind.GLOBAL, node.cfg.id, 0, digest), now)
            self.chain.seal(now)  # the initial digests become the first block right away
        self._finish_round(node, now, now)
        self._start_all(now)

    def _start_all(self, now: float) -> None:
        """Start every node at now; a barrier strategy's round opens with them."""
        self.arrivals.clear()
        for node in self.nodes:
            self.q.schedule(now, ("start", node))

    def _on_up(self, now: float, node: _NodeRT, incoming: IncomingModel) -> None:
        if self.chain is not None:
            self._submit(incoming.record, now)
        node.switch(now, "waiting")
        self.arrivals.append((now, node, incoming))
        if self.strategy.barrier:
            if len(self.arrivals) == len(self.nodes):
                server = self.by_id[self._aggregator()]
                self.q.schedule(now + self._service_extras(server), ("sync_done",))
        elif len(self.arrivals) == 1:
            self.q.schedule(now, ("svc",))

    def _on_svc(self, now: float) -> None:
        _, _, incoming = self.arrivals[0]
        server = self.by_id[self._aggregator()]
        outcome = leader_aggregation_step(
            self.global_params, server.test_data, incoming, self.chain,
            self.cfg.attack.defense, self.strategy.epsilon)
        dur = 0.0
        if outcome.acc_local is not None:
            dur += 2.0 * server.test_time  # incoming and current global, both re-tested
        if outcome.verdict is StepVerdict.ACCEPTED:
            dur += self._service_extras(server)
        # the leader may change before svc_done, but the record names who served
        self.q.schedule(now + dur, ("svc_done", outcome, server.cfg.id))

    def _on_svc_done(self, now: float, outcome: StepOutcome, server_id: int) -> None:
        # the step's new global goes public only once its service time is charged
        arrived, node, incoming = self.arrivals.popleft()
        before = self.global_digest
        if outcome.verdict is StepVerdict.ACCEPTED:
            self._publish_aggregate(outcome.global_params, server_id, now)
            node.last_eps = outcome.epsilon
        self.decisions.append(DecisionLog(
            now, node.cfg.id, incoming.record.round, outcome.verdict, outcome.epsilon,
            outcome.acc_local, outcome.acc_global, incoming.record.digest, before,
            self.global_digest))
        self._finish_round(node, arrived, now)
        self.q.schedule(now, ("start", node))
        if self.arrivals:
            self.q.schedule(now, ("svc",))

    def _on_sync_done(self, now: float) -> None:
        models = [incoming.params for _, _, incoming in self.arrivals]
        sizes = [node.train_data.n for _, node, _ in self.arrivals]
        new_global = synchronous_round(self.strategy, self.global_params, models, sizes)
        self._publish_aggregate(new_global, self._aggregator(), now)
        for arrived, node, _ in self.arrivals:
            self._finish_round(node, arrived, now)
        self._start_all(now)

    def _on_cut(self, now: float, index: int) -> None:
        if len(self.chain) == index:  # no block has been sealed since this timer was set
            self.chain.seal(now)

    def _sample_losses(self) -> None:
        """Each node's loss of the model the objective scores: the global, or its own
        when no node serves. One local_loss call per shape group scores every node
        of the group whose scored model changed since the last sample."""
        serves = self.strategy.serves
        for group, stack in self.loss_stacks:
            scored = [self.global_params if serves else n.params for n in group]
            stale = [i for i, (n, p) in enumerate(zip(group, scored))
                     if n.sampled_loss[0] is not p]
            if not stale:
                continue
            if len(stale) < len(group):  # some nodes' own models did not change
                stack = DataStack([group[i].train_data for i in stale])
            params = self.global_params if serves else np.array([scored[i] for i in stale])
            for i, loss in zip(stale, local_loss(params, stack)):
                group[i].sampled_loss = (scored[i], loss)

    def _on_sample(self, now: float) -> None:
        for n in self.nodes:
            params = self._model(n)
            if n.sampled_acc[0] is not params:
                n.sampled_acc = (params, evaluate_accuracy(params, n.test_data))
        self._sample_losses()
        accs = tuple(n.sampled_acc[1] for n in self.nodes)
        losses = [n.sampled_loss[1] for n in self.nodes]
        objective = global_objective([n.last_eps for n in self.nodes], losses,
                                     len(self.nodes))
        sums = dict.fromkeys(STAGES, 0.0)
        for n in self.nodes:
            for stage, sec in n.totals_at(now).items():
                sums[stage] += sec
        leader = self._aggregator()
        blocks = len(self.chain) if self.chain is not None else 0
        self.rows.append(MetricsRow(
            now, average_test_accuracy(accs), objective, sums["training"],
            sums["testing"], sums["communication"], sums["waiting"], blocks,
            -1 if leader is None else leader))
        self.node_accuracies.append(accs)

    # ------------------------------------------------------------------ loop

    def run(self) -> RunResult:
        horizon, interval = self.cfg.duration_s, self.cfg.metrics_interval_s
        # samples on the grid 0, interval, 2 * interval ... and a last one at the
        # horizon; a grid time within 1e-9 s of the horizon is taken as the horizon
        i = 0
        while (t := i * interval) < horizon - 1e-9:
            self.q.schedule(t, ("sample",))
            i += 1
        self.q.schedule(horizon, ("sample",))
        if self.strategy.bootstrap:
            self.q.schedule(0.0, ("start", self.by_id[self.server_id]))
        else:
            self._start_all(0.0)
        # an event is (kind, *arguments of the kind's handler)
        handlers = {
            "sample": self._on_sample, "start": self._on_start, "dl": self._on_dl,
            "train": self._on_train, "test": self._on_test,
            "boot_up": self._on_boot_up, "up": self._on_up, "svc": self._on_svc,
            "svc_done": self._on_svc_done, "sync_done": self._on_sync_done,
            "cut": self._on_cut}
        pop, until = self.q.pop, self.cfg.duration_s
        while (item := pop(until)) is not None:
            now, event = item
            handlers[event[0]](now, *event[1:])
        for node in self.nodes:
            node.switch(self.cfg.duration_s, node.stage)
        if self.chain is not None:
            self.chain.seal(self.cfg.duration_s)  # orderly shutdown seals the tail block
        return RunResult(
            config=self.cfg, rows=self.rows, node_accuracies=self.node_accuracies,
            chain=self.chain,
            stage_totals={n.cfg.id: dict(n.committed) for n in self.nodes},
            decisions=self.decisions, round_logs=self.round_logs)


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one scenario to its horizon; deterministic given the config."""
    sim = _Simulation(cfg)
    try:
        return sim.run()
    finally:
        sim.pool.close()

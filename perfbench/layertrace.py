"""Outside-in layer tracer for the dbafl benchmark.

The tracer patches the names at the points where the orchestrator and the
CLI look them up (``dbafl.orchestrator.local_train``,
``dbafl.cli.run_scenario``, ``Chain.append_block`` ...) with wrappers that
count calls and time them, and ``uninstall`` puts every original back.
Nothing inside ``dbafl`` is edited, so the traced code is the code the
untraced benchmark runs.

Counts and spans are kept in memory and turned into per-layer metrics at
the end.  Spans nest: each wrapped call charges its duration to the span
that was open when it started, so a span's self time is its duration minus
the time of the wrapped calls made inside it.  The benchmark opens one root
span per ``dbafl`` op; ``cli.self_s`` is the root's self time and
``orchestrator.self_s`` is the self time of ``run_scenario``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

EVENT_KINDS = ("sample", "start", "dl", "train", "test", "boot_up", "up",
               "svc", "svc_done", "sync_done", "cut")

# (span name, owner key, attribute) in the order they are patched.
# Owners are looked up on the modules passed to install().
TIMED = (
    ("model.local_train", "orchestrator", "local_train"),
    ("model.local_loss", "orchestrator", "local_loss"),
    ("model.evaluate_accuracy", "orchestrator", "evaluate_accuracy"),
    ("aggregation.aggregate_async", "orchestrator", "aggregate_async"),
    ("aggregation.aggregate_fedavg", "orchestrator", "aggregate_fedavg"),
    ("chain.hash_model", "orchestrator", "hash_model"),
    ("chain.append_block", "Chain", "append_block"),
    ("chain.dump_chain", "cli", "dump_chain"),
    ("chain.audit_dump", "cli", "audit_dump"),
    ("netsim.EventQueue.schedule", "EventQueue", "schedule"),
    ("netsim.EventQueue.pop", "EventQueue", "pop"),
    ("netsim.tx_time", "orchestrator", "tx_time"),
    ("orchestrator.node_datasets", "orchestrator", "node_datasets"),
    ("orchestrator.run_scenario", "cli", "run_scenario"),
    ("cli.load_scenario", "cli", "load_scenario"),
)

# Spans whose own time is reported as a layer; run_scenario is reported
# through its self time instead, since its children are layers themselves.
LEAF_SPANS = tuple(name for name, _, _ in TIMED
                   if name != "orchestrator.run_scenario")

# Every per-layer metric, with its unit and which direction is better.
# "/op" means per `dbafl run` op of the workload.
PER_LAYER = (
    ("model.local_train.calls", "calls/op", "lower"),
    ("model.local_train.s", "s/op", "lower"),
    ("model.local_loss.calls", "calls/op", "lower"),
    ("model.local_loss.s", "s/op", "lower"),
    ("model.local_loss.distinct_ratio", "ratio", "higher"),
    ("model.evaluate_accuracy.calls", "calls/op", "lower"),
    ("model.evaluate_accuracy.s", "s/op", "lower"),
    ("model.evaluate_accuracy.distinct_ratio", "ratio", "higher"),
    ("aggregation.aggregate_async.calls", "calls/op", "lower"),
    ("aggregation.aggregate_async.s", "s/op", "lower"),
    ("aggregation.aggregate_fedavg.calls", "calls/op", "lower"),
    ("aggregation.aggregate_fedavg.s", "s/op", "lower"),
    ("aggregation.accept_ratio", "ratio", "higher"),
    ("chain.hash_model.calls", "calls/op", "lower"),
    ("chain.hash_model.s", "s/op", "lower"),
    ("chain.hash_model.distinct_ratio", "ratio", "higher"),
    ("chain.append_block.calls", "calls/op", "lower"),
    ("chain.append_block.s", "s/op", "lower"),
    ("chain.records_per_block", "records/block", "higher"),
    ("chain.dump_chain.s", "s/op", "lower"),
    ("chain.audit_dump.s", "s/op", "lower"),
    ("netsim.EventQueue.schedule.calls", "calls/op", "lower"),
    ("netsim.EventQueue.schedule.s", "s/op", "lower"),
    ("netsim.EventQueue.pop.calls", "calls/op", "lower"),
    ("netsim.EventQueue.pop.s", "s/op", "lower"),
    ("netsim.tx_time.calls", "calls/op", "lower"),
    ("netsim.tx_time.s", "s/op", "lower"),
    ("orchestrator.run_scenario.s", "s/op", "lower"),
    ("orchestrator.self_s", "s/op", "lower"),
    ("orchestrator.node_datasets.s", "s/op", "lower"),
    *((f"orchestrator.events.{kind}", "events/op", "lower")
      for kind in EVENT_KINDS + ("other",)),
    ("cli.load_scenario.s", "s/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.bytes_written", "B/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attribution_gap_ratio", "ratio", "lower"),
)

_DISTINCT = ("model.local_loss", "model.evaluate_accuracy", "chain.hash_model")


class Tracer:
    """Counts and times calls into each dbafl layer while installed."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in TIMED}  # calls, s, child s
        self.root = [0, 0.0, 0.0]
        self.distinct = Counter()
        self.events = Counter()
        self.decisions = 0
        self.accepted = 0
        self.blocks = 0
        self.records = 0
        self.bytes_written = 0
        self._seen = {name: set() for name in _DISTINCT}
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------ patching

    def install(self, cli, orchestrator, chain, netsim) -> None:
        owners = {"cli": cli, "orchestrator": orchestrator,
                  "Chain": chain.Chain, "EventQueue": netsim.EventQueue}
        observers = {
            "model.local_loss": self._keyed("model.local_loss", with_data=True),
            "model.evaluate_accuracy": self._keyed("model.evaluate_accuracy",
                                                   with_data=True),
            "chain.hash_model": self._keyed("chain.hash_model", with_data=False),
            "chain.append_block": self._on_block,
            "netsim.EventQueue.pop": self._on_pop,
            "orchestrator.run_scenario": self._on_result,
        }
        for name, owner, attr in TIMED:
            self._timed(owners[owner], attr, name, observers.get(name))
        self._counted(cli, "_write_atomic", self._on_write)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        original = vars(owner)[attr]
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr, name, observe) -> None:
        original = vars(owner)[attr]
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            return result

        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr, observe) -> None:
        """Observe the arguments without opening a span: the time stays the caller's."""
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            observe(args)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    # ----------------------------------------------------------- observers

    def _keyed(self, name: str, with_data: bool):
        seen = self._seen[name]

        def observe(args, _result):
            key = (args[0].tobytes(), id(args[1])) if with_data else args[0].tobytes()
            if key not in seen:
                seen.add(key)
                self.distinct[name] += 1
        return observe

    def _on_block(self, _args, block) -> None:
        self.blocks += 1
        self.records += len(block.records)

    def _on_pop(self, _args, item) -> None:
        if item is not None:
            kind = item[1][0]
            self.events[kind if kind in EVENT_KINDS else "other"] += 1

    def _on_result(self, _args, result) -> None:
        self.decisions += len(result.decisions)
        self.accepted += sum(d.verdict.name == "ACCEPTED" for d in result.decisions)

    def _on_write(self, args) -> None:
        self.bytes_written += len(args[1])  # dumps and CSVs are ASCII

    # ---------------------------------------------------------------- spans

    def op(self, fn, *args):
        """Run one benchmark op as a root span; distinct counts are per op."""
        for seen in self._seen.values():
            seen.clear()
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.root[0] += 1
            self.root[1] += dt
            self.root[2] += frame[0]

    # -------------------------------------------------------------- results

    def layer_seconds(self) -> float:
        return sum(self.stats[name][1] for name in LEAF_SPANS)

    def self_seconds(self) -> tuple:
        """(orchestrator self time, cli self time), summed over all ops."""
        orch = self.stats["orchestrator.run_scenario"]
        return orch[1] - orch[2], self.root[1] - self.root[2]

    def metrics(self, run_ops: int) -> dict:
        """Per-layer values, per `dbafl run` op; the trace.* ratios are the caller's."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat[0] / run_ops
            out[f"{name}.s"] = stat[1] / run_ops
        for name in _DISTINCT:
            calls = self.stats[name][0]
            out[f"{name}.distinct_ratio"] = self.distinct[name] / calls if calls else 0.0
        out["aggregation.accept_ratio"] = (self.accepted / self.decisions
                                           if self.decisions else 0.0)
        out["chain.records_per_block"] = self.records / self.blocks if self.blocks else 0.0
        orch_self, cli_self = self.self_seconds()
        out["orchestrator.self_s"] = orch_self / run_ops
        out["cli.self_s"] = cli_self / run_ops
        for kind in EVENT_KINDS + ("other",):
            out[f"orchestrator.events.{kind}"] = self.events[kind] / run_ops
        out["cli.bytes_written"] = self.bytes_written / run_ops
        return out

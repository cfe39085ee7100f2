#!/usr/bin/env python3
"""Benchmark for dbafl: closed-loop `dbafl` ops, checked against golden digests.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stock-sweep --seed 1 --seconds 30 --trace 0

Each workload is a fixed round of `dbafl run` / `dbafl audit` ops, issued
in-process through `dbafl.cli.main` one at a time (a closed loop with one
client, no threads).  Rounds repeat until the next one would overrun
`--seconds`.  Every op's outputs are checked: exit code, SHA-256 of every
metrics CSV and chain dump against `golden.json` (on the default seed) or
against the warm-up round (any other seed, so a rerun must be
byte-identical), an `Ok` audit, and stage totals that sum to the horizon.

`--trace 0` prints the end-to-end metrics, with times scaled to a reference
machine speed (see "calibration" below); `--trace 1` alternates untraced
rounds with rounds under `layertrace` and prints the per-layer metrics.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

    python3 perfbench/run.py --regen-golden     # rewrite golden.json
    python3 perfbench/selftest.py               # the benchmark's own checks
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
SETUP_PROBES = 9
# Host seconds of one spin() on the reference machine (see README).
SPIN_NOMINAL_S = 0.00125
CAL_SPINS = 20               # spins between two ops
SAMPLE_INTERVAL_S = 0.05     # spin cadence while an op runs
STOCK_STRATEGIES = ("DBAFL", "BSFL", "FedAVG", "StaticEps:1.0", "AFL", "LocalOnly")
CHAIN_BACKED = frozenset({"DBAFL", "BSFL", "StaticEps:1.0"})
STAGE_COLUMNS = ("t_training", "t_testing", "t_communication", "t_waiting")

# End-to-end metrics printed with --trace 0, with their units.
END_TO_END = (("setup_s", "s"), ("run_s_p50", "s"), ("sim_s_per_s", "s/s"),
              ("audit_s_p50", "s"), ("peak_rss_mb", "MB"))


def _nodes_yaml(rsus: int, buses: int) -> str:
    lines = ["nodes:"]
    lines += [f"  - {{id: {i}, role: RSU}}" for i in range(rsus)]
    lines += [f"  - {{id: {rsus + i}, role: Bus, compute_time_multiplier: 4.0}}"
              for i in range(buses)]
    return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    yaml: str            # scenario file the program loads
    nodes: int           # expected node count and horizon, for the checks
    duration_s: float
    strategies: tuple    # one `dbafl run` op each per round, in this order
    audits: int          # `dbafl audit` ops per chain dump per round


WORKLOADS = {w.name: w for w in (
    # The paper's experiment: the empty (stock) scenario under every strategy.
    Workload("stock-sweep", "", 5, 600.0, STOCK_STRATEGIES, 4),
    # Many small, fast rounds: chain writes/reads and event dispatch dominate.
    Workload("chain-churn",
             _nodes_yaml(12, 8)
             + "train: {epochs: 1}\n"
             + "data: {samples_per_node: 50}\n"
             + "payload: {model_bits: 8.0e+4, hash_bits: 256, block_bits: 8000}\n"
             + "duration_s: 120\n"
             + "metrics_interval_s: 60\n",
             20, 120.0, ("DBAFL",), 3),
    # Forty nodes with a poisoner and the threshold defense: per-node costs.
    Workload("fleet-k40",
             _nodes_yaml(24, 16)
             + "attack:\n"
             + "  poisoners: [39]\n"
             + "  defense: {mode: threshold, theta: 0.9}\n",
             40, 600.0, ("DBAFL",), 4),
)}


def master_seed(workload: str, seed: int) -> int:
    """The scenario seed the program sees, derived from the workload seed."""
    tag = f"{workload}:{seed}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")


# -------------------------------------------------------------- calibration
#
# The machine's speed drifts with its other tenants, by up to half over a
# few minutes.  Every timing is therefore paired with the mean duration of a
# fixed "spin" measured around and during it, and reported scaled to
# SPIN_NOMINAL_S: time at the speed the spin had on the reference machine.


def spin() -> float:
    """Host seconds for a fixed mix of interpreter and numpy work.

    The mix mirrors dbafl's own: Python dispatch, and log-softmax losses
    over a 1200 x 2 feature matrix.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(6_000):
        acc += i * i
    x = np.linspace(-1.0, 1.0, 2400).reshape(1200, 2)
    w = np.full((2, 2), 0.5)
    rows = np.arange(1200)
    for _ in range(5):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        acc += float(logp[rows, rows % 2].mean())
    return time.perf_counter() - t0


def calibrate() -> list:
    return [spin() for _ in range(CAL_SPINS)]


class SpeedSampler:
    """Spins every SAMPLE_INTERVAL_S while an op runs, so long ops get sampled.

    The spins run in a SIGALRM handler on the main thread (no threads are
    started); their time is kept in `overhead` for the caller to subtract.
    """

    def __init__(self) -> None:
        self.spins: list = []
        self.overhead = 0.0

    def _handler(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.spins.append(spin())
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ------------------------------------------------------------------- set-up


def import_dbafl():
    """Import dbafl from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401  (part of set-up cost)
        import yaml  # noqa: F401
        from dbafl import chain, cli, netsim, orchestrator
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dbafl from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent != (SRC / "dbafl").resolve():
        raise SystemExit(f"perfbench: dbafl was imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli, orchestrator, chain, netsim


def set_up(workload: Workload, work_dir: Path):
    """Import dbafl, write the workload's scenario file and load it.

    Returns the dbafl modules (cli, orchestrator, chain, netsim) and the
    scenario file's path.
    """
    modules = import_dbafl()
    cli = modules[0]
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = work_dir / "scenario.yaml"
    cfg_path.write_text(workload.yaml, encoding="utf-8")
    cfg = cli.load_scenario(str(cfg_path))
    if len(cfg.nodes) != workload.nodes or cfg.duration_s != workload.duration_s:
        raise SystemExit(f"perfbench: {workload.name} loaded as {len(cfg.nodes)} "
                         f"nodes over {cfg.duration_s} s")
    return modules, cfg_path


def setup_probe(workload: Workload) -> None:
    """Child-process body for one set-up measurement.

    Prints the monotonic time at which the first op is ready, then the mean
    spin of the core it ran on, measured after that stamp.
    """
    work_dir = WORK / f"probe-{os.getpid()}"
    try:
        set_up(workload, work_dir)
        ready = time.monotonic()
        print(f"{ready!r} {statistics.mean(calibrate())!r}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure_setup(workload: Workload) -> list:
    """(host seconds from process start to first op ready, mean spin) pairs.

    Each sample is a fresh process.  CLOCK_MONOTONIC is shared by all
    processes, so the child's ready stamp minus the parent's stamp before
    spawning includes interpreter start-up.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()}")
        samples.append((float(fields[0]) - t0, float(fields[1])))
    return samples


# ---------------------------------------------------------------------- ops


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str            # "run" or "audit"
    strategy: str
    argv: tuple
    files: tuple         # run: ((kind, path), ...) it must write; audit: (dump,)


@dataclasses.dataclass
class OpRecord:
    op: Op
    seconds: float       # host seconds of the op, sampler spins excluded
    spin: float          # mean spin() seconds around and during it; 0 if unsampled
    problems: list

    @property
    def norm_seconds(self) -> float:
        return self.seconds * SPIN_NOMINAL_S / self.spin


def plan_round(workload: Workload, cfg_path: Path, out_dir: Path, seed: int) -> list:
    """One round of ops: each strategy's run, then audits of its chain dump."""
    ms = master_seed(workload.name, seed)
    ops = []
    for strategy in workload.strategies:
        label = strategy.replace(":", "-")
        files = [("metrics", out_dir / f"metrics_{label}_{ms}.csv")]
        if strategy in CHAIN_BACKED:
            files.append(("chain", out_dir / f"chain_{label}_{ms}.txt"))
        ops.append(Op("run", strategy,
                      ("run", "--config", str(cfg_path), "--out", str(out_dir),
                       "--seed", str(ms), "--strategy", strategy), tuple(files)))
        if strategy in CHAIN_BACKED:
            dump = files[-1][1]
            ops += [Op("audit", strategy, ("audit", "--chain", str(dump)), (dump,))] \
                * workload.audits
    return ops


def call_cli(main, argv, sampler=None) -> tuple:
    """(exit code, host seconds, stdout) of one in-process `dbafl` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (sampler or contextlib.nullcontext()):
        spun = sampler.overhead if sampler else 0.0
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            rc = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        if sampler:
            seconds -= sampler.overhead - spun
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return rc, seconds, out.getvalue()


def stage_problems(csv_bytes: bytes, workload: Workload) -> list:
    """Every metrics row's stage totals must add up to nodes x sim time."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    if not rows or float(rows[-1]["sim_time_s"]) != workload.duration_s:
        return ["metrics CSV does not end at the horizon"]
    for row in rows:
        want = workload.nodes * float(row["sim_time_s"])
        got = sum(float(row[c]) for c in STAGE_COLUMNS)
        if abs(got - want) > 1e-6 * max(1.0, want):
            return [f"stage totals {got!r} != {want!r} at t={row['sim_time_s']}"]
    return []


def check_run(op: Op, rc, workload: Workload, reference: dict, digests: dict) -> list:
    """Problems with a finished run op; records each output's digest."""
    problems = [] if rc == 0 else [f"exit {rc}"]
    for kind, path in op.files:
        try:
            data = path.read_bytes()
        except OSError:
            problems.append(f"{kind} output missing")
            continue
        digest = hashlib.sha256(data).hexdigest()
        key = f"{op.strategy}/{kind}"
        digests[key] = digest
        want = reference.get(key)
        if want is not None and digest != want:
            problems.append(f"{kind} digest {digest[:12]} != {want[:12]}")
        if kind == "metrics":
            problems += stage_problems(data, workload)
    return problems


def check_audit(rc, stdout: str) -> list:
    if rc != 0 or stdout.strip() != "Ok":
        return [f"audit exit {rc}: {stdout.strip()!r}"]
    return []


def execute_round(main, ops, workload: Workload, reference: dict, digests: dict,
                  sampled: bool = False) -> list:
    """Run one round of ops in order; each op's outputs are checked before the next.

    `sampled` pairs every op with the machine's speed: spins just before,
    during and just after it.
    """
    records = []
    before = calibrate() if sampled else []
    for op in ops:
        sampler = SpeedSampler() if sampled else None
        if op.kind == "run":
            for _, path in op.files:  # a stale file must not pass for a fresh one
                with contextlib.suppress(FileNotFoundError):
                    path.unlink()
            rc, seconds, _ = call_cli(main, op.argv, sampler)
            problems = check_run(op, rc, workload, reference, digests)
        else:
            rc, seconds, stdout = call_cli(main, op.argv, sampler)
            problems = check_audit(rc, stdout)
        after = calibrate() if sampled else []
        spins = before + (sampler.spins if sampler else []) + after
        records.append(OpRecord(op, seconds, statistics.mean(spins) if spins else 0.0,
                                problems))
        before = after
    return records


@contextlib.contextmanager
def capture_results(cli):
    """Keep every RunResult the CLI produces (warm-up only, never timed)."""
    results = []
    original = vars(cli)["run_scenario"]

    def capturing(cfg):
        result = original(cfg)
        results.append(result)
        return result

    cli.run_scenario = capturing
    try:
        yield results
    finally:
        cli.run_scenario = original


def node_stage_problems(results, workload: Workload) -> list:
    problems = []
    for result in results:
        for node, totals in result.stage_totals.items():
            total = sum(totals.values())
            if abs(total - workload.duration_s) > 1e-6 * workload.duration_s:
                problems.append(f"node {node} stage totals {total!r} "
                                f"!= {workload.duration_s!r}")
    return problems


def timed_rounds(main, ops, workload, reference, digests, seconds: float) -> list:
    """Sampled rounds until the next one would overrun; at least one round."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        records += execute_round(main, ops, workload, reference, digests, sampled=True)
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > deadline:
            return records


# ------------------------------------------------------------------ golden


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def regen_golden() -> int:
    """Rewrite golden.json from one round of every workload at the default seed."""
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        work_dir = WORK / f"golden-{os.getpid()}"
        try:
            (cli, *_), cfg_path = set_up(workload, work_dir)
            ops = plan_round(workload, cfg_path, work_dir, DEFAULT_SEED)
            digests = {}
            records = execute_round(cli.main, ops, workload, {}, digests)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        bad = [p for r in records for p in r.problems]
        if bad:
            print(f"{workload.name}: {bad}", file=sys.stderr)
            return 1
        doc["workloads"][workload.name] = dict(sorted(digests.items()))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


# ------------------------------------------------------------------- report


def end_to_end_metrics(workload, records, setup_samples) -> dict:
    runs = [r.norm_seconds for r in records if r.op.kind == "run"]
    audits = [r.norm_seconds for r in records if r.op.kind == "audit"]
    raw = [r.seconds for r in records if r.op.kind == "run"]
    print(f"# raw host seconds: run_s_p50 {statistics.median(raw):.6g}, "
          f"setup_s {statistics.median(s for s, _ in setup_samples):.6g}, "
          f"spin p50 {statistics.median(r.spin for r in records):.6g}")
    values = {
        "setup_s": statistics.median(s * SPIN_NOMINAL_S / c for s, c in setup_samples),
        "run_s_p50": statistics.median(runs),
        "sim_s_per_s": workload.duration_s * len(runs) / sum(runs),
        "audit_s_p50": statistics.median(audits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# {workload.name}: {len(runs)} run ops, {len(audits)} audit ops, "
          f"{len(setup_samples)} set-up probes")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(tracer, records, overhead_ratio: float) -> dict:
    import layertrace  # only reached on a traced run
    run_ops = sum(r.op.kind == "run" for r in records)
    values = tracer.metrics(run_ops)
    wall = sum(r.seconds for r in records)
    orch_self, cli_self = tracer.self_seconds()
    gap = wall - (tracer.layer_seconds() + orch_self + cli_self)
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.attribution_gap_ratio"] = gap / wall
    print(f"# attribution: op wall {wall:.4f} s = layers {tracer.layer_seconds():.4f} "
          f"+ orchestrator self {orch_self:.4f} + cli self {cli_self:.4f} "
          f"+ gap {gap:.6f} s ({run_ops} run ops)")
    shares = [(values[f"{n}.s"] * run_ops / wall, n) for n in layertrace.LEAF_SPANS]
    shares += [(orch_self / wall, "orchestrator.self"), (cli_self / wall, "cli.self")]
    print("# share of traced op wall: "
          + ", ".join(f"{n} {s:.1%}" for s, n in sorted(shares, reverse=True)))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in layertrace.PER_LAYER}


# --------------------------------------------------------------------- main


def traced_rounds(modules, ops, workload, reference, digests, seconds: float):
    """Pairs of rounds, untraced then traced, until the next pair would overrun.

    Pairing the rounds keeps the machine's drift out of the overhead ratio.
    The tracer is installed for each traced round only; afterwards every
    patched attribute must be the object it was before.
    """
    import layertrace
    cli = modules[0]
    owners = (*modules, modules[2].Chain, modules[3].EventQueue)
    before = [dict(vars(owner)) for owner in owners]
    tracer = layertrace.Tracer()
    untraced, traced, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        untraced += execute_round(cli.main, ops, workload, reference, digests)
        t1 = time.perf_counter()
        tracer.install(*modules)
        try:
            traced += execute_round(lambda argv: tracer.op(cli.main, argv), ops,
                                    workload, reference, digests)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
        if t2 + (t2 - t0) > deadline:
            break
    after = [dict(vars(owner)) for owner in owners]
    restored = all(a.keys() == b.keys() and all(a[k] is b[k] for k in a)
                   for a, b in zip(after, before))
    return tracer, untraced, traced, statistics.median(ratios), restored


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    problems = []
    try:
        modules, cfg_path = set_up(workload, work_dir)
        cli = modules[0]
        setup_samples = [] if trace else measure_setup(workload)
        ops = plan_round(workload, cfg_path, work_dir, seed)
        reference = {}
        if seed == DEFAULT_SEED:
            reference = load_golden()["workloads"][workload.name]
        # Warm-up round: untimed, also checks every node's stage totals.
        warm = {}
        with capture_results(cli) as results:
            warm_records = execute_round(cli.main, ops, workload, reference, warm)
        problems += [f"warm-up {r.op.kind} {r.op.strategy}: {p}"
                     for r in warm_records for p in r.problems]
        problems += node_stage_problems(results, workload)
        if reference and set(warm) != set(reference):
            problems.append(f"outputs {sorted(warm)} != golden {sorted(reference)}")
        reference = reference or warm

        digests = {}
        if trace:
            tracer, records, traced, overhead, restored = traced_rounds(
                modules, ops, workload, reference, digests, seconds)
            if not restored:
                problems.append("the tracer left dbafl attributes changed")
            metrics = per_layer_metrics(tracer, traced, overhead)
            records += traced
        else:
            records = timed_rounds(cli.main, ops, workload, reference, digests,
                                   seconds)
            if "layertrace" in sys.modules:
                problems.append("the tracer was imported by an untraced run")
            metrics = end_to_end_metrics(workload, records, setup_samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    failed = sum(bool(r.problems) for r in records)
    problems += [f"{r.op.kind} {r.op.strategy}: {p}" for r in records for p in r.problems]
    for p in problems[:20]:
        print(f"# FAIL {p}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_ratio = {failed / len(records):.6g} ratio")
    return {"correct": not problems, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json at the default seed and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.regen_golden:
        return regen_golden()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload)
        return 0
    result = bench(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

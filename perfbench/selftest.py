#!/usr/bin/env python3
"""Checks of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

- a byte flipped in a metrics CSV or a chain dump makes that op count as failed;
- broken stage totals are caught;
- the tracer leaves every dbafl module and class attribute as it found it;
- every metric name matches [A-Za-z0-9_.-]+, and BENCHMARK.json, the code and
  the printed result agree on the metrics;
- without the program's sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = bench.WORK / "selftest"


def _stock_ops():
    workload = bench.WORKLOADS["stock-sweep"]
    (cli, *_), cfg_path = bench.set_up(workload, WORK)
    ops = bench.plan_round(workload, cfg_path, WORK, bench.DEFAULT_SEED)
    reference = bench.load_golden()["workloads"][workload.name]
    run_op = next(op for op in ops if op.kind == "run" and op.strategy == "DBAFL")
    audit_op = next(op for op in ops if op.kind == "audit" and op.strategy == "DBAFL")
    return workload, cli, run_op, audit_op, reference


def _flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] = ord("0") if data[offset] != ord("0") else ord("1")
    path.write_bytes(bytes(data))


def check_flipped_outputs_fail() -> None:
    workload, cli, run_op, audit_op, reference = _stock_ops()
    clean = bench.execute_round(cli.main, [run_op, audit_op], workload, reference, {})
    assert not any(r.problems for r in clean), [r.problems for r in clean]
    for kind, _ in run_op.files:
        path = dict(run_op.files)[kind]

        def corrupting_main(argv, path=path):
            rc = cli.main(argv)
            _flip(path, len(path.read_bytes()) // 2)
            return rc

        records = bench.execute_round(corrupting_main, [run_op], workload, reference, {})
        assert records[0].problems, f"a flipped byte in the {kind} output passed"
    # A dump edited after the run must also fail its audit op.
    bench.execute_round(cli.main, [run_op], workload, reference, {})
    dump = dict(run_op.files)["chain"]
    line = dump.read_bytes().index(b"\n")
    _flip(dump, line - 10)  # inside the first block's hash
    records = bench.execute_round(cli.main, [audit_op], workload, reference, {})
    assert records[0].problems, "the audit of a flipped dump passed"


def check_stage_totals() -> None:
    workload = bench.WORKLOADS["stock-sweep"]
    header = "sim_time_s,t_training,t_testing,t_communication,t_waiting\n"
    good = header + "0.0,0.0,0.0,0.0,0.0\n600.0,1000.0,500.0,500.0,1000.0\n"
    bad = header + "0.0,0.0,0.0,0.0,0.0\n600.0,1000.0,500.0,500.0,999.0\n"
    assert not bench.stage_problems(good.encode(), workload)
    assert bench.stage_problems(bad.encode(), workload)


def check_tracer_restores() -> None:
    workload, cli, run_op, _, reference = _stock_ops()
    modules = bench.import_dbafl()
    owners = (*modules, modules[2].Chain, modules[3].EventQueue)
    before = [dict(vars(owner)) for owner in owners]
    tracer = layertrace.Tracer()
    tracer.install(*modules)
    try:
        patched = sum(vars(o)[k] is not b[k] for o, b in zip(owners, before) for k in b)
        assert patched == len(layertrace.TIMED) + 1, patched
        records = bench.execute_round(lambda argv: tracer.op(cli.main, argv),
                                      [run_op], workload, reference, {})
        assert not records[0].problems, records[0].problems
        assert tracer.stats["model.local_train"][0] > 0
    finally:
        tracer.uninstall()
    for owner, snapshot in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == snapshot.keys(), owner
        changed = [k for k in now if now[k] is not snapshot[k]]
        assert not changed, (owner, changed)


def check_metric_names() -> None:
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert e2e == list(bench.END_TO_END), e2e
    assert layers == list(layertrace.PER_LAYER), "BENCHMARK.json per_layer differs"
    names = [n for n, *_ in e2e + layers]
    assert len(names) == len(set(names)), "duplicate metric names"
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for trace, declared in ((0, e2e), (1, layers)):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stock-sweep",
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert [(n, m["unit"]) for n, m in result["metrics"].items()] == \
            [(n, u) for n, u, *_ in declared], result["metrics"]


def check_bare_checkout_fails() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stock-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    checks = (check_flipped_outputs_fail, check_stage_totals, check_tracer_restores,
              check_metric_names, check_bare_checkout_fails)
    failures = 0
    for check in checks:
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    try:
        bench.WORK.rmdir()
    except OSError:
        pass  # another benchmark run is using it
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

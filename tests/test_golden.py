"""Byte-identity of the stock experiment: output digests against perfbench/golden.json.

The six stock-sweep runs of the benchmark, issued through `dbafl.cli.main`
with the benchmark's arguments, must reproduce the recorded SHA-256 of every
metrics CSV and chain dump.  The golden file is only read here; regenerate it
with `python3 perfbench/run.py --regen-golden` when outputs change on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dbafl import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
STRATEGIES = ("DBAFL", "BSFL", "FedAVG", "StaticEps:1.0", "AFL", "LocalOnly")
CHAIN_BACKED = {"DBAFL", "BSFL", "StaticEps:1.0"}


def _master_seed(workload: str, seed: int) -> int:
    """The scenario seed perfbench/run.py derives from a workload seed."""
    return int.from_bytes(hashlib.sha256(f"{workload}:{seed}".encode()).digest()[:4], "big")


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return doc["seed"], doc["workloads"]["stock-sweep"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stock_sweep_outputs_match_golden_digests(tmp_path, golden, strategy):
    seed, digests = golden
    ms = _master_seed("stock-sweep", seed)
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text("", encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", str(ms), "--strategy", strategy])
    assert rc == 0
    label = strategy.replace(":", "-")
    outputs = {"metrics": tmp_path / f"metrics_{label}_{ms}.csv"}
    if strategy in CHAIN_BACKED:
        outputs["chain"] = tmp_path / f"chain_{label}_{ms}.txt"
    for kind, path in outputs.items():
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == digests[f"{strategy}/{kind}"], f"{strategy}/{kind}"
    assert len(outputs) == sum(key.startswith(f"{strategy}/") for key in digests)

"""Byte-identity of every benchmark workload: output digests against perfbench/golden.json.

Each run of the benchmark's workloads, issued through `dbafl.cli.main` with
the benchmark's scenario file and arguments, must reproduce the recorded
SHA-256 of every metrics CSV and chain dump.  Workloads, strategies and the
seed derivation come from `perfbench/run.py`, loaded here without running
it.  The golden file is only read here; regenerate it with
`python3 perfbench/run.py --regen-golden` when outputs change on purpose.

A digest miss names the platform the test ran on: numpy's SIMD loops and
the OpenBLAS kernel decide the last bits of `exp`, `log` and `matmul`, so a
miss on another numpy build or CPU may be a platform difference, not a
change of behaviour.
"""

import ctypes
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dbafl import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = PERFBENCH / "golden.json"


def _load_benchmark():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


BENCH = _load_benchmark()
STRATEGIES = BENCH.WORKLOADS["stock-sweep"].strategies
CHAIN_BACKED = BENCH.CHAIN_BACKED
_master_seed = BENCH.master_seed


def _openblas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS picked (e.g. SkylakeX), or "unknown"."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename()
        return core.decode() if core else "unknown"
    return "unknown"


def _platform() -> str:
    """The numpy version, its enabled AVX512 features and the OpenBLAS core."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    avx512 = " ".join(name for name, on in sorted(features.items())
                      if on and name.startswith("AVX512"))
    return (f"numpy {np.__version__}, AVX512 [{avx512 or 'none'}], "
            f"OpenBLAS core {_openblas_core()}")


def _miss(what: str) -> str:
    return f"{what}: digest differs from golden.json, running on {_platform()}"


def test_a_digest_miss_names_the_platform():
    message = _miss("stock-sweep DBAFL/metrics")
    assert f"numpy {np.__version__}, AVX512 [" in message
    assert message.split("OpenBLAS core ")[1]  # a core name, or "unknown"


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return doc["seed"], doc["workloads"]["stock-sweep"]


@pytest.fixture(scope="module")
def golden_doc():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


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
        assert got == digests[f"{strategy}/{kind}"], _miss(f"{strategy}/{kind}")
    assert len(outputs) == sum(key.startswith(f"{strategy}/") for key in digests)


@pytest.mark.parametrize("workload,strategy", [
    (name, strategy) for name, w in BENCH.WORKLOADS.items() if name != "stock-sweep"
    for strategy in w.strategies])
def test_workload_outputs_match_golden_digests(tmp_path, golden_doc, workload, strategy):
    digests = golden_doc["workloads"][workload]
    ms = _master_seed(workload, golden_doc["seed"])
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(BENCH.WORKLOADS[workload].yaml, encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", str(ms), "--strategy", strategy])
    assert rc == 0
    label = strategy.replace(":", "-")
    outputs = {"metrics": tmp_path / f"metrics_{label}_{ms}.csv"}
    if strategy in CHAIN_BACKED:
        outputs["chain"] = tmp_path / f"chain_{label}_{ms}.txt"
    for kind, path in outputs.items():
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == digests[f"{strategy}/{kind}"], _miss(f"{workload} {strategy}/{kind}")
    assert len(outputs) == sum(key.startswith(f"{strategy}/") for key in digests)

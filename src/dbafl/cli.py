"""Command-line front end: config files in, metrics CSV and chain dumps out.

Scenarios are described in a nested key-value file; omitted fields fall
back to the stock five-node experiment (three roadside units, two buses
at 4x compute, 50 local epochs at learning rate 0.01 on 1500-sample
batches, 2 s / 10 record / 10 MB block cutting).  Outputs are plain text
so any plotting tool can consume them: one CSV per (strategy, seed) and
one chain dump per chain-backed run, all written atomically.

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 audit failure (including an unparseable dump).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from .aggregation import DefenseMode, DefensePolicy
from .chain import AuditReport, BlockCutPolicy, audit_dump, dump_chain
from .model import Dataset, TrainConfig
from .netsim import DdosConfig, LinkParams, PayloadSizes
from .orchestrator import (AttackConfig, DataSpec, MetricsRow, NodeConfig,
                           Role, RunResult, ScenarioConfig, Strategy,
                           default_nodes, default_scenario, run_scenario)

_SCENARIO_KEYS = ("strategy", "nodes", "train", "data", "chain_policy",
                  "term_blocks", "payload", "attack", "duration_s",
                  "master_seed", "metrics_interval_s")


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """One batch of runs: which scenario, where to write, which seeds."""

    scenario: str
    out_dir: str
    seeds: tuple
    strategies: tuple = ()          # empty keeps the scenario's own strategy
    attack: Optional[str] = None    # "poisoning" or "ddos:<fraction>"
    defense: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.seeds:
            raise ValueError("seeds: need at least one seed")


# ------------------------------------------------------------ config parsing


def _reject_unknown(mapping: dict, known: Sequence[str], where: str) -> None:
    for key in mapping:
        if key not in known:
            raise ValueError(f"{where}unknown field {key!r}")


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _as_int(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_array(value, dtype, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):  # ragged rows, or an entry that is not a number
        raise ValueError(f"{name} must be a rectangular array of numbers") from None


def _section(data: dict, key: str) -> dict:
    value = data.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a mapping")
    return value


def _link_from(mapping: dict, where: str) -> LinkParams:
    _reject_unknown(mapping, ("mobile_bandwidth_hz", "mobile_snr",
                              "ethernet_rate_bps"), where)
    kw = {k: _as_float(v, where + k) for k, v in mapping.items()}
    return LinkParams(**kw)


def _dataset_from(mapping: dict, where: str, spec: DataSpec) -> Dataset:
    _reject_unknown(mapping, ("features", "labels", "classes"), where)
    try:
        raw_x, raw_labels = mapping["features"], mapping["labels"]
    except KeyError as exc:
        raise ValueError(f"{where}dataset needs {exc.args[0]!r}") from None
    x = _as_array(raw_x, float, where + "features")
    labels = _as_array(raw_labels, None, where + "labels")
    # ScenarioConfig checks the dataset against data, labels' dtype included
    return Dataset(x, labels, _as_int(mapping.get("classes", spec.classes), where + "classes"))


def _node_from(mapping: dict, where: str, spec: DataSpec) -> NodeConfig:
    _reject_unknown(mapping, ("id", "role", "compute_time_multiplier",
                              "link", "dataset"), where)
    if "id" not in mapping:
        raise ValueError(f"{where}id is required")
    kw = {"id": _as_int(mapping["id"], where + "id")}
    if "role" in mapping:
        try:
            kw["role"] = Role(mapping["role"])
        except ValueError:
            raise ValueError(
                f"{where}role must be one of "
                f"{[r.value for r in Role]}, got {mapping['role']!r}") from None
    else:
        kw["role"] = Role.RSU
    if "compute_time_multiplier" in mapping:
        kw["compute_time_multiplier"] = _as_float(
            mapping["compute_time_multiplier"], where + "compute_time_multiplier")
    if "link" in mapping:
        kw["link"] = _link_from(mapping["link"], where + "link.")
    if "dataset" in mapping:
        kw["dataset"] = _dataset_from(mapping["dataset"], where + "dataset.", spec)
    return NodeConfig(**kw)


def _attack_from(mapping: dict) -> AttackConfig:
    _reject_unknown(mapping, ("poisoners", "poison_magnitude", "ddos",
                              "defense"), "attack.")
    kw = {}
    if "poisoners" in mapping:
        ids = mapping["poisoners"] or []
        kw["poisoners"] = frozenset(_as_int(i, "attack.poisoners") for i in ids)
    if "poison_magnitude" in mapping:
        kw["poison_magnitude"] = _as_float(mapping["poison_magnitude"],
                                           "attack.poison_magnitude")
    if mapping.get("ddos") is not None:
        d = mapping["ddos"]
        _reject_unknown(d, ("attack_fraction", "retarget_lag_terms"),
                        "attack.ddos.")
        kw["ddos"] = DdosConfig(
            attack_fraction=_as_float(d.get("attack_fraction", 0.0),
                                      "attack.ddos.attack_fraction"),
            retarget_lag_terms=_as_int(d.get("retarget_lag_terms", 1),
                                       "attack.ddos.retarget_lag_terms"))
    if "defense" in mapping:
        d = mapping["defense"] or {}
        _reject_unknown(d, ("mode", "theta"), "attack.defense.")
        mode = d.get("mode", "off")
        if mode == "off":
            kw["defense"] = DefensePolicy.off()
        elif mode == "threshold":
            kw["defense"] = DefensePolicy.threshold(
                _as_float(d.get("theta", 0.0), "attack.defense.theta"))
        else:
            raise ValueError(f"attack.defense.mode must be 'off' or "
                             f"'threshold', got {mode!r}")
    return AttackConfig(**kw)


def scenario_from_mapping(data: dict) -> ScenarioConfig:
    """Validated scenario from a parsed config mapping; omitted keys default."""
    _reject_unknown(data, _SCENARIO_KEYS, "")
    strategy = Strategy.parse(str(data.get("strategy", "DBAFL")))
    overrides = {}
    train = _section(data, "train")
    if train:
        _reject_unknown(train, ("epochs", "learning_rate", "batch_size"), "train.")
        overrides["train"] = TrainConfig(
            epochs=_as_int(train.get("epochs", 50), "train.epochs"),
            learning_rate=_as_float(train.get("learning_rate", 0.01),
                                    "train.learning_rate"),
            batch_size=_as_int(train.get("batch_size", 1500), "train.batch_size"))
    geometry = _section(data, "data")
    if geometry:
        _reject_unknown(geometry, ("samples_per_node", "features", "classes",
                               "separation", "test_fraction"), "data.")
        defaults = DataSpec()
        overrides["data"] = DataSpec(
            samples_per_node=_as_int(geometry.get("samples_per_node",
                                              defaults.samples_per_node),
                                     "data.samples_per_node"),
            features=_as_int(geometry.get("features", defaults.features),
                             "data.features"),
            classes=_as_int(geometry.get("classes", defaults.classes),
                            "data.classes"),
            separation=_as_float(geometry.get("separation", defaults.separation),
                                 "data.separation"),
            test_fraction=_as_float(geometry.get("test_fraction",
                                             defaults.test_fraction),
                                    "data.test_fraction"))
    if "nodes" in data:
        raw = data["nodes"]
        if not isinstance(raw, list):
            raise ValueError("nodes must be a list")
        spec = overrides.get("data", DataSpec())
        overrides["nodes"] = tuple(
            _node_from(n, f"nodes[{i}].", spec) for i, n in enumerate(raw))
    policy = _section(data, "chain_policy")
    if policy:
        _reject_unknown(policy, ("max_wait_s", "max_records",
                                 "max_block_bytes"), "chain_policy.")
        stock = BlockCutPolicy()
        kw = dict(
            max_wait_s=_as_float(policy.get("max_wait_s", stock.max_wait_s),
                                 "chain_policy.max_wait_s"),
            max_records=_as_int(policy.get("max_records", stock.max_records),
                                "chain_policy.max_records"),
            max_block_bytes=_as_int(policy.get("max_block_bytes",
                                               stock.max_block_bytes),
                                    "chain_policy.max_block_bytes"))
        try:
            overrides["chain_policy"] = BlockCutPolicy(**kw)
        except ValueError as exc:  # its messages start with the field name
            raise ValueError(f"chain_policy.{exc}") from None
    payload = _section(data, "payload")
    if payload:
        _reject_unknown(payload, ("model_bits", "hash_bits", "block_bits"),
                        "payload.")
        kw = {k: _as_float(v, "payload." + k) for k, v in payload.items()}
        overrides["payload"] = PayloadSizes(**kw)
    attack = _section(data, "attack")
    if attack:
        overrides["attack"] = _attack_from(attack)
    return default_scenario(
        strategy,
        master_seed=_as_int(data.get("master_seed", 1), "master_seed"),
        duration_s=_as_float(data.get("duration_s", 600.0), "duration_s"),
        term_blocks=_as_int(data.get("term_blocks", 10), "term_blocks"),
        metrics_interval_s=_as_float(data.get("metrics_interval_s", 5.0),
                                     "metrics_interval_s"),
        **overrides)


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file; empty files mean all defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError("config root must be a mapping")
    return scenario_from_mapping(data)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Config text that loads back to an equal scenario."""
    nodes = []
    for n in cfg.nodes:
        entry = {
            "id": n.id,
            "role": n.role.value,
            "compute_time_multiplier": float(n.compute_time_multiplier),
            "link": {
                "mobile_bandwidth_hz": float(n.link.mobile_bandwidth_hz),
                "mobile_snr": float(n.link.mobile_snr),
                "ethernet_rate_bps": float(n.link.ethernet_rate_bps),
            },
        }
        if n.dataset is not None:
            entry["dataset"] = {
                "features": n.dataset.features.tolist(),
                "labels": [int(x) for x in n.dataset.labels],
                "classes": int(n.dataset.classes),
            }
        nodes.append(entry)
    attack = {
        "poisoners": sorted(cfg.attack.poisoners),
        "poison_magnitude": float(cfg.attack.poison_magnitude),
        "ddos": None if cfg.attack.ddos is None else {
            "attack_fraction": float(cfg.attack.ddos.attack_fraction),
            "retarget_lag_terms": int(cfg.attack.ddos.retarget_lag_terms),
        },
        "defense": (
            {"mode": "off"}
            if cfg.attack.defense.mode is DefenseMode.OFF
            else {"mode": "threshold", "theta": float(cfg.attack.defense.theta)}),
    }
    doc = {
        "strategy": cfg.strategy.label,
        "duration_s": float(cfg.duration_s),
        "master_seed": int(cfg.master_seed),
        "metrics_interval_s": float(cfg.metrics_interval_s),
        "term_blocks": int(cfg.term_blocks),
        "nodes": nodes,
        "train": {
            "epochs": int(cfg.train.epochs),
            "learning_rate": float(cfg.train.learning_rate),
            "batch_size": int(cfg.train.batch_size),
        },
        "data": {
            "samples_per_node": int(cfg.data.samples_per_node),
            "features": int(cfg.data.features),
            "classes": int(cfg.data.classes),
            "separation": float(cfg.data.separation),
            "test_fraction": float(cfg.data.test_fraction),
        },
        "chain_policy": {
            "max_wait_s": float(cfg.chain_policy.max_wait_s),
            "max_records": int(cfg.chain_policy.max_records),
            "max_block_bytes": int(cfg.chain_policy.max_block_bytes),
        },
        "payload": {
            "model_bits": float(cfg.payload.model_bits),
            "hash_bits": float(cfg.payload.hash_bits),
            "block_bits": float(cfg.payload.block_bits),
        },
        "attack": attack,
    }
    return yaml.safe_dump(doc, sort_keys=False)


# -------------------------------------------------------------- run plumbing


def apply_overrides(cfg: ScenarioConfig, strategy: Optional[str] = None,
                    attack: Optional[str] = None,
                    defense: Optional[float] = None) -> ScenarioConfig:
    """Command-line overrides on top of a loaded scenario."""
    if strategy is not None:
        cfg = dataclasses.replace(cfg, strategy=Strategy.parse(strategy))
    if attack is not None:
        if attack == "poisoning":
            new = dataclasses.replace(
                cfg.attack, poisoners=frozenset({max(n.id for n in cfg.nodes)}),
                poison_magnitude=10.0)
        elif attack.startswith("ddos:"):
            new = dataclasses.replace(
                cfg.attack,
                ddos=DdosConfig(attack_fraction=_as_float(attack[5:], "--attack"),
                                retarget_lag_terms=1))
        else:
            raise ValueError(
                f"--attack must be 'poisoning' or 'ddos:<fraction>', got {attack!r}")
        cfg = dataclasses.replace(cfg, attack=new)
    if defense is not None:
        cfg = dataclasses.replace(
            cfg, attack=dataclasses.replace(cfg.attack,
                                            defense=DefensePolicy.threshold(defense)))
    return cfg


def parse_seed_range(text: str) -> tuple:
    """Seed lists as '7', '2,5,9', or an inclusive '1-5'."""
    text = text.strip()
    if not text:
        raise ValueError("empty seed range")
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    if "-" in text[1:]:  # a leading '-' would be a negative seed, not a range
        lo_s, hi_s = text.split("-", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"seed range {text!r} runs backwards")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _metrics_csv(result: RunResult) -> str:
    label = result.config.strategy.label
    seed = result.config.master_seed
    names = [f.name for f in dataclasses.fields(MetricsRow)]
    buf = io.StringIO()
    buf.write(",".join(names + ["strategy", "seed"]) + "\n")
    for row in result.rows:
        cells = []
        for name in names:
            value = getattr(row, name)
            cells.append(repr(value) if isinstance(value, float) else str(value))
        buf.write(",".join(cells + [label, str(seed)]) + "\n")
    return buf.getvalue()


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _file_label(strategy: Strategy) -> str:
    return strategy.label.replace(":", "-")


def run_manifest(manifest: RunManifest) -> int:
    """Execute every (strategy, seed) combination; report via exit status."""
    try:
        cfg = load_scenario(manifest.scenario)
        cfg = apply_overrides(cfg, attack=manifest.attack,
                              defense=manifest.defense)
        variants = [dataclasses.replace(cfg, strategy=s)
                    for s in manifest.strategies] or [cfg]
        out = Path(manifest.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ValueError(f"output directory {out} is not writable")
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        for variant in variants:
            label = _file_label(variant.strategy)
            for seed in manifest.seeds:
                result = run_scenario(dataclasses.replace(variant,
                                                          master_seed=seed))
                target = out / f"metrics_{label}_{seed}.csv"
                _write_atomic(target, _metrics_csv(result))
                print(f"wrote {target}")
                if result.chain is not None:
                    target = out / f"chain_{label}_{seed}.txt"
                    _write_atomic(target, dump_chain(result.chain))
                    print(f"wrote {target}")
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def audit_chain(path: str) -> AuditReport:
    """Re-verify a chain dump file; raises ValueError on a malformed dump."""
    with open(path, "r", encoding="utf-8") as fh:
        return audit_dump(fh.read())


def _cmd_audit(path: str) -> int:
    try:
        report = audit_chain(path)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    if report.ok:
        print("Ok")
        return 0
    print(f"FirstBadBlock({report.first_bad_block})")
    return 3


# ----------------------------------------------------------------- interface


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbafl",
        description="Deterministic federated-learning protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one scenario")
    runp.add_argument("--config", required=True, help="scenario file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", action="append", type=int, default=None,
                      help="seed to run (repeatable; default: the scenario's)")
    runp.add_argument("--strategy", default=None,
                      help="override the scenario strategy, e.g. StaticEps:1.0")
    runp.add_argument("--attack", default=None,
                      help="'poisoning' or 'ddos:<fraction>'")
    runp.add_argument("--defense", type=float, default=None,
                      help="discard threshold theta in [0, 1]")

    auditp = sub.add_parser("audit", help="re-verify a chain dump")
    auditp.add_argument("--chain", required=True, help="chain dump file")

    sweepp = sub.add_parser("sweep", help="run a strategy x seed grid")
    sweepp.add_argument("--config", required=True, help="scenario file")
    sweepp.add_argument("--out", required=True, help="output directory")
    sweepp.add_argument("--strategies", required=True,
                        help="comma-separated strategy labels")
    sweepp.add_argument("--seeds", required=True,
                        help="'7', '2,5,9', or inclusive '1-5'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command == "audit":
        return _cmd_audit(args.chain)
    try:
        if args.command == "run":
            strategies = ()
            if args.strategy is not None:
                strategies = (Strategy.parse(args.strategy),)
            seeds = tuple(args.seed) if args.seed else None
            if seeds is None:
                seeds = (load_scenario(args.config).master_seed,)
            manifest = RunManifest(scenario=args.config, out_dir=args.out,
                                   seeds=seeds, strategies=strategies,
                                   attack=args.attack, defense=args.defense)
        else:
            manifest = RunManifest(
                scenario=args.config, out_dir=args.out,
                seeds=parse_seed_range(args.seeds),
                strategies=tuple(Strategy.parse(s.strip())
                                 for s in args.strategies.split(",")))
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run_manifest(manifest)


if __name__ == "__main__":
    sys.exit(main())

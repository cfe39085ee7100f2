"""Command-line front end: config files in, metrics CSV and chain dumps out.

Scenarios are described in a nested key-value file; omitted fields fall
back to their config dataclass's defaults, which for `ScenarioConfig` are
the stock five-node experiment.
Outputs are plain text so any plotting tool can consume them: one CSV per
(strategy, seed) and one chain dump per chain-backed run, all written
atomically.

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 audit failure (including an unparseable dump).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import io
import math
import os
import re
import sys
import typing
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from .aggregation import DefensePolicy
from .chain import AuditReport, audit_dump, dump_chain
from .model import Dataset
from .netsim import DdosConfig
from .orchestrator import (PLAIN_NUMBER, DataSpec, MetricsRow, RunResult,
                           ScenarioConfig, Strategy, run_scenario)


# ------------------------------------------------------------- config schema
#
# A scenario file has one key per config dataclass field, with a nested
# mapping for each dataclass-typed field.  The keys a section gives are
# merged onto its default: the value the enclosing default holds, else the
# dataclass's own field default.  So every default is written once, in its
# dataclass; ScenarioConfig's are the stock scenario.


_WHOLE = re.compile(r"[+-]?[0-9]+")  # the whole-number spellings of PLAIN_NUMBER


def _finite(value) -> Optional[float]:
    """value as a finite float, or None; it must be text in a plain-number spelling."""
    if not (isinstance(value, str) and PLAIN_NUMBER.fullmatch(value)):
        return None
    number = float(value)
    return number if math.isfinite(number) else None


def _as_float(value, path: str, spec=None) -> float:
    number = _finite(value)
    if number is None:
        raise ValueError(f"{path} must be a finite number, got {value!r}")
    return number


def _as_int(value, path: str, spec=None) -> int:
    if isinstance(value, str) and _WHOLE.fullmatch(value):
        return int(value)  # float() would round a long one
    number = _finite(value)
    if number is None or not number.is_integer():
        raise ValueError(f"{path} must be a whole number, got {value!r}")
    return int(number)


def _as_array(value, dtype, path: str) -> np.ndarray:
    lists = set()  # ids of the lists read; an alias of an anchored list is that list again

    def read(leaf):  # numpy alone would read "1_0" as 10.0 and " 1" as 1.0
        if isinstance(leaf, list):
            # each repeat doubles the numbers to read, so nested ones never finish
            if id(leaf) in lists:
                raise ValueError(f"{path} must not repeat a YAML anchor")
            lists.add(id(leaf))
            return [read(item) for item in leaf]
        if isinstance(leaf, str) and _WHOLE.fullmatch(leaf):
            return int(leaf)
        if isinstance(leaf, str) and PLAIN_NUMBER.fullmatch(leaf):
            return float(leaf)
        raise ValueError(f"{path} must be a rectangular array of numbers, got {leaf!r}")

    numbers = read(value)
    try:
        return np.asarray(numbers, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # ragged rows, or a whole number past float
        raise ValueError(f"{path} must be a rectangular array of numbers") from None


def _as_mapping(value, path: str, known) -> dict:
    if value is None:  # an empty section keeps its default
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{path or 'config root'} must be a mapping, got {value!r}")
    for key in value:
        if key not in known:
            raise ValueError(f"unknown field {_join(path, key)}")
    return value


def _join(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _load_dataset(value, path: str, spec: DataSpec) -> Dataset:
    value = _as_mapping(value, path, ("features", "labels", "classes"))
    for key in ("features", "labels"):
        if key not in value:
            raise ValueError(f"{path}.{key} is required")
    # ScenarioConfig checks the dataset against data, labels' dtype included
    classes = (_as_int(value["classes"], path + ".classes") if "classes" in value
               else spec.classes)
    return Dataset(_as_array(value["features"], float, path + ".features"),
                   _as_array(value["labels"], None, path + ".labels"), classes)


def _named(parse, text, name: str):
    """parse(text), with a ValueError's message prefixed by the field or flag name."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _load_strategy(value, path: str, spec=None) -> Strategy:
    return _named(Strategy.parse, str(value), path)


# (load, dump) of each type that is not walked field by field.  A loader
# takes (value, path, spec), spec being the scenario's DataSpec.
_COERCERS = {
    int: (_as_int, int),
    float: (_as_float, float),
    Strategy: (_load_strategy, lambda s: s.label),
    Dataset: (_load_dataset, lambda ds: {"features": ds.features.tolist(),
                                         "labels": [int(x) for x in ds.labels],
                                         "classes": int(ds.classes)}),
}


@functools.lru_cache(maxsize=None)
def _schema(cls) -> dict:
    """Init field name -> (field, resolved type) of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in dataclasses.fields(cls) if f.init}


def _load(tp, value, base, path: str, spec: Optional[DataSpec]):
    """value read from a file as type tp.

    A dataclass section merges onto base when base is an instance, else onto
    the dataclass's field defaults.
    """
    if tp in _COERCERS:
        return _COERCERS[tp][0](value, path, spec)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _load(args[0], value, base, path, spec)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return origin(_load(args[0], v, None, f"{path}[{i}]", spec)
                      for i, v in enumerate(value))
    if issubclass(tp, enum.Enum):  # spelled by value
        names = {m.value: m for m in tp}
        if isinstance(value, str) and value in names:
            return names[value]
        raise ValueError(f"{path} must be one of {list(names)}, got {value!r}")
    schema = _schema(tp)
    value = _as_mapping(value, path, schema)
    kw = {}
    for name, (f, hint) in schema.items():
        default = getattr(base, name, f.default)  # f.default when base is None
        if name in value:
            kw[name] = _load(hint, value[name], default, _join(path, name), spec)
        elif default is dataclasses.MISSING:
            raise ValueError(f"{_join(path, name)} is required")
        else:
            kw[name] = default
    try:
        return tp(**kw)
    except ValueError as exc:  # a config dataclass's messages start with the field name
        raise ValueError(_join(path, exc)) from None


def _dump(tp, value):
    """File form of value, which _load reads back to an equal value."""
    if tp in _COERCERS:
        return _COERCERS[tp][1](value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        return None if value is None else _dump(args[0], value)
    if origin is tuple:
        return [_dump(args[0], v) for v in value]
    if origin is frozenset:
        return sorted(_dump(args[0], v) for v in value)
    if issubclass(tp, enum.Enum):
        return value.value
    return {name: _dump(hint, getattr(value, name))
            for name, (_, hint) in _schema(tp).items()}


def _unique_key_loader(base: type) -> type:
    """The scenario loader on a PyYAML safe loader class (SafeLoader or CSafeLoader)."""

    class UniqueKeyLoader(base):
        """Safe loader that keeps every scalar but null as the text written.

        YAML 1.1 would read off as False, 010 as 8 and 1_0 as 10; here each
        field's coercer reads the text, so one rule spells every value. A
        mapping that repeats a key is rejected; safe_load keeps the last silently.
        """

        yaml_implicit_resolvers = {
            first: [(tag, regexp) for tag, regexp in resolvers
                    if tag in ("tag:yaml.org,2002:null", "tag:yaml.org,2002:merge")]
            for first, resolvers in base.yaml_implicit_resolvers.items()}

        def __init__(self, stream):
            super().__init__(stream)
            self._checked = set()  # mapping nodes whose keys were checked

        def flatten_mapping(self, node):
            # Every mapping is flattened before it is constructed, and libyaml
            # composes nodes in C, so keys are checked here. A merge rewrites the
            # mapping it merges from, so each mapping is checked once, first.
            if node not in self._checked:
                self._checked.add(node)
                first = {}
                for key, _ in node.value:
                    if not isinstance(key, yaml.ScalarNode) or key.tag == "tag:yaml.org,2002:merge":
                        continue  # a merged mapping's keys may be overridden
                    seen = first.setdefault((key.tag, key.value), key)
                    if seen is not key:
                        raise ValueError(f"duplicate key {key.value!r} on line "
                                         f"{key.start_mark.line + 1} (first on line "
                                         f"{seen.start_mark.line + 1})")
            super().flatten_mapping(node)
            # keep each key's last pair, the one construction keeps: a mapping
            # that merges another twice would otherwise double at each level
            last = {}
            for pair in node.value:
                key = pair[0]
                last[(key.tag, key.value) if isinstance(key, yaml.ScalarNode) else key] = pair
            node.value = list(last.values())

    for tag in ("int", "float"):  # an explicit !!int 010 is text too
        UniqueKeyLoader.add_constructor("tag:yaml.org,2002:" + tag, base.construct_scalar)
    return UniqueKeyLoader


# libyaml's parser when PyYAML was built with it: it loads a scenario about
# five times faster than the pure-Python one, with the same nodes.
_UniqueKeyLoader = _unique_key_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file, merged onto the field defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _as_mapping(yaml.load(fh, Loader=_UniqueKeyLoader), "", _schema(ScenarioConfig))
    # a node dataset's classes default to data.classes, so data loads first
    spec = _load(DataSpec, data.get("data"), None, "data", None)
    return _load(ScenarioConfig, data, None, "", spec)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Config text that loads back to an equal scenario."""
    return yaml.safe_dump(_dump(ScenarioConfig, cfg), sort_keys=False)


# -------------------------------------------------------------- run plumbing


def apply_overrides(cfg: ScenarioConfig, attack: Optional[str] = None,
                    defense: Optional[float] = None) -> ScenarioConfig:
    """Command-line overrides on top of a loaded scenario."""
    if attack is not None:  # the file's other attack fields stay
        if attack == "poisoning":
            new = dataclasses.replace(cfg.attack,
                                      poisoners=frozenset({max(n.id for n in cfg.nodes)}))
        elif attack.startswith("ddos:"):
            fraction = _as_float(attack[5:], "--attack")
            flood = cfg.attack.ddos or DdosConfig()
            new = dataclasses.replace(cfg.attack, ddos=_named(
                lambda f: dataclasses.replace(flood, attack_fraction=f), fraction, "--attack"))
        else:
            raise ValueError(
                f"--attack must be 'poisoning' or 'ddos:<fraction>', got {attack!r}")
        cfg = dataclasses.replace(cfg, attack=new)
    if defense is not None:
        policy = _named(DefensePolicy.threshold, defense, "--defense")
        cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, defense=policy))
    return cfg


def _parse_seed(text: str) -> int:
    """One seed, in plain decimal digits: int() would also read '1_0' as 10."""
    if not _WHOLE.fullmatch(text):
        raise ValueError(f"a seed must be a whole number, got {text!r}")
    return int(text)


def parse_seed_range(text: str) -> Sequence[int]:
    """Seed lists as '7', '2,5,9', or an inclusive '1-5' (a range, never expanded)."""
    text = text.strip()
    if not text:
        raise ValueError("empty seed range")
    if "," in text:
        return tuple(map(_parse_seed, text.split(",")))
    dash = text.find("-", 1)  # a leading '-' belongs to a negative seed, not a range
    if dash > 0:
        lo, hi = _parse_seed(text[:dash]), _parse_seed(text[dash + 1:])
        if hi < lo:
            raise ValueError(f"seed range {text!r} runs backwards")
        return range(lo, hi + 1)
    return (_parse_seed(text),)


def _metrics_csv(result: RunResult) -> str:
    label = result.config.strategy.label
    seed = result.config.master_seed
    buf = io.StringIO()
    buf.write(",".join(MetricsRow._fields + ("strategy", "seed")) + "\n")
    for row in result.rows:
        cells = [repr(value) if isinstance(value, float) else str(value) for value in row]
        buf.write(",".join(cells + [label, str(seed)]) + "\n")
    return buf.getvalue()


def _write_atomic(path: Path, text: str) -> None:
    # not mkstemp, whose file is 0600 whatever the umask: outputs are for others to audit
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        # newline="": the same bytes on every platform, with no "\r\n"
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def audit_chain(path: str) -> AuditReport:
    """Re-verify a chain dump file; raises ValueError on a malformed dump."""
    # newline="" lets a "\r" reach the audit, and an undecodable byte reads as
    # U+FFFD, which the audit names with its line
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
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
    runp.add_argument("--seed", action="append", default=None,
                      help="seed to run (repeatable; default: the scenario's)")
    runp.add_argument("--strategy", default=None,
                      help="override the scenario strategy, e.g. StaticEps:1.0")
    runp.add_argument("--attack", default=None,
                      help="'poisoning' or 'ddos:<fraction>'")
    runp.add_argument("--defense", default=None,
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
    """Run one `dbafl` command and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command == "audit":
        return _cmd_audit(args.chain)
    try:  # the flags first: a bad one is named even when the scenario is missing
        if args.command == "run":
            strategies = ()
            if args.strategy is not None:
                strategies = (_load_strategy(args.strategy, "--strategy"),)
            seeds = None if args.seed is None else tuple(
                _named(_parse_seed, text, "--seed") for text in args.seed)
            attack = args.attack
            defense = None if args.defense is None else _as_float(args.defense, "--defense")
        else:
            seeds = _named(parse_seed_range, args.seeds, "--seeds")
            strategies = tuple(_load_strategy(s.strip(), "--strategies")
                               for s in args.strategies.split(","))
            attack = defense = None
        cfg = apply_overrides(load_scenario(args.config), attack=attack, defense=defense)
        # no strategies runs the scenario's own, and no seeds its master_seed
        variants = [dataclasses.replace(cfg, strategy=s) for s in strategies] or [cfg]
        seeds = seeds or (cfg.master_seed,)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ValueError(f"output directory {out} is not writable")
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        for variant in variants:
            label = variant.strategy.label.replace(":", "-")
            for seed in seeds:
                result = run_scenario(dataclasses.replace(variant, master_seed=seed))
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


if __name__ == "__main__":
    sys.exit(main())

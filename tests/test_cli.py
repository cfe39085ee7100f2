"""Config loading, the run/sweep/audit commands, and output file contracts."""

import csv
import dataclasses
import hashlib
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import Phase, given, settings
from scenario_strategies import scenarios

from dbafl import aggregation as agg
from dbafl import cli
from dbafl import netsim as net
from dbafl import orchestrator as orch


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# PyYAML's safe loaders on this install: libyaml's, which the CLI picks when
# PyYAML has it, and the pure-Python fallback.
LOADER_BASES = [base for base in (getattr(yaml, "CSafeLoader", None), yaml.SafeLoader) if base]


def _each_loader_base(monkeypatch):
    """Yield each base of LOADER_BASES while the CLI loads scenarios through it."""
    for base in LOADER_BASES:
        with monkeypatch.context() as m:
            m.setattr(cli, "_UniqueKeyLoader", cli._unique_key_loader(base))
            yield base


def test_scenario_loader_uses_libyaml_when_pyyaml_has_it():
    assert issubclass(cli._UniqueKeyLoader, LOADER_BASES[0])


def test_the_loader_keeps_every_scalar_but_null_as_text(monkeypatch):
    # YAML 1.1 would read 8, False, inf and a date; each field's coercer reads the text
    text = "a: 010\nb: off\nc: .inf\nd: 2001-12-14\ne: ~\n"
    for _ in _each_loader_base(monkeypatch):
        assert yaml.load(text, Loader=cli._UniqueKeyLoader) == {
            "a": "010", "b": "off", "c": ".inf", "d": "2001-12-14", "e": None}


SMALL_CONFIG = """\
duration_s: 40.0
metrics_interval_s: 5.0
train:
  epochs: 5
  learning_rate: 0.01
  batch_size: 100
data:
  samples_per_node: 100
"""

# independent oracle for the sampling instants: one row every interval from
# zero through the horizon, so 40 s at 5 s spacing gives exactly nine rows
ORACLE_GRID = [5.0 * i for i in range(9)]

HEADER = ("sim_time_s,avg_test_accuracy,global_objective,t_training,t_testing,"
          "t_communication,t_waiting,blocks_appended,current_leader,strategy,seed")


def _read_metrics(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------- load_scenario


def test_empty_config_gives_experiment_defaults(tmp_path):
    # the README's stock experiment is ScenarioConfig's field defaults, and the
    # loader adds no default of its own
    cfg = orch.ScenarioConfig()
    assert cli.load_scenario(_write(tmp_path, "empty.yaml", "")) == cfg
    rsu, bus = orch.Role.RSU, orch.Role.BUS
    assert [(n.id, n.role, n.compute_time_multiplier) for n in cfg.nodes] == [
        (0, rsu, 1.0), (1, rsu, 1.0), (2, rsu, 1.0), (3, bus, 4.0), (4, bus, 4.0)]
    assert cfg.strategy == orch.Strategy.parse("DBAFL")
    assert cfg.train.epochs == 50
    assert cfg.train.learning_rate == 0.01
    assert cfg.train.batch_size == 1500
    assert cfg.chain_policy.max_wait_s == 2.0
    assert cfg.chain_policy.max_records == 10
    assert cfg.chain_policy.max_block_bytes == 10_000_000
    assert cfg.term_blocks == 10
    assert cfg.payload.model_bits == 8e7
    assert cfg.attack == orch.AttackConfig()
    assert cfg.duration_s == 600.0
    assert cfg.master_seed == 1
    assert cfg.metrics_interval_s == 5.0


def test_zero_nodes_rejected_naming_the_field(tmp_path):
    path = _write(tmp_path, "bad.yaml", "nodes: []\n")
    with pytest.raises(ValueError, match="nodes"):
        cli.load_scenario(path)


def _run_with_node_dataset(tmp_path, rows, labels, classes="classes: 2, ", data=""):
    """Exit code of `dbafl run` where node 1 brings its own dataset.

    `classes` is the dataset's own classes entry ("" omits it); `data` adds
    lines to the data section.
    """
    text = SMALL_CONFIG + data + (
        "nodes:\n"
        "  - {id: 0, role: RSU}\n"
        "  - id: 1\n"
        "    role: RSU\n"
        f"    dataset: {{{classes}features: {rows}, labels: {labels}}}\n")
    return cli.main(["run", "--config", _write(tmp_path, "own.yaml", text),
                     "--out", str(tmp_path / "out")])


def test_node_dataset_negative_label_is_a_config_error(tmp_path, capsys):
    labels = [0, 1] * 9 + [-1, 0]  # -1 used to wrap silently to the last class
    rc = _run_with_node_dataset(tmp_path, [[0.1 * i, 1.0] for i in range(20)], labels)
    assert rc == 1
    assert "nodes[1].dataset.labels" in capsys.readouterr().err


def test_node_dataset_label_out_of_range_in_test_split_is_a_config_error(tmp_path, capsys):
    labels = [0, 1] * 9 + [1, 2]  # the last rows form the test split
    rc = _run_with_node_dataset(tmp_path, [[0.1 * i, 1.0] for i in range(20)], labels)
    assert rc == 1
    assert "nodes[1].dataset.labels" in capsys.readouterr().err


def test_node_dataset_fractional_labels_are_a_config_error(tmp_path, capsys):
    labels = [0, 1] * 9 + [0.5, 1]  # 0.5 used to be truncated to class 0
    rc = _run_with_node_dataset(tmp_path, [[0.1 * i, 1.0] for i in range(20)], labels)
    assert rc == 1
    assert "nodes[1].dataset.labels" in capsys.readouterr().err


def test_node_dataset_boolean_label_is_a_config_error(tmp_path, capsys):
    labels = "[" + "0, 1, " * 9 + "true, 0]"  # YAML 1.1 reads true as class 1
    rc = _run_with_node_dataset(tmp_path, [[0.1 * i, 1.0] for i in range(20)], labels)
    assert rc == 1
    assert capsys.readouterr().err == ("config error: nodes[1].dataset.labels must be a "
                                       "rectangular array of numbers, got 'true'\n")


def test_node_dataset_feature_count_must_match_data_features(tmp_path, capsys):
    rows = [[0.1 * i, 1.0, -1.0] for i in range(20)]  # data.features is 2
    rc = _run_with_node_dataset(tmp_path, rows, [0, 1] * 10)
    assert rc == 1
    assert "nodes[1].dataset.features" in capsys.readouterr().err


def test_node_dataset_ragged_features_are_a_config_error(tmp_path, capsys):
    rows = [[0.1 * i, 1.0] for i in range(20)]
    rows[3] = [0.2]
    rc = _run_with_node_dataset(tmp_path, rows, [0, 1] * 10)
    assert rc == 1
    err = capsys.readouterr().err
    assert "nodes[1].dataset.features" in err
    assert "inhomogeneous" not in err  # numpy's own wording stays out


def test_node_dataset_non_numeric_feature_is_a_config_error(tmp_path, capsys):
    rows = [[0.1 * i, 1.0] for i in range(20)]
    rows[5] = [0.2, "x"]
    rc = _run_with_node_dataset(tmp_path, rows, [0, 1] * 10)
    assert rc == 1
    err = capsys.readouterr().err
    assert "nodes[1].dataset.features" in err
    assert "could not convert" not in err


def test_node_dataset_classes_must_match_data_classes(tmp_path, capsys):
    rows = [[0.1 * i, 1.0] for i in range(20)]  # data.classes is 2
    rc = _run_with_node_dataset(tmp_path, rows, [0, 1, 2] * 6 + [0, 1], "classes: 3, ")
    assert rc == 1
    assert "nodes[1].dataset.classes" in capsys.readouterr().err


def test_node_dataset_classes_default_to_data_classes(tmp_path, capsys):
    rows = [[0.1 * i, 1.0] for i in range(20)]
    rc = _run_with_node_dataset(tmp_path, rows, [0, 1, 2] * 6 + [0, 1], "",
                                data="  classes: 3\n")
    assert rc == 0, capsys.readouterr().err


def test_run_with_a_binding_byte_cap_exits_0_and_audits_ok(tmp_path, capsys):
    # 400 bytes hold seven records, so blocks are cut on bytes before max_records
    text = SMALL_CONFIG + "chain_policy: {max_block_bytes: 400}\n"
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", _write(tmp_path, "cap.yaml", text), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    dump = out / "chain_DBAFL_1.txt"
    assert cli.main(["audit", "--chain", str(dump)]) == 0
    assert "Ok" in capsys.readouterr().out
    assert max(len(line.split("|")[3].split(";")) for line in dump.read_text().splitlines()) == 7


def test_byte_cap_below_a_one_record_block_is_a_config_error(tmp_path, capsys):
    text = SMALL_CONFIG + "chain_policy: {max_block_bytes: 100}\n"
    rc = cli.main(["run", "--config", _write(tmp_path, "cap.yaml", text),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "chain_policy.max_block_bytes" in capsys.readouterr().err


def test_static_eps_strategy_from_config(tmp_path):
    for eps in (0.5, 1.0, 1.5):
        path = _write(tmp_path, "eps.yaml", f"strategy: StaticEps:{eps}\n")
        assert cli.load_scenario(path) == orch.ScenarioConfig(
            strategy=orch.Strategy.parse(f"StaticEps:{eps}"))


def test_unknown_field_is_named(tmp_path):
    with pytest.raises(ValueError, match="bogus"):
        cli.load_scenario(_write(tmp_path, "unk.yaml", "bogus: 3\n"))
    with pytest.raises(ValueError, match="frobnicate"):
        cli.load_scenario(_write(tmp_path, "unk2.yaml",
                                 "train:\n  frobnicate: 1\n"))


def test_non_mapping_config_rejected(tmp_path):
    with pytest.raises(ValueError, match="mapping"):
        cli.load_scenario(_write(tmp_path, "list.yaml", "- 1\n- 2\n"))


def test_round_trip_preserves_every_field(tmp_path):
    samples = [
        orch.ScenarioConfig(),
        orch.ScenarioConfig(strategy=orch.Strategy.parse("StaticEps:1.5"),
                            master_seed=7, duration_s=120.0, metrics_interval_s=2.5,
                            term_blocks=3),
        orch.ScenarioConfig(
            strategy=orch.Strategy.parse("AFL"),
            attack=orch.AttackConfig(
                poisoners=frozenset({4}), poison_magnitude=12.5,
                ddos=net.DdosConfig(0.8, 1),
                defense=agg.DefensePolicy.threshold(0.9))),
        orch.ScenarioConfig(
            strategy=orch.Strategy.parse("FedAVG"),
            nodes=(orch.NodeConfig(0, orch.Role.RSU),
                   orch.NodeConfig(7, orch.Role.BUS, 6.0,
                                   link=net.LinkParams(1e7, 9.5, 2e9))),
            data=orch.DataSpec(200, 3, 4, 2.0, 0.25),
            train=orch.TrainConfig(5, 0.1, 64),
            chain_policy=orch.BlockCutPolicy(1.0, 4, 1_000_000),
            payload=net.PayloadSizes(1e6, 128, 4000)),
        orch.ScenarioConfig(strategy=orch.Strategy.parse("LocalOnly"),
                            nodes=(orch.NodeConfig(3, orch.Role.BUS, 2.0),)),
    ]
    for i, cfg in enumerate(samples):
        path = tmp_path / f"rt{i}.yaml"
        path.write_text(cli.serialize_scenario(cfg))
        assert cli.load_scenario(str(path)) == cfg


# Partial sections merge onto their defaults, and every bad value is exit 1
# naming its field, never a traceback, a misleading message or a truncation.
LOADER_CASES = {
    "partial-link": ("nodes: [{id: 0, link: {mobile_snr: 9.0}}]\n", lambda: orch.ScenarioConfig(
        strategy=orch.Strategy.parse("DBAFL"),
        nodes=(orch.NodeConfig(0, link=dataclasses.replace(orch.DEFAULT_LINK, mobile_snr=9.0)),))),
    "partial-payload": ("payload: {model_bits: 1.0e6}\n", lambda: orch.ScenarioConfig(
        strategy=orch.Strategy.parse("DBAFL"),
        payload=dataclasses.replace(orch.DEFAULT_PAYLOAD, model_bits=1e6))),
    "bare-off-mode": ("attack: {defense: {mode: off, theta: 0.5}}\n", lambda: orch.ScenarioConfig(
        attack=orch.AttackConfig(defense=agg.DefensePolicy(agg.DefenseMode.OFF, 0.5)))),
    "link-not-a-mapping": ("nodes: [{id: 0, link: [1]}]\n", "nodes[0].link must be a mapping"),
    "node-not-a-mapping": ("nodes:\n  - 5\n", "nodes[0] must be a mapping"),
    "scalar-poisoners": ("attack: {poisoners: 3}\n", "attack.poisoners must be a list"),
    "fractional-epochs": ("train: {epochs: 2.7}\n", "train.epochs must be a whole number"),
    "bool-seed": ("master_seed: true\n", "master_seed must be a whole number"),
    "theta-out-of-range": ("attack: {defense: {mode: threshold, theta: 2}}\n",
                           "attack.defense.theta must be in [0, 1]"),
}


@pytest.mark.parametrize("text, expected", LOADER_CASES.values(), ids=LOADER_CASES.keys())
def test_loader_merges_partial_sections_or_names_the_bad_field(tmp_path, capsys, monkeypatch,
                                                              text, expected):
    path = _write(tmp_path, "case.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        if callable(expected):
            assert cli.load_scenario(path) == expected()
            continue
        rc = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1 and expected in err, err


@pytest.mark.parametrize("text, field", [
    ("duration_s: .nan\n", "duration_s"),
    ("duration_s: .inf\n", "duration_s"),
    ("metrics_interval_s: .nan\n", "metrics_interval_s"),
    ("chain_policy: {max_wait_s: .inf}\n", "chain_policy.max_wait_s"),
    ("payload: {model_bits: .nan}\n", "payload.model_bits"),
    ("train: {learning_rate: true}\n", "train.learning_rate"),
    ("master_seed: 1.9\n", "master_seed"),
    ("term_blocks: 2.5\n", "term_blocks"),
], ids=["nan-horizon", "inf-horizon", "nan-interval", "inf-max-wait", "nan-model-bits",
        "bool-rate", "fractional-seed", "fractional-term-blocks"])
def test_non_finite_bool_or_fractional_values_are_named_config_errors(tmp_path, monkeypatch,
                                                                    text, field):
    # load only: a run with a non-finite horizon that slipped through would never end
    path = _write(tmp_path, "bad.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be a (finite|whole) "):
            cli.load_scenario(path)


# One value outside its range for each check in the config dataclasses,
# with the full path of the field that the message must start with.
RANGE_CASES = {
    "max-wait": ("chain_policy: {max_wait_s: 0}\n", "chain_policy.max_wait_s"),
    "max-records": ("chain_policy: {max_records: 0}\n", "chain_policy.max_records"),
    "max-block-bytes": ("chain_policy: {max_block_bytes: 10}\n", "chain_policy.max_block_bytes"),
    "epochs": ("train: {epochs: 0}\n", "train.epochs"),
    "learning-rate": ("train: {learning_rate: 0}\n", "train.learning_rate"),
    "batch-size": ("train: {batch_size: 0}\n", "train.batch_size"),
    "node-id": ("nodes: [{id: -1}]\n", "nodes[0].id"),
    "node-id-u64": ("nodes: [{id: 18446744073709551616, role: RSU}, {id: 1, role: RSU}]\n",
                    "nodes[0].id"),
    "bandwidth": ("nodes: [{id: 0, link: {mobile_bandwidth_hz: 0}}]\n",
                  "nodes[0].link.mobile_bandwidth_hz"),
    "snr": ("nodes: [{id: 0, link: {mobile_snr: -1}}]\n", "nodes[0].link.mobile_snr"),
    "ethernet": ("nodes: [{id: 0, link: {ethernet_rate_bps: 0}}]\n",
                 "nodes[0].link.ethernet_rate_bps"),
    "compute": ("nodes: [{id: 0, compute_time_multiplier: 0.5}]\n",
                "nodes[0].compute_time_multiplier"),
    "samples": ("data: {samples_per_node: 9}\n", "data.samples_per_node"),
    "features": ("data: {features: 0}\n", "data.features"),
    "classes": ("data: {classes: 1}\n", "data.classes"),
    "classes-over-pool": ("data: {classes: 9000}\n", "data.classes"),  # 5 x 1500 rows
    # shared pools of 3.73 GiB and 279 GiB of float64, which numpy cannot allocate
    "pool-rows": ("data: {samples_per_node: 100000000}\n", "data"),
    "pool-features": ("data: {features: 10000000}\n", "data"),
    "separation": ("data: {separation: -1}\n", "data.separation"),
    "test-fraction": ("data: {test_fraction: 1}\n", "data.test_fraction"),
    "model-bits": ("payload: {model_bits: 0}\n", "payload.model_bits"),
    "hash-bits": ("payload: {hash_bits: 0}\n", "payload.hash_bits"),
    "block-bits": ("payload: {block_bits: 0}\n", "payload.block_bits"),
    "hash-over-model": ("payload: {hash_bits: 9.0e7}\n", "payload.hash_bits"),
    "magnitude": ("attack: {poison_magnitude: 0}\n", "attack.poison_magnitude"),
    "flood": ("attack: {ddos: {attack_fraction: 1}}\n", "attack.ddos.attack_fraction"),
    "lag": ("attack: {ddos: {retarget_lag_terms: -1}}\n", "attack.ddos.retarget_lag_terms"),
    "theta": ("attack: {defense: {mode: off, theta: -0.5}}\n", "attack.defense.theta"),
    "poisoner": ("attack: {poisoners: [9]}\n", "attack.poisoners"),
    "epsilon": ("strategy: StaticEps:0\n", "strategy"),
    "term-blocks": ("term_blocks: 0\n", "term_blocks"),
    "duration": ("duration_s: 0\n", "duration_s"),
    "interval": ("metrics_interval_s: 0\n", "metrics_interval_s"),
    "interval-too-fine": ("metrics_interval_s: 1.0e-9\n", "metrics_interval_s"),
    "duplicate-ids": ("nodes: [{id: 0}, {id: 0}]\n", "nodes"),
    "no-rsu": ("nodes: [{id: 0, role: Bus}]\n", "nodes"),
}


@pytest.mark.parametrize("text, field", RANGE_CASES.values(), ids=RANGE_CASES.keys())
def test_each_out_of_range_value_is_named_by_its_own_field(tmp_path, text, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}[ :]"):
        cli.load_scenario(_write(tmp_path, "range.yaml", text))


def test_test_fraction_that_empties_a_split_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, "split.yaml", "data: {samples_per_node: 10, test_fraction: 0.01}\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "config error: data.test_fraction 0.01 leaves an empty" in capsys.readouterr().err


def test_repeated_section_is_a_config_error_naming_key_and_line(tmp_path, capsys, monkeypatch):
    text = "train: {epochs: 5}\nduration_s: 10\ntrain: {epochs: 7}\n"
    path = _write(tmp_path, "dup.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "duplicate key 'train' on line 3 (first on line 1)" in capsys.readouterr().err


def test_repeated_nested_field_is_rejected_naming_key_and_line(tmp_path, monkeypatch):
    dup = _write(tmp_path, "dup.yaml",
                 "nodes:\n  - {id: 0, role: RSU}\n  - id: 1\n    role: RSU\n    id: 2\n")
    # a merged mapping's keys may still be overridden
    merge = _write(tmp_path, "merge.yaml",
                   "nodes:\n  - &rsu {id: 0, role: RSU}\n  - {<<: *rsu, id: 1}\n")
    # also when merging from b rewrites b (x is built first, b is nested deeper)
    chained = "c: &c {k: 0}\nouter: {b: &b {<<: *c, k: 1}}\nx: {<<: *b}\n"
    for _ in _each_loader_base(monkeypatch):
        with pytest.raises(ValueError,
                           match=r"^duplicate key 'id' on line 5 \(first on line 3\)"):
            cli.load_scenario(dup)
        cfg = cli.load_scenario(merge)
        assert [(n.id, n.role) for n in cfg.nodes] == [(0, orch.Role.RSU), (1, orch.Role.RSU)]
        assert yaml.load(chained, Loader=cli._UniqueKeyLoader) == {
            "c": {"k": "0"}, "outer": {"b": {"k": "1"}}, "x": {"k": "1"}}


def test_nested_anchor_repeats_load_in_linear_time(tmp_path, monkeypatch):
    # each level repeats the one below twice: read repeat by repeat, 2**40 copies
    depth = 40
    rows = "&a0 [1.0]"
    for k in range(1, depth + 1):
        rows = f"&a{k} [{rows}, *a{k - 1}]"
    nested = _write(tmp_path, "nested.yaml", "nodes:\n  - {id: 0}\n"
                    f"  - {{id: 1, dataset: {{features: {rows}, labels: [0]}}}}\n")
    merges = ["nodes:", "  - &m0 {id: 0, compute_time_multiplier: 2.0}"]
    merges += [f"  - &m{k} {{<<: [*m{k - 1}, *m{k - 1}], id: {k}}}" for k in range(1, depth + 1)]
    merged = _write(tmp_path, "merged.yaml", "\n".join(merges) + "\n")
    for _ in _each_loader_base(monkeypatch):
        with pytest.raises(ValueError, match=r"^nodes\[1\]\.dataset\.features must not "
                                             r"repeat a YAML anchor$"):
            cli.load_scenario(nested)
        cfg = cli.load_scenario(merged)
        assert [(n.id, n.compute_time_multiplier) for n in cfg.nodes] == [
            (k, 2.0) for k in range(depth + 1)]


def test_exponent_numbers_without_a_dot_still_load(tmp_path, monkeypatch):
    # PyYAML's own resolver reads 8e7 (no dot) as a string; the scenario loader does not
    text = "payload: {model_bits: 8e7}\nchain_policy: {max_block_bytes: 1e6}\n"
    path = _write(tmp_path, "exp.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        cfg = cli.load_scenario(path)
        assert cfg.payload.model_bits == 8e7
        assert cfg.chain_policy.max_block_bytes == 1_000_000


@pytest.mark.parametrize("text, expected", [
    ('duration_s: "1_0"\n', "duration_s must be a finite number, got '1_0'"),
    ("train: {epochs: ' 5'}\n", "train.epochs must be a whole number, got ' 5'"),
    ("strategy: 'StaticEps: 2'\n", "strategy: StaticEps epsilon must be a number, got ' 2'"),
    # unquoted, YAML 1.1 reads these as 10, 16, 90, 3 and 1.5
    ("duration_s: 1_0\n", "duration_s must be a finite number, got '1_0'"),
    ("train: {epochs: 0x10}\n", "train.epochs must be a whole number, got '0x10'"),
    ("duration_s: 1:30\n", "duration_s must be a finite number, got '1:30'"),
    ("train: {epochs: 0b11}\n", "train.epochs must be a whole number, got '0b11'"),
    ("duration_s: 1_0.5\n", "duration_s must be a finite number, got '1_0.5'"),
    ("duration_s: !!float 1_0\n", "duration_s must be a finite number, got '1_0'"),
], ids=["digit-separator", "leading-space", "strategy-space", "unquoted-digit-separator",
        "unquoted-hex", "unquoted-base-60", "unquoted-binary", "unquoted-float-separator",
        "tagged-float-separator"])
def test_a_number_not_spelled_as_plain_digits_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                               text, expected):
    out = tmp_path / "o"
    path = _write(tmp_path, "n.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {expected}\n"
        assert not out.exists()


def test_unquoted_numbers_with_a_leading_zero_are_decimal(tmp_path, monkeypatch):
    # YAML 1.1 reads 010 as 8 (octal) and 09 as a string
    text = "train: {epochs: 010}\nterm_blocks: 09\nduration_s: 0100.5\nmaster_seed: !!int 010\n"
    path = _write(tmp_path, "zero.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        cfg = cli.load_scenario(path)
        assert (cfg.train.epochs, cfg.term_blocks, cfg.duration_s, cfg.master_seed) == (
            10, 9, 100.5, 10)


@pytest.mark.parametrize("text", ["master_seed: 12345678901234567891\n",
                                  "master_seed: '12345678901234567891'\n"])
def test_a_long_whole_number_loads_exactly(tmp_path, monkeypatch, text):
    # through a float it would load as 12345678901234567168
    path = _write(tmp_path, "seed.yaml", text)
    for _ in _each_loader_base(monkeypatch):
        assert cli.load_scenario(path).master_seed == 12345678901234567891


@pytest.mark.parametrize("bad", ["'1_0'", "1_0", "' 1'", "0x10", "true"])
def test_node_dataset_feature_not_spelled_as_a_plain_number_is_a_config_error(
        tmp_path, capsys, monkeypatch, bad):
    # numpy reads '1_0' as 10.0, ' 1' as 1.0 and true as 1.0
    rows = "[" + ", ".join(f"[{0.1 * i}, 1.0]" for i in range(19)) + f", [0.2, {bad}]]"
    for _ in _each_loader_base(monkeypatch):
        assert _run_with_node_dataset(tmp_path, rows, [0, 1] * 10) == 1
        assert capsys.readouterr().err.startswith(
            "config error: nodes[1].dataset.features must be a rectangular array of numbers, "
            "got ")


@pytest.mark.parametrize("bad", [".inf", "-.inf", ".nan", "null", "1e400",
                                 pytest.param("9" * 400, id="400-digits")])
def test_node_dataset_non_finite_features_are_a_config_error(tmp_path, capsys, bad):
    rows = "[" + ", ".join(f"[{0.1 * i}, 1.0]" for i in range(19)) + f", [0.2, {bad}]]"
    rc = _run_with_node_dataset(tmp_path, rows, [0, 1] * 10)
    assert rc == 1
    assert "nodes[1].dataset.features" in capsys.readouterr().err


def test_node_dataset_whose_training_diverges_is_a_runtime_error(tmp_path, capsys):
    # finite, but too large to train on; node 1 uploads, so its result is read
    rows = [[(1.0 + 0.1 * i) * 1e200, 1e200] for i in range(20)]
    with np.errstate(over="ignore", invalid="ignore"):
        rc = _run_with_node_dataset(tmp_path, rows, [0, 1] * 10)
    assert rc == 2
    assert "runtime error: training diverged" in capsys.readouterr().err


# No shrinking: a failure names its first differing line, and shrinking
# float-heavy scenarios takes minutes.
@settings(max_examples=30, deadline=None, derandomize=True, phases=[Phase.generate])
@given(cfg=scenarios())
def test_serialized_scenarios_load_back_to_the_same_text(tmp_path_factory, cfg):
    # text, not configs: a node Dataset holds arrays, so == on it is ambiguous
    path = tmp_path_factory.getbasetemp() / "round_trip.yaml"  # one file for all examples
    text = cli.serialize_scenario(cfg)
    path.write_text(text)
    again = cli.serialize_scenario(cli.load_scenario(str(path)))
    if again != text:  # report the first difference: diffing whole texts is slow
        before, after = next((a, b) for a, b in zip(text.splitlines() + [""],
                                                    again.splitlines() + [""]) if a != b)
        pytest.fail(f"reloaded scenario serializes differently: {before!r} -> {after!r}")


def test_readme_scenario_example_loads_and_round_trips(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("A fuller scenario file", 1)[1].split("```yaml\n", 1)[1]
    cfg = cli.load_scenario(_write(tmp_path, "readme.yaml", example.split("```", 1)[0]))
    text = cli.serialize_scenario(cfg)
    again = cli.load_scenario(_write(tmp_path, "again.yaml", text))
    assert again == cfg and cli.serialize_scenario(again) == text
    # every section but the attack spells out the stock scenario
    assert dataclasses.replace(cfg, attack=orch.AttackConfig()) == orch.ScenarioConfig()


# ----------------------------------------------------------------------- run


def _count_loads(monkeypatch) -> list:
    """Record each cli.load_scenario call's path."""
    calls, load = [], cli.load_scenario

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_scenario", counted)
    return calls


@pytest.mark.parametrize("seed_args, written", [([], 3), (["--seed", "4"], 4)])
def test_run_loads_the_scenario_once(tmp_path, monkeypatch, seed_args, written):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG + "master_seed: 3\n")
    calls = _count_loads(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)] + seed_args) == 0
    assert calls == [cfg_path]
    assert sorted(p.name for p in out.iterdir()) == [f"chain_DBAFL_{written}.txt",
                                                      f"metrics_DBAFL_{written}.csv"]


def test_run_without_a_seed_on_a_bad_file_is_one_config_error(tmp_path, monkeypatch, capsys):
    cfg_path = _write(tmp_path, "bad.yaml", "duration_s: .nan\n")
    calls = _count_loads(monkeypatch)
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert calls == [cfg_path]
    assert "config error: duration_s" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_writes_metrics_on_the_sampling_grid(tmp_path, capsys):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    metrics = out / "metrics_DBAFL_1.csv"
    chain = out / "chain_DBAFL_1.txt"
    assert metrics.exists() and chain.exists()
    header, rows = _read_metrics(metrics)
    assert ",".join(header) == HEADER
    assert [float(r[0]) for r in rows] == ORACLE_GRID
    times = [float(r[0]) for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(r[-2] == "DBAFL" and r[-1] == "1" for r in rows)


def test_run_two_seeds_writes_two_files(tmp_path):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg_path, "--out", str(out),
                   "--seed", "1", "--seed", "2"])
    assert rc == 0
    assert (out / "metrics_DBAFL_1.csv").exists()
    assert (out / "metrics_DBAFL_2.csv").exists()
    a = (out / "metrics_DBAFL_1.csv").read_bytes()
    b = (out / "metrics_DBAFL_2.csv").read_bytes()
    assert a != b  # seeds change data, so the trajectories differ


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["run", "--config", cfg_path, "--out", str(out),
                         "--seed", "5"]) == 0
    for name in ("metrics_DBAFL_5.csv", "chain_DBAFL_5.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# No workload with golden digests draws mini-batches, so these digests, from
# before training seeds were derived only for runs that use them, pin the draws.
# No workload's cut policy binds either, so the chain_policy runs pin the
# max-wait timer and the count and byte cuts.
MINI_BATCH_CONFIG = """\
nodes:
  - {id: 0, role: RSU}
  - {id: 1, role: RSU}
  - {id: 2, role: Bus, compute_time_multiplier: 4.0}
train: {epochs: 2, batch_size: 16}
data: {samples_per_node: 60}
duration_s: 60
metrics_interval_s: 20
master_seed: 5
"""
MINI_BATCH_SHA256 = {  # chain_policy line -> (metrics digest, chain digest)
    "": ("ca61c2ad46239d8f0767cb125d91c4297091ac556bf341f13ea716b73f25babb",
         "c2fb77731c217917cddd618da7b0caee8072d6365f1d52db0601f38a0488b7c4"),
    "chain_policy: {max_records: 1}\n":
        ("0ee328f8fb0db717f0609fc48a933bff225fd73f6162a01e847c8c605e5408b1",
         "cfffccf4bd09983b1a27b7985ca17918631672dde47db874a835b32cb3ad13aa"),
    "chain_policy: {max_records: 2, max_wait_s: 0.1}\n":
        ("03645ffbcfaf550201640f5f4c61e0a014587f86cbc357b62f68e3d230c9aa29",
         "c03bb4e4f3b9816d441b0017149f755c50471e0e2971145101ede5cd52f07085"),
    "chain_policy: {max_block_bytes: 150}\n":
        ("ed8c69ce0ca45f577610078388d10c6c1500a0db910dfb4d0e8d5fe301e7df3c",
         "aca2bfbc1d42d6ae7b881e6c40f3efcb12a9a65c8561737ec408608172197032"),
}


@pytest.mark.parametrize("policy, digests", MINI_BATCH_SHA256.items(),
                         ids=["stock-cuts", "max-records-1", "max-records-2-wait-0.1",
                              "max-block-bytes-150"])
def test_mini_batch_run_matches_its_recorded_digests(tmp_path, policy, digests):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _write(tmp_path, "mini.yaml", MINI_BATCH_CONFIG + policy),
                     "--out", str(out)]) == 0
    for name, digest in zip(("metrics_DBAFL_5.csv", "chain_DBAFL_5.txt"), digests):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_run_strategy_and_attack_overrides(tmp_path):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg_path, "--out", str(out),
                   "--strategy", "StaticEps:1.0", "--attack", "ddos:0.8",
                   "--defense", "0.9"])
    assert rc == 0
    assert (out / "metrics_StaticEps-1.0_1.csv").exists()
    assert (out / "chain_StaticEps-1.0_1.txt").exists()


def test_outputs_are_written_under_the_process_umask(tmp_path):
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        rc = cli.main(["run", "--config", _write(tmp_path, "small.yaml", SMALL_CONFIG),
                       "--out", str(out)])
    finally:
        os.umask(old)
    assert rc == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == {"metrics_DBAFL_1.csv": 0o644, "chain_DBAFL_1.txt": 0o644}


def test_a_sweep_with_a_defense_its_strategies_never_apply_fails_before_any_run(
        tmp_path, capsys):
    cfg_path = _write(tmp_path, "defended.yaml",
                      SMALL_CONFIG + "attack: {defense: {mode: threshold, theta: 0.9}}\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--strategies", "DBAFL,BSFL", "--seeds", "1"]) == 1
    assert capsys.readouterr().err.startswith("config error: attack.defense: BSFL ")
    assert not out.exists() or not any(out.iterdir())


def test_an_epsilon_names_its_files_by_its_canonical_label(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _write(tmp_path, "small.yaml", SMALL_CONFIG),
                     "--out", str(out), "--strategy", "StaticEps:1e0"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "chain_StaticEps-1.0_1.txt", "metrics_StaticEps-1.0_1.csv"]


def test_stock_flood_one_term_behind_slows_nothing_and_lag_0_does(tmp_path):
    # A stock run has two ten-block leader terms, so a flood aiming one term
    # behind the rotation never reaches a transfer; with no lag it floods the
    # serving leader. Only the scenario file can set the lag.
    stock = _write(tmp_path, "stock.yaml", "")
    lag0 = _write(tmp_path, "lag0.yaml",
                  "attack: {ddos: {attack_fraction: 0.5, retarget_lag_terms: 0}}\n")
    runs = {"calm": [stock], "lag1": [stock, "--attack", "ddos:0.5"], "lag0": [lag0]}
    metrics = {}
    for name, args in runs.items():
        out = tmp_path / name
        assert cli.main(["run", "--config", *args, "--out", str(out), "--seed", "1"]) == 0
        metrics[name] = (out / "metrics_DBAFL_1.csv").read_bytes()
    assert metrics["lag1"] == metrics["calm"]
    assert metrics["lag0"] != metrics["calm"]


def test_override_parsing():
    base = orch.ScenarioConfig()
    poisoned = cli.apply_overrides(base, attack="poisoning")
    assert poisoned.attack.poisoners == {4}  # highest id plays the adversary
    assert poisoned.attack.poison_magnitude == 10.0
    flooded = cli.apply_overrides(base, attack="ddos:0.8")
    assert flooded.attack.ddos == net.DdosConfig(0.8, 1)
    defended = cli.apply_overrides(base, defense=0.9)
    assert defended.attack.defense == agg.DefensePolicy.threshold(0.9)
    with pytest.raises(ValueError, match="attack"):
        cli.apply_overrides(base, attack="meteor")
    with pytest.raises(ValueError):
        cli.apply_overrides(base, attack="ddos:1.5")


def test_attack_flag_overrides_only_what_it_names(tmp_path):
    cfg = cli.load_scenario(_write(tmp_path, "attack.yaml", (
        "attack: {poison_magnitude: 2.0, ddos: {attack_fraction: 0.2, retarget_lag_terms: 0}}\n")))
    flooded = cli.apply_overrides(cfg, attack="ddos:0.5")
    assert flooded.attack == dataclasses.replace(cfg.attack, ddos=net.DdosConfig(0.5, 0))
    poisoned = cli.apply_overrides(cfg, attack="poisoning")
    assert poisoned.attack == dataclasses.replace(cfg.attack, poisoners=frozenset({4}))


def test_run_missing_config_is_a_config_error(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1


def test_run_bad_strategy_is_a_config_error(tmp_path):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    rc = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                   "--strategy", "Gossip"])
    assert rc == 1


@pytest.mark.parametrize("argv, expected", [
    (["run", "--strategy", "StaticEps:abc"],
     "--strategy: StaticEps epsilon must be a number, got 'abc'"),
    (["sweep", "--seeds", "1", "--strategies", "DBAFL,StaticEps:x"],
     "--strategies: StaticEps epsilon must be a number, got 'x'"),
    (["sweep", "--seeds", "1", "--strategies", "DBAFL, StaticEps"],
     "--strategies: StaticEps needs an epsilon, e.g. StaticEps:1.0"),
    (["run", "--strategy", "AFL:1.0"], "--strategy: AFL does not take an epsilon"),
    (["run", "--strategy", "StaticEps:1_0"],
     "--strategy: StaticEps epsilon must be a number, got '1_0'"),
    (["sweep", "--seeds", "1", "--strategies", "DBAFL,StaticEps: 2"],
     "--strategies: StaticEps epsilon must be a number, got ' 2'"),
])
def test_bad_strategy_flag_names_the_flag_and_the_field(tmp_path, capsys, argv, expected):
    out = tmp_path / "o"
    rc = cli.main(argv[:1] + ["--config", _write(tmp_path, "small.yaml", SMALL_CONFIG),
                              "--out", str(out)] + argv[1:])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not out.exists()


def test_bad_strategy_in_a_config_names_the_field(tmp_path):
    path = _write(tmp_path, "eps.yaml", "strategy: StaticEps:abc\n")
    with pytest.raises(ValueError, match="^strategy: StaticEps epsilon must be a number"):
        cli.load_scenario(path)


def test_runtime_failure_exits_2_and_leaves_no_partial_files(tmp_path):
    # a bus with zero SNR has no uplink, which surfaces mid-simulation
    text = SMALL_CONFIG + (
        "nodes:\n"
        "  - {id: 0, role: RSU}\n"
        "  - id: 1\n"
        "    role: Bus\n"
        "    compute_time_multiplier: 4.0\n"
        "    link: {mobile_bandwidth_hz: 2.0e7, mobile_snr: 0.0,"
        " ethernet_rate_bps: 1.0e9}\n")
    cfg_path = _write(tmp_path, "dead.yaml", text)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert list(out.iterdir()) == []


# --------------------------------------------------------------------- sweep


def test_sweep_strategies_share_the_time_grid(tmp_path):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", cfg_path, "--out", str(out),
                   "--strategies", "DBAFL,FedAVG,LocalOnly", "--seeds", "3"])
    assert rc == 0
    grids = {}
    for label in ("DBAFL", "FedAVG", "LocalOnly"):
        header, rows = _read_metrics(out / f"metrics_{label}_3.csv")
        assert ",".join(header) == HEADER
        grids[label] = [float(r[0]) for r in rows]
    assert grids["DBAFL"] == grids["FedAVG"] == grids["LocalOnly"] == ORACLE_GRID
    assert (out / "chain_DBAFL_3.txt").exists()
    assert not (out / "chain_FedAVG_3.txt").exists()
    assert not (out / "chain_LocalOnly_3.txt").exists()


def test_sweep_seed_ranges(tmp_path):
    assert tuple(cli.parse_seed_range("1-3")) == (1, 2, 3)
    assert tuple(cli.parse_seed_range("7")) == (7,)
    assert tuple(cli.parse_seed_range("2,5,9")) == (2, 5, 9)
    assert tuple(cli.parse_seed_range("-4")) == (-4,)
    assert tuple(cli.parse_seed_range("-3-1")) == (-3, -2, -1, 0, 1)
    assert tuple(cli.parse_seed_range("-5--3")) == (-5, -4, -3)
    with pytest.raises(ValueError):
        cli.parse_seed_range("5-1")
    with pytest.raises(ValueError):
        cli.parse_seed_range("")


@pytest.mark.parametrize("argv, expected", [
    (["run", "--seed", "1_0"], "--seed: a seed must be a whole number, got '1_0'"),
    (["run", "--seed", "2", "--seed", "0x10"],
     "--seed: a seed must be a whole number, got '0x10'"),
    (["sweep", "--strategies", "DBAFL", "--seeds", "1_0"],
     "--seeds: a seed must be a whole number, got '1_0'"),
    (["sweep", "--strategies", "DBAFL", "--seeds", "1,,2"],
     "--seeds: a seed must be a whole number, got ''"),
    (["sweep", "--strategies", "DBAFL", "--seeds", "1-2_0"],
     "--seeds: a seed must be a whole number, got '2_0'"),
    (["sweep", "--strategies", "DBAFL", "--seeds", "5-1"], "--seeds: seed range '5-1' runs backwards"),
    (["run", "--defense", "0_1"], "--defense must be a finite number, got '0_1'"),
    (["run", "--defense", "2"], "--defense: theta must be in [0, 1]"),
    (["run", "--attack", "ddos:2"], "--attack: attack_fraction must lie in [0, 1)"),
])
def test_bad_seed_or_defense_flag_is_a_config_error_naming_the_flag(tmp_path, capsys, argv,
                                                                    expected):
    # int() and float() read '1_0' as 10 and '0_1' as 1.0
    out = tmp_path / "o"
    rc = cli.main(argv[:1] + ["--config", _write(tmp_path, "small.yaml", SMALL_CONFIG),
                              "--out", str(out)] + argv[1:])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not out.exists()


def test_a_huge_seed_range_is_not_expanded(tmp_path, capsys):
    # a range of 10**11 seeds as a tuple would not fit in memory; the missing
    # scenario file is the error to report
    missing = tmp_path / "missing.yaml"
    rc = cli.main(["sweep", "--config", str(missing), "--out", str(tmp_path / "o"),
                   "--strategies", "DBAFL", "--seeds", "1-100000000000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err


def test_a_negative_seed_flag_still_runs(tmp_path):
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "r"),
                     "--seed", "-2"]) == 0
    assert (tmp_path / "r" / "metrics_DBAFL_-2.csv").exists()
    assert cli.main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s"),
                     "--strategies", "DBAFL", "--seeds", "-2"]) == 0
    assert (tmp_path / "s" / "metrics_DBAFL_-2.csv").exists()


# --------------------------------------------------------------------- audit


def _run_small(tmp_path) -> Path:
    cfg_path = _write(tmp_path, "small.yaml", SMALL_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    return out / "chain_DBAFL_1.txt"


def test_audit_accepts_untouched_dump(tmp_path, capsys):
    dump = _run_small(tmp_path)
    assert cli.main(["audit", "--chain", str(dump)]) == 0
    assert "Ok" in capsys.readouterr().out


def test_a_run_that_ends_before_its_first_block_audits_ok(tmp_path, capsys):
    # its dump is the empty dump of an empty chain
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _write(tmp_path, "short.yaml", "duration_s: 5\n"),
                     "--out", str(out)]) == 0
    dump = out / "chain_DBAFL_1.txt"
    assert dump.read_bytes() == b""
    capsys.readouterr()
    assert cli.main(["audit", "--chain", str(dump)]) == 0
    assert capsys.readouterr().out == "Ok\n"


def test_audit_flags_single_hex_digit_tamper(tmp_path, capsys):
    dump = _run_small(tmp_path)
    lines = dump.read_text().splitlines()
    assert len(lines) >= 2
    target = 1
    parts = lines[target].split("|")
    recs = parts[3]
    digest_start = recs.rindex(",") + 1
    flipped = "0" if recs[digest_start] != "0" else "f"
    parts[3] = recs[:digest_start] + flipped + recs[digest_start + 1:]
    lines[target] = "|".join(parts)
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(lines) + "\n")
    assert cli.main(["audit", "--chain", str(tampered)]) == 3
    assert f"FirstBadBlock({target})" in capsys.readouterr().out


def test_audit_rejects_truncated_dump(tmp_path, capsys):
    dump = _run_small(tmp_path)
    text = dump.read_text().rstrip("\n")
    truncated = tmp_path / "cut.txt"
    truncated.write_text(text[:-10])
    assert cli.main(["audit", "--chain", str(truncated)]) == 3
    err = capsys.readouterr()
    assert "format" in (err.out + err.err).lower()


def test_audit_missing_file_is_a_config_error(tmp_path):
    assert cli.main(["audit", "--chain", str(tmp_path / "absent.txt")]) == 1


def _audit_text(tmp_path, text: str) -> int:
    dump = tmp_path / "dump.txt"
    dump.write_text(text)
    return cli.main(["audit", "--chain", str(dump)])


def test_audit_negative_index_is_a_format_error(tmp_path, capsys):
    z = "00" * 32
    assert _audit_text(tmp_path, f"-1|{z}|0|L,1,1,{z}|{z}\n") == 3
    err = capsys.readouterr().err
    assert "format error" in err and "index -1" in err


def test_audit_timestamp_beyond_u64_is_a_format_error(tmp_path, capsys):
    lines = _run_small(tmp_path).read_text().splitlines()
    parts = lines[1].split("|")
    parts[2] = str(2**70)
    lines[1] = "|".join(parts)
    assert _audit_text(tmp_path, "\n".join(lines) + "\n") == 3
    err = capsys.readouterr().err
    assert "format error" in err and f"dump line 1: timestamp_ms {2**70}" in err


def _respell_line(text: str, line: int, field: int, respell) -> str:
    """text with one |-separated field of one line passed through respell."""
    lines = text.splitlines()
    parts = lines[line].split("|")
    parts[field] = respell(parts[field])
    lines[line] = "|".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field, respell, named", [
    (0, lambda s: "+0_" + s, "unexpected character '+'"),  # int() reads +0_1 as 1
    (2, lambda s: " " + s, "unexpected character ' '"),
    (4, str.upper, "unexpected character '"),  # bytes.fromhex reads upper case
    (0, lambda s: "00" + s, "index '002' is not a plain decimal"),
])
def test_audit_rejects_spellings_dump_chain_never_writes(tmp_path, capsys, field, respell,
                                                         named):
    text = _run_small(tmp_path).read_text()
    assert text.count("\n") >= 3
    assert _audit_text(tmp_path, _respell_line(text, 2, field, respell)) == 3
    err = capsys.readouterr().err
    assert f"format error: dump line 2: {named}" in err


def test_audit_reads_carriage_returns_as_written(tmp_path, capsys):
    # a text-mode read would turn "\r\n" into "\n" before the audit saw it
    text = _run_small(tmp_path).read_text()
    dump = tmp_path / "crlf.txt"
    dump.write_bytes(text.replace("\n", "\r\n").encode())
    assert cli.main(["audit", "--chain", str(dump)]) == 3
    assert "format error: dump line 0: unexpected character '\\r'" in capsys.readouterr().err


def test_audit_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    lines = _run_small(tmp_path).read_bytes().split(b"\n")
    lines[1] = lines[1][:5] + b"\xff" + lines[1][6:]
    dump = tmp_path / "bad.txt"
    dump.write_bytes(b"\n".join(lines))
    assert cli.main(["audit", "--chain", str(dump)]) == 3
    assert "format error: dump line 1: unexpected character '\ufffd'" \
        in capsys.readouterr().err

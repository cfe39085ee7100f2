"""Tests for dbafl.orchestrator: node scheduling, aggregation service, attacks, metrics."""

import dataclasses
import errno
import itertools
import math
import os
import typing

import numpy as np
import pytest
from conftest import assert_no_child_left, open_descriptors

from dbafl import aggregation as agg
from dbafl import chain as ch
from dbafl import cli
from dbafl import model as mdl
from dbafl import netsim as ns
from dbafl import orchestrator as orch


def small_scenario(strategy, seed=3, duration=150.0, **overrides):
    overrides.setdefault("data", orch.DataSpec(samples_per_node=200))
    return orch.ScenarioConfig(
        strategy=strategy, master_seed=seed, duration_s=duration, **overrides)


def _barrier_rounds(result):
    """A barrier run's rounds, each the RoundLogs that share its decision, in
    arrival order; a bootstrap's round, decided alone before them, is left out."""
    rounds = [list(logs) for _, logs in
              itertools.groupby(result.round_logs, key=lambda r: r.decision_s)]
    return rounds[result.config.strategy.bootstrap:]


# ---------------------------------------------------------------- poison


def test_poison_examples():
    params = np.array([0.5, -1.25, 3.0])
    almost = orch.poison(params, 1e-13, rng_seed=7)
    assert np.max(np.abs(almost - params)) <= 1e-12
    a = orch.poison(params, 2.0, rng_seed=11)
    b = orch.poison(params, 2.0, rng_seed=11)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, orch.poison(params, 2.0, rng_seed=12))
    assert np.max(np.abs(a - params)) <= 2.0
    assert np.array_equal(params, np.array([0.5, -1.25, 3.0]))  # input untouched
    with pytest.raises(ValueError):
        orch.poison(params, 0.0, rng_seed=1)


def test_poison_magnitude_ten_breaks_a_trained_separator():
    spec = orch.DataSpec(samples_per_node=200)
    cfg = small_scenario(orch.Strategy.parse("LocalOnly"))
    train, test = orch.node_datasets(cfg)[0]
    params = mdl.local_train(
        [mdl.init_params(spec.features, spec.classes)], [train], cfg.train,
        [orch.derive_seed(cfg.master_seed, "train", 0, 0)])[0]
    assert mdl.evaluate_accuracy(params, test) >= 0.9
    poisoned = orch.poison(params, 10.0, rng_seed=0)
    assert mdl.evaluate_accuracy(poisoned, test) < 0.6


# ------------------------------------------------- average_test_accuracy


def test_average_test_accuracy_examples():
    assert orch.average_test_accuracy([0.4, 0.6]) == 0.5
    assert orch.average_test_accuracy([0.73, 0.73, 0.73]) == 0.73
    rng = np.random.default_rng(5)
    vals = list(rng.uniform(0.0, 1.0, size=100))
    assert abs(orch.average_test_accuracy(vals) - math.fsum(vals) / 100) <= 1e-12
    with pytest.raises(ValueError):
        orch.average_test_accuracy([])


# ---------------------------------------------------- synchronous_round


def test_synchronous_round_fedavg_identical_models_is_identity():
    w = np.array([0.3, -1.7, 2.2, 0.0])
    out = orch.synchronous_round(
        orch.Strategy.parse("FedAVG"), np.zeros(4), [w.copy(), w.copy()], [160, 160])
    assert np.array_equal(out, w)


def test_synchronous_round_bsfl_fold_order():
    g = np.array([1.0, 2.0])
    a = np.array([3.0, -2.0])
    b = np.array([0.5, 0.5])
    out = orch.synchronous_round(orch.Strategy.parse("BSFL"), g, [a, b], [160, 160])
    assert np.array_equal(out, ((g + a) / 2 + b) / 2)
    swapped = orch.synchronous_round(orch.Strategy.parse("BSFL"), g, [b, a], [160, 160])
    assert np.array_equal(swapped, ((g + b) / 2 + a) / 2)


def test_synchronous_round_rejects_async_strategies():
    with pytest.raises(ValueError):
        orch.synchronous_round(
            orch.Strategy.parse("DBAFL"), np.zeros(2), [np.ones(2)], [160])


# ----------------------------------------------- leader_aggregation_step


def _check_record_protocol(record):
    """A record rebuilds from its fields by keyword and prints as a named tuple."""
    values = {name: getattr(record, name) for name in record._fields}
    rebuilt = type(record)(**values)
    assert rebuilt == record and rebuilt is not record
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(rebuilt) == repr(record) == f"{type(record).__name__}({fields})"


def _leader_fixture():
    data = mdl.generate_synthetic_dataset(seed=21, n=100, f=2, classes=2, separation=4.0)
    train, test = mdl.split_dataset(data, 0.2)
    trained = mdl.local_train(
        [mdl.init_params(2, 2)], [train], mdl.TrainConfig(20, 0.05, 100), [4])[0]
    committee = ch.CommitteeState(members=(0, 1), term_blocks=1)
    chain = ch.Chain(committee=committee)
    return train, test, trained, chain


def test_leader_step_tamper_blacklists_and_recovers_next_term():
    train, test, trained, chain = _leader_fixture()
    record = ch.HashRecord(ch.RecordKind.LOCAL, 5, 0, ch.hash_model(trained))
    chain.append_block([record], timestamp_ms=0)
    start = np.zeros_like(trained)
    before = start.tobytes()

    tampered = trained.copy()
    tampered[0] = np.nextafter(tampered[0], np.inf)
    incoming = orch.IncomingModel(record=record, params=tampered)
    _check_record_protocol(incoming)
    out = orch.leader_aggregation_step(
        start, test, incoming, chain, agg.DefensePolicy.off())
    assert out.verdict is orch.StepVerdict.TAMPERED
    assert out == orch.StepOutcome(orch.StepVerdict.TAMPERED, None, None, None)
    assert 5 in chain.committee.blacklist
    assert out.global_params is None
    assert start.tobytes() == before

    # while blacklisted even an honest upload from node 5 is ignored
    out = orch.leader_aggregation_step(
        start, test, orch.IncomingModel(trained, record), chain,
        agg.DefensePolicy.off())
    assert out.verdict is orch.StepVerdict.IGNORED
    assert out.global_params is None
    assert start.tobytes() == before

    # the next election clears the blacklist (term_blocks=1: one more append elects)
    filler = ch.HashRecord(ch.RecordKind.LOCAL, 1, 9, ch.hash_model(np.ones_like(trained)))
    chain.append_block([filler], timestamp_ms=1)
    assert 5 not in chain.committee.blacklist
    out = orch.leader_aggregation_step(
        start, test, orch.IncomingModel(trained, record), chain,
        agg.DefensePolicy.off())
    assert out.verdict is orch.StepVerdict.ACCEPTED
    _check_record_protocol(out)
    assert ch.hash_model(out.global_params) != ch.hash_model(start)
    assert np.array_equal(out.global_params, agg.aggregate_async(start, trained, out.epsilon))
    assert start.tobytes() == before  # the new global is a new array


def test_leader_step_equal_accuracy_gives_exact_midpoint():
    train, test, trained, chain = _leader_fixture()
    record = ch.HashRecord(ch.RecordKind.LOCAL, 1, 3, ch.hash_model(trained))
    chain.append_block([record], timestamp_ms=0)
    # incoming equals the global, so both accuracies match and eps must be exactly 1
    out = orch.leader_aggregation_step(
        trained.copy(), test, orch.IncomingModel(trained.copy(), record), chain,
        agg.DefensePolicy.off())
    assert out.verdict is orch.StepVerdict.ACCEPTED
    assert out.epsilon == 1.0
    assert out.acc_local == out.acc_global
    assert np.array_equal(out.global_params, trained)

    # a static-eps leader applies the midpoint formula to any incoming model
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    m = np.array([-2.0, 0.5, 1.0, 0.0, 7.0, -1.0])
    rec2 = ch.HashRecord(ch.RecordKind.LOCAL, 1, 4, ch.hash_model(m))
    chain.append_block([rec2], timestamp_ms=1)
    out2 = orch.leader_aggregation_step(
        g.copy(), test, orch.IncomingModel(m, rec2), chain, agg.DefensePolicy.off(),
        epsilon=1.0)
    assert out2.verdict is orch.StepVerdict.ACCEPTED
    assert np.array_equal(out2.global_params, (g + m) / 2)


def test_leader_step_discard_is_a_bitwise_noop():
    train, test, trained, chain = _leader_fixture()
    junk = orch.poison(trained, 25.0, rng_seed=2)
    record = ch.HashRecord(ch.RecordKind.LOCAL, 1, 0, ch.hash_model(junk))
    chain.append_block([record], timestamp_ms=0)
    start = trained.copy()
    before = start.tobytes()
    out = orch.leader_aggregation_step(
        start, test, orch.IncomingModel(junk, record), chain,
        agg.DefensePolicy.threshold(0.9))
    assert out.verdict is orch.StepVerdict.DISCARDED
    assert out.global_params is None
    assert start.tobytes() == before
    assert out.acc_local < 0.9 * out.acc_global
    # global_params defaults to None, by position and by keyword
    assert out == orch.StepOutcome(orch.StepVerdict.DISCARDED, None, out.acc_local,
                                   out.acc_global)
    assert out == orch.StepOutcome(acc_global=out.acc_global, acc_local=out.acc_local,
                                   epsilon=None, verdict=orch.StepVerdict.DISCARDED)
    _check_record_protocol(out)


def test_leader_step_requires_recorded_digest():
    train, test, trained, chain = _leader_fixture()
    record = ch.HashRecord(ch.RecordKind.LOCAL, 1, 0, ch.hash_model(trained))
    with pytest.raises(ValueError):
        orch.leader_aggregation_step(
            trained.copy(), test, orch.IncomingModel(trained, record), chain,
            agg.DefensePolicy.off())


def test_leader_step_verifies_a_digest_still_in_the_open_block():
    train, test, trained, chain = _leader_fixture()
    honest = ch.HashRecord(ch.RecordKind.LOCAL, 1, 0, ch.hash_model(trained))
    spoofed = ch.HashRecord(ch.RecordKind.LOCAL, 5, 0, ch.hash_model(trained))
    chain.submit(honest, 0.0)
    chain.submit(spoofed, 0.5)
    assert len(chain) == 0  # both digests are only in the open block
    start = np.zeros_like(trained)
    out = orch.leader_aggregation_step(
        start, test, orch.IncomingModel(trained, honest), chain,
        agg.DefensePolicy.off())
    assert out.verdict is orch.StepVerdict.ACCEPTED
    assert np.array_equal(out.global_params, agg.aggregate_async(start, trained, out.epsilon))

    tampered = trained.copy()
    tampered[0] = np.nextafter(tampered[0], np.inf)
    current = out.global_params
    after_accept = current.tobytes()
    out = orch.leader_aggregation_step(
        current, test, orch.IncomingModel(tampered, spoofed), chain,
        agg.DefensePolicy.off())
    assert out.verdict is orch.StepVerdict.TAMPERED
    assert chain.committee.blacklist == {5}
    assert out.global_params is None
    assert current.tobytes() == after_accept


def test_leader_step_without_a_chain_accepts_an_unrecorded_upload():
    train, test, trained, _ = _leader_fixture()
    unrecorded = ch.HashRecord(ch.RecordKind.LOCAL, 5, 0, ch.hash_bytes(b"elsewhere"))
    start = np.zeros_like(trained)
    out = orch.leader_aggregation_step(
        start.copy(), test, orch.IncomingModel(trained, unrecorded), None,
        agg.DefensePolicy.off())
    acc_l = mdl.evaluate_accuracy(trained, test)
    acc_g = mdl.evaluate_accuracy(start, test)
    assert out.verdict is orch.StepVerdict.ACCEPTED
    assert (out.acc_local, out.acc_global) == (acc_l, acc_g)
    assert out.epsilon == agg.scaling_factor(acc_l, acc_g) != 1.0
    assert np.array_equal(out.global_params,
                          agg.aggregate_async(start, trained, out.epsilon))


# The weights are literals, not reads of STRATEGIES: a strategy row that lost its
# label's epsilon would agree with itself.
@pytest.mark.parametrize("label, weight", [
    ("DBAFL", None), ("AFL", 1.0), ("StaticEps:0.5", 0.5), ("StaticEps:2", 2.0)])
def test_each_accepted_arrival_is_weighed_as_its_label_says(label, weight):
    res = orch.run_scenario(small_scenario(orch.Strategy.parse(label)))
    accepted = [d for d in res.decisions if d.verdict is orch.StepVerdict.ACCEPTED]
    assert accepted
    for d in accepted:
        if weight is None:  # the accuracy ratio
            assert d.epsilon == agg.scaling_factor(d.acc_local, d.acc_global)
        else:
            assert d.epsilon == weight
            assert d.acc_local is None


@pytest.mark.parametrize("strategy", [
    orch.Strategy.parse("DBAFL"), orch.Strategy.parse("StaticEps:1.0"),
    orch.Strategy.parse("BSFL")],
    ids=lambda s: s.label)
def test_a_chain_run_records_one_global_per_aggregation(strategy):
    # one leader per block, so the leader often changes while a service runs;
    # the poisoner's uploads that the defense discards must leave no record.
    # A barrier round applies no defense, so BSFL's config may not name one.
    defense = agg.DefensePolicy.off() if strategy.barrier else agg.DefensePolicy.threshold(0.9)
    attack = orch.AttackConfig(poisoners=frozenset({4}), defense=defense)
    result = orch.run_scenario(small_scenario(strategy, term_blocks=1, attack=attack))
    bootstrap, *rest = result.chain.blocks
    assert [(r.kind, r.round) for r in bootstrap.records] == [
        (ch.RecordKind.LOCAL, 0), (ch.RecordKind.GLOBAL, 0)]
    globals_ = [r for b in rest for r in b.records if r.kind is ch.RecordKind.GLOBAL]
    assert [r.round for r in globals_] == list(range(len(globals_)))
    assert {r.node_id for r in globals_} <= set(result.chain.committee.members)
    if strategy.barrier:
        assert len(globals_) == len(_barrier_rounds(result)) > 0
        return
    accepted = [d.global_digest_after for d in result.decisions
                if d.verdict is orch.StepVerdict.ACCEPTED]
    assert len(accepted) < len(result.decisions)
    assert [r.digest for r in globals_] == accepted


# ---------------------------------------------------------- run_scenario


def test_local_only_matches_isolated_training():
    cfg = small_scenario(orch.Strategy.parse("LocalOnly"), duration=60.0)
    res = orch.run_scenario(cfg)
    datasets = orch.node_datasets(cfg)
    for idx, node in enumerate(cfg.nodes):
        train, test = datasets[idx]
        train_t = node.compute_time_multiplier * cfg.train.epochs * train.n / 1000.0
        test_t = node.compute_time_multiplier * test.n / 1000.0
        # replay the same train/test cadence with standalone local_train calls
        params = mdl.init_params(cfg.data.features, cfg.data.classes)
        done_times, accs = [], [mdl.evaluate_accuracy(params, test)]
        t, rnd = 0.0, 0
        while True:
            done = t + train_t
            if done > cfg.duration_s:
                break
            params = mdl.local_train(
                [params], [train], cfg.train,
                [orch.derive_seed(cfg.master_seed, "train", node.id, rnd)])[0]
            done_times.append(done)
            accs.append(mdl.evaluate_accuracy(params, test))
            t = done + test_t
            rnd += 1
        for row, per_node in zip(res.rows, res.node_accuracies):
            expected = accs[sum(1 for d in done_times if d < row.sim_time_s)]
            assert per_node[idx] == expected


def test_dbafl_single_rsu_equals_local_only():
    node = (orch.NodeConfig(id=0, role=orch.Role.RSU, compute_time_multiplier=1.0),)
    kw = dict(seed=9, duration=60.0, nodes=node)
    alone = orch.run_scenario(small_scenario(orch.Strategy.parse("LocalOnly"), **kw))
    dbafl = orch.run_scenario(small_scenario(orch.Strategy.parse("DBAFL"), **kw))
    assert [r.sim_time_s for r in alone.rows] == [r.sim_time_s for r in dbafl.rows]
    assert [r.avg_test_accuracy for r in alone.rows] == \
        [r.avg_test_accuracy for r in dbafl.rows]
    assert len(dbafl.chain.blocks) == 1  # the leader never feeds itself models


def test_same_config_runs_bitwise_identical():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=100.0)
    a = orch.run_scenario(cfg)
    b = orch.run_scenario(cfg)
    assert a.rows == b.rows
    assert a.node_accuracies == b.node_accuracies
    assert ch.dump_chain(a.chain) == ch.dump_chain(b.chain)
    assert a.stage_totals == b.stage_totals


def test_stage_accounting_sums_to_elapsed():
    for strategy in (orch.Strategy.parse("DBAFL"), orch.Strategy.parse("FedAVG")):
        cfg = small_scenario(strategy, duration=120.0)
        res = orch.run_scenario(cfg)
        for node in cfg.nodes:
            total = sum(res.stage_totals[node.id].values())
            assert abs(total - cfg.duration_s) <= 1e-9
        k = len(cfg.nodes)
        prev = None
        for row in res.rows:
            stages = (row.t_training, row.t_testing, row.t_communication, row.t_waiting)
            assert all(s >= 0 for s in stages)
            assert abs(sum(stages) - k * row.sim_time_s) <= 1e-9
            if prev is not None:
                assert all(s >= p - 1e-12 for s, p in zip(stages, prev))
            prev = stages
            assert 0.0 <= row.avg_test_accuracy <= 1.0


def test_genesis_block_carries_both_initial_digests():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=80.0)
    res = orch.run_scenario(cfg)
    genesis = res.chain.blocks[0]
    assert len(genesis.records) == 2
    kinds = {r.kind for r in genesis.records}
    assert kinds == {ch.RecordKind.LOCAL, ch.RecordKind.GLOBAL}
    assert genesis.records[0].digest == genesis.records[1].digest
    first_rsu = next(n.id for n in cfg.nodes if n.role is orch.Role.RSU)
    assert {r.node_id for r in genesis.records} == {first_rsu}
    assert ch.audit_dump(ch.dump_chain(res.chain)).ok


def test_ledger_orders_local_digest_before_global_digest():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=120.0)
    res = orch.run_scenario(cfg)
    flat = [r for b in res.chain.blocks for r in b.records]
    accepted = [d for d in res.decisions if d.verdict is orch.StepVerdict.ACCEPTED]
    assert accepted
    for d in accepted:
        local_at = flat.index(
            ch.HashRecord(ch.RecordKind.LOCAL, d.node_id, d.round_index, d.upload_digest))
        global_at = next(
            i for i, r in enumerate(flat)
            if r.kind is ch.RecordKind.GLOBAL and r.digest == d.global_digest_after)
        assert local_at < global_at


def test_leader_rotation_replays_election_rule():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=150.0, term_blocks=3)
    res = orch.run_scenario(cfg)
    members = tuple(n.id for n in cfg.nodes if n.role is orch.Role.RSU)
    expected, in_term = [], 0
    for block in res.chain.blocks:
        if block.index == 0:
            expected.append(members[ch.elect_leader(block.block_hash, len(members))])
            in_term = 0
        else:
            in_term += 1
            if in_term >= cfg.term_blocks:
                expected.append(members[ch.elect_leader(block.block_hash, len(members))])
                in_term = 0
    assert len(expected) >= 2  # the scenario must actually rotate leadership
    assert res.chain.committee.leader_history == expected


def test_defense_discards_are_bitwise_noops_in_a_full_run():
    attack = orch.AttackConfig(poisoners=frozenset({2}), poison_magnitude=10.0,
                               defense=agg.DefensePolicy.threshold(0.9))
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=150.0, attack=attack)
    res = orch.run_scenario(cfg)
    discarded = [d for d in res.decisions if d.verdict is orch.StepVerdict.DISCARDED]
    assert discarded
    for d in discarded:
        assert d.global_digest_before == d.global_digest_after


def _record_sampling_evaluations(monkeypatch, cfg):
    """Patch counters onto the evaluations _on_sample makes.

    Returns the (params, test data) of each accuracy call, the (params bytes,
    node position) of each item a local_loss call scores, and the number of
    local_loss calls each sample made.
    """
    position = {train.features.tobytes(): i
                for i, (train, _) in enumerate(orch.node_datasets(cfg))}
    accuracies, losses, loss_calls = [], [], []
    sampling = [False]
    evaluate, score = orch.evaluate_accuracy, orch.local_loss

    def counted_accuracy(params, data):
        if sampling[0]:
            accuracies.append((params, data))
        return evaluate(params, data)

    def counted_loss(params, stack):
        if sampling[0]:
            loss_calls[-1] += 1
            for i, x in enumerate(stack.x):
                item = params if params.ndim == 1 else params[i]
                losses.append((item.tobytes(), position[x.tobytes()]))
        return score(params, stack)

    monkeypatch.setattr(orch, "evaluate_accuracy", counted_accuracy)
    monkeypatch.setattr(orch, "local_loss", counted_loss)
    on_sample = orch._Simulation._on_sample

    def flagged(self, now):
        sampling[0] = True
        loss_calls.append(0)
        try:
            on_sample(self, now)
        finally:
            sampling[0] = False
    monkeypatch.setattr(orch._Simulation, "_on_sample", flagged)
    return accuracies, losses, loss_calls


def _forget_sampled_values(monkeypatch):
    """Make every sample evaluate every node afresh, as if nothing were memoized."""
    on_sample = orch._Simulation._on_sample

    def forgetful(self, now):
        for n in self.nodes:
            n.sampled_acc = n.sampled_loss = (None, 0.0)
        on_sample(self, now)
    monkeypatch.setattr(orch._Simulation, "_on_sample", forgetful)


@pytest.mark.parametrize("strategy", [orch.Strategy.parse("DBAFL"),
                                      orch.Strategy.parse("LocalOnly")],
                         ids=["DBAFL", "LocalOnly"])
def test_sampling_evaluates_each_params_object_once_per_node(monkeypatch, strategy):
    cfg = orch.ScenarioConfig(strategy=strategy, master_seed=3)
    with monkeypatch.context() as m:
        _forget_sampled_values(m)
        bypassed = orch.run_scenario(cfg)
    accuracies, losses, loss_calls = _record_sampling_evaluations(monkeypatch, cfg)
    res = orch.run_scenario(cfg)
    assert res.rows == bypassed.rows
    assert res.node_accuracies == bypassed.node_accuracies
    samples = len(res.rows) * len(cfg.nodes)
    for i, (params, data) in enumerate(accuracies):
        assert not any(p is params and d is data for p, d in accuracies[:i])
    assert len(set(losses)) == len(losses)  # each (params, node) scored once
    for log in (accuracies, losses):
        assert len(log) < samples / 4  # the stock run repeats most models
    assert len(loss_calls) == len(res.rows)
    if strategy.serves:  # the stock nodes' rows are one shape: one stack
        assert max(loss_calls) == 1


@pytest.mark.parametrize("strategy", ["DBAFL", "LocalOnly"])
def test_sampled_losses_of_two_shapes_equal_each_node_scored_alone(monkeypatch, strategy):
    # Nodes 1 and 3 bring rows of their own, so the training rows form two
    # stacks; every node's sampled loss must still be its one-item loss.
    cfg = small_scenario(orch.Strategy.parse(strategy), nodes=_two_dataset_sizes())

    def alone(self):
        for n in self.nodes:
            params = self.global_params if self.strategy.serves else n.params
            n.sampled_loss = (params, mdl.local_loss(params, mdl.DataStack([n.train_data]))[0])

    with monkeypatch.context() as m:
        m.setattr(orch._Simulation, "_sample_losses", alone)
        want = orch.run_scenario(cfg)
    sizes = []
    stacked = orch.DataStack

    def counted(datas):
        sizes.append(len(datas))
        return stacked(datas)

    monkeypatch.setattr(orch, "DataStack", counted)
    got = orch.run_scenario(cfg)
    assert sizes[:2] == [3, 2]  # one stack per shape, in node order
    assert len({r.global_objective for r in got.rows}) > 2  # the losses move
    assert got.rows == want.rows


def test_dbafl_buses_barely_wait():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=150.0)
    res = orch.run_scenario(cfg)
    buses = {n.id for n in cfg.nodes if n.role is orch.Role.BUS}
    bus_rounds = [r for r in res.round_logs if r.node_id in buses and r.decision_s > r.start_s]
    assert bus_rounds
    for r in bus_rounds:
        wait = r.decision_s - r.upload_done_s
        assert wait / (r.decision_s - r.start_s) < 0.10


_ONE_RSU = (orch.NodeConfig(0), orch.NodeConfig(1, orch.Role.BUS, 4.0),
            orch.NodeConfig(2, orch.Role.BUS, 4.0))


@pytest.mark.parametrize("strategy, nodes, flood", [
    ("DBAFL", None, None), ("DBAFL", _ONE_RSU, None), ("AFL", None, None),
    ("DBAFL", None, 0.8)], ids=["dbafl", "dbafl-one-rsu", "afl", "dbafl-ddos-0.8"])
def test_bus_legs_take_their_round_latency_terms(strategy, nodes, flood):
    kw = {"nodes": nodes} if nodes else {}
    if flood is not None:
        kw["attack"] = orch.AttackConfig(ddos=ns.DdosConfig(flood))
    cfg = small_scenario(orch.Strategy.parse(strategy), duration=300.0, **kw)
    res = orch.run_scenario(cfg)
    one_rsu = sum(n.role is orch.Role.RSU for n in cfg.nodes) == 1
    # the serving RSU mirrors an upload over its backbone; all RSUs share one rate here
    backbone, = {n.link.ethernet_rate_bps for n in cfg.nodes if n.role is orch.Role.RSU}
    terms = {}  # bus id -> radio rate -> (upload term, download term) at that rate
    for n in cfg.nodes:
        if n.role is not orch.Role.BUS:
            continue
        rate = ns.shannon_rate(n.link)
        terms[n.id] = {}
        for r in (rate, rate * (1 - flood)) if flood is not None else (rate,):
            lat = ns.round_latency(cfg.payload, r, backbone)
            if not cfg.strategy.chain:
                up = lat.t_up_model
            elif one_rsu:
                up = lat.t_up_model + lat.t_up_hash
            else:
                up = lat.t_up
            terms[n.id][r] = (up, lat.t_dn)
    used, downloads = set(), 0
    for rl in res.round_logs:
        if rl.node_id not in terms:
            continue
        # the simulator schedules now + term, so each leg is exact in floats
        at = terms[rl.node_id]
        ups = {r for r, (up, _) in at.items() if rl.upload_done_s == rl.test_done_s + up}
        assert ups, rl
        used |= ups
        if rl.download_done_s != rl.start_s:
            downloads += 1
            dns = {r for r, (_, dn) in at.items() if rl.download_done_s == rl.start_s + dn}
            assert dns, rl
            used |= dns
    assert downloads
    assert used == {r for at in terms.values() for r in at}  # under a flood, both rates


def test_a_bus_backbone_rate_leaves_its_upload_legs_unchanged():
    # the serving RSU mirrors a bus's upload over the RSU's own backbone
    def upload_legs(cfg):
        res = orch.run_scenario(cfg)
        return [r.upload_done_s - r.test_done_s for r in res.round_logs if r.node_id == 3]

    stock = orch.ScenarioConfig()
    nodes = list(stock.nodes)
    nodes[3] = dataclasses.replace(
        nodes[3], link=dataclasses.replace(nodes[3].link, ethernet_rate_bps=1e6))
    legs = upload_legs(stock)
    assert legs and upload_legs(dataclasses.replace(stock, nodes=nodes)) == legs
    assert legs[0] == pytest.approx(2.0800064)


@pytest.mark.parametrize("label", ["DBAFL", "BSFL", "AFL"])
def test_a_zero_flood_leaves_every_output_unchanged(label):
    # one-block terms and no lag aim the flood at each new leader at once
    def outputs(ddos):
        cfg = small_scenario(orch.Strategy.parse(label), term_blocks=1,
                             attack=orch.AttackConfig(ddos=ddos))
        result = orch.run_scenario(cfg)
        return cli._metrics_csv(result), result.chain and ch.dump_chain(result.chain)

    unflooded = outputs(None)
    assert outputs(ns.DdosConfig(0.0, 0)) == unflooded
    assert outputs(ns.DdosConfig(0.5, 0)) != unflooded  # the flood does land on transfers


def test_a_zero_snr_rsu_fails_only_once_a_transfer_needs_its_radio():
    dead = dataclasses.replace(orch.DEFAULT_LINK, mobile_snr=0.0)
    nodes = (orch.NodeConfig(0, link=dead),) + _ONE_RSU[1:]
    # the AFL server downloads and uploads nothing, so its radio is never used
    cfg = small_scenario(orch.Strategy.parse("AFL"), nodes=nodes)
    res = orch.run_scenario(cfg)
    assert res.rows[-1].sim_time_s == cfg.duration_s
    assert res.decisions
    # as DBAFL's only committee member it sends each new global's digest by
    # radio, which fails the same way whether or not a flood slows that radio
    for ddos in (None, ns.DdosConfig(attack_fraction=0.5, retarget_lag_terms=0)):
        with pytest.raises(ValueError, match="unreachable"):
            orch.run_scenario(small_scenario(orch.Strategy.parse("DBAFL"), nodes=nodes,
                                             attack=orch.AttackConfig(ddos=ddos)))


def test_fedavg_round_fires_on_last_arrival():
    cfg = small_scenario(orch.Strategy.parse("FedAVG"), duration=150.0)
    res = orch.run_scenario(cfg)
    rounds = _barrier_rounds(res)
    assert len(rounds) >= 2
    k = len(cfg.nodes)
    for logs in rounds:
        assert len(logs) == k
        uploads = [r.upload_done_s for r in logs]
        decision, fired = logs[0].decision_s, uploads[-1]  # fired by the last arrival
        assert fired == max(uploads)
        # fastest uploader carries the whole spread as waiting
        slow, fast = max(uploads), min(uploads)
        waits = [decision - t for t in uploads]
        assert abs(max(waits) - (slow - fast) - (decision - fired)) <= 1e-9
    # rounds are back to back: the next round starts when the decision lands
    for nxt, prev in zip(rounds[1:], rounds[:-1]):
        assert {r.start_s for r in nxt} == {prev[0].decision_s}


def test_bsfl_consumes_exactly_k_fresh_models_per_round():
    cfg = small_scenario(orch.Strategy.parse("BSFL"), duration=150.0)
    res = orch.run_scenario(cfg)
    rounds = _barrier_rounds(res)
    assert rounds
    k = len(cfg.nodes)
    for logs in rounds:
        assert len(logs) == k
        assert len({r.node_id for r in logs}) == k
    assert ch.audit_dump(ch.dump_chain(res.chain)).ok


@pytest.mark.parametrize("strategy", [
    orch.Strategy.parse("DBAFL"), orch.Strategy.parse("BSFL"), orch.Strategy.parse("FedAVG"),
    orch.Strategy.parse("StaticEps:1.0"), orch.Strategy.parse("AFL"),
    orch.Strategy.parse("LocalOnly")],
    ids=lambda s: s.label)
def test_each_strategy_trait_shows_in_a_run(strategy):
    cfg = small_scenario(strategy)
    res = orch.run_scenario(cfg)
    assert (res.chain is not None) == strategy.chain
    # a barrier round is all K nodes' logs, which share the one decision
    rounds = _barrier_rounds(res)
    whole = [len({r.node_id for r in logs}) == len(cfg.nodes) for logs in rounds]
    assert (bool(whole) and all(whole)) == strategy.barrier
    assert bool(res.decisions) == (strategy.serves and not strategy.barrier)
    assert all(r.current_leader == -1 for r in res.rows) == (not strategy.serves)
    # a bootstrap is the first RSU's round 0, decided before any other round starts
    server = next(n.id for n in cfg.nodes if n.role is orch.Role.RSU)
    logs = res.round_logs
    bootstrapped = bool(logs) and (logs[0].node_id, logs[0].round_index) == (server, 0) \
        and all(r.start_s >= logs[0].decision_s > 0.0 for r in logs[1:])
    assert bootstrapped == strategy.bootstrap
    if strategy.barrier:
        assert (rounds[0][0].start_s > 0.0) == strategy.bootstrap
    if not strategy.serves:  # nothing is ever published, so no node downloads
        assert logs and all(r.download_done_s == r.start_s for r in logs)
    for record in (res.rows[-1], *logs[-1:], *res.decisions[-1:]):
        _check_record_protocol(record)


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(orch.Strategy.parse("DBAFL"), duration=0.0)
    with pytest.raises(ValueError, match="^StaticEps needs a positive finite epsilon$"):
        orch.Strategy.parse("StaticEps:0.0")
    with pytest.raises(ValueError, match="^DBAFL does not take an epsilon$"):
        orch.Strategy.parse("DBAFL:1.0")
    dup = (orch.NodeConfig(id=1, role=orch.Role.RSU),
           orch.NodeConfig(id=1, role=orch.Role.BUS))
    with pytest.raises(ValueError):
        small_scenario(orch.Strategy.parse("DBAFL"), nodes=dup)
    buses_only = (orch.NodeConfig(id=0, role=orch.Role.BUS),)
    with pytest.raises(ValueError):
        small_scenario(orch.Strategy.parse("DBAFL"), nodes=buses_only)
    with pytest.raises(ValueError):
        small_scenario(orch.Strategy.parse("LocalOnly"), nodes=())
    with pytest.raises(ValueError):
        small_scenario(
            orch.Strategy.parse("DBAFL"),
            attack=orch.AttackConfig(poisoners=frozenset({99})))
    with pytest.raises(ValueError):
        orch.NodeConfig(id=0, role=orch.Role.RSU, compute_time_multiplier=0.5)


# Every float field of a config dataclass; NaN compares false with every
# bound, so a check written as `x <= 0` would let it through.
_FLOAT_FIELDS = [
    (config, f.name)
    for config in (orch.DEFAULT_LINK, orch.DEFAULT_PAYLOAD, orch.DEFAULT_TRAIN,
                   ch.BlockCutPolicy(), orch.NodeConfig(0), orch.DataSpec(),
                   orch.AttackConfig(), ns.DdosConfig(), agg.DefensePolicy.threshold(0.5),
                   orch.ScenarioConfig())
    for f in dataclasses.fields(config)
    if typing.get_type_hints(type(config))[f.name] is float]


@pytest.mark.parametrize("config, name", _FLOAT_FIELDS,
                         ids=[f"{type(c).__name__}.{n}" for c, n in _FLOAT_FIELDS])
def test_a_nan_float_field_is_rejected_by_name(config, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        dataclasses.replace(config, **{name: math.nan})


@pytest.mark.parametrize("label", ["BSFL", "FedAVG", "LocalOnly"])
def test_a_defense_on_a_strategy_that_never_applies_it_is_rejected(label):
    attack = orch.AttackConfig(defense=agg.DefensePolicy.threshold(0.9))
    with pytest.raises(ValueError, match=f"^attack.defense: {label} "):
        orch.ScenarioConfig(strategy=orch.Strategy.parse(label), attack=attack)
    off = orch.AttackConfig(defense=agg.DefensePolicy(agg.DefenseMode.OFF, 0.9))
    orch.ScenarioConfig(strategy=orch.Strategy.parse(label), attack=off)


def test_a_training_trains_on_the_rows_it_started_with():
    cfg = small_scenario(orch.Strategy.parse("LocalOnly"),
                         train=mdl.TrainConfig(epochs=3, learning_rate=0.1, batch_size=64))
    sim = orch._Simulation(cfg)
    node = sim.nodes[0]
    start, old = node.params, node.train_data
    sim._schedule_train(0.0, node)
    # a swap between the training's start and the first read of its result
    node.train_data = mdl.Dataset(old.features, (old.classes - 1) - old.labels, old.classes)
    sim._on_train(node.train_time, node)
    seed = orch.derive_seed(cfg.master_seed, "train", node.cfg.id, 0)
    want, swapped = mdl.local_train([start, start], [old, node.train_data], cfg.train,
                                    [seed, seed])
    got = sim._model(node)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, swapped)


@pytest.mark.parametrize("features, labels, classes, field", [
    (np.zeros((20, 2)), [0, 1, 2] * 6 + [0, 1], 3, "classes"),
    (np.zeros((20, 3)), [0, 1] * 10, 2, "features"),
    (np.zeros(20), [0, 1] * 10, 2, "features"),
    (np.zeros((20, 2)), [0, 1] * 9 + [1, 2], 2, "labels"),
    (np.zeros((20, 2)), [0, 1] * 9 + [-1, 0], 2, "labels"),
    (np.zeros((20, 2)), [0, 1] * 9, 2, "labels"),
    (np.zeros((20, 2)), [0.0, 1.0] * 10, 2, "labels"),
])
def test_node_dataset_must_fit_the_data_spec(features, labels, classes, field):
    own = mdl.Dataset(features, np.asarray(labels), classes)
    nodes = (orch.NodeConfig(id=0, role=orch.Role.RSU),
             orch.NodeConfig(id=1, role=orch.Role.RSU, dataset=own))
    with pytest.raises(ValueError, match=rf"^nodes\[1\]\.dataset\.{field} "):
        small_scenario(orch.Strategy.parse("DBAFL"), nodes=nodes)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_node_dataset_non_finite_features_are_rejected(bad):
    features = np.zeros((20, 2))
    features[7, 1] = bad
    own = mdl.Dataset(features, np.array([0, 1] * 10), 2)
    nodes = (orch.NodeConfig(id=0, role=orch.Role.RSU),
             orch.NodeConfig(id=1, role=orch.Role.RSU, dataset=own))
    with pytest.raises(ValueError, match=r"^nodes\[1\]\.dataset\.features "):
        small_scenario(orch.Strategy.parse("DBAFL"), nodes=nodes)


@pytest.mark.parametrize("field", ["duration_s", "metrics_interval_s"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_horizon_or_interval_is_rejected(field, value):
    # either would keep run_scenario from ever ending
    with pytest.raises(ValueError, match=rf"^{field} must be positive and finite"):
        orch.ScenarioConfig(**{field: value})


def test_a_sampling_interval_that_leaves_over_a_million_samples_is_rejected():
    # run() schedules every sample up front: 1e-9 s over 600 s would be 6e11 of them
    with pytest.raises(ValueError, match=r"^metrics_interval_s must leave at most 1000000 "):
        orch.ScenarioConfig(metrics_interval_s=1e-9)
    with pytest.raises(ValueError, match=r"^metrics_interval_s "):
        orch.ScenarioConfig(duration_s=500_000.5, metrics_interval_s=0.5)
    orch.ScenarioConfig(duration_s=500_000.0, metrics_interval_s=0.5)  # exactly the limit


@pytest.mark.parametrize("strategy", ["DBAFL", "LocalOnly"])
def test_the_last_metrics_row_is_at_the_horizon_off_the_sampling_grid(strategy):
    # 10 s sampled every 4 s: the grid gives 0, 4 and 8 s, and the horizon adds 10 s
    cfg = small_scenario(orch.Strategy.parse(strategy), duration=10.0,
                         metrics_interval_s=4.0)
    res = orch.run_scenario(cfg)
    assert [r.sim_time_s for r in res.rows] == [0.0, 4.0, 8.0, 10.0]
    last = res.rows[-1]
    stages = last.t_training + last.t_testing + last.t_communication + last.t_waiting
    assert stages == pytest.approx(len(cfg.nodes) * 10.0)
    on_grid = orch.run_scenario(dataclasses.replace(cfg, metrics_interval_s=5.0))
    assert [r.sim_time_s for r in on_grid.rows] == [0.0, 5.0, 10.0]


@pytest.mark.parametrize("text", ["StaticEps:nan", "StaticEps:inf"])
def test_static_eps_needs_a_finite_epsilon(text):
    with pytest.raises(ValueError, match="finite"):
        orch.Strategy.parse(text)


def test_an_epsilon_parses_only_from_a_plain_decimal_or_exponent_spelling():
    for text, want in [("2", 2.0), ("+.25", 0.25), ("3.", 3.0), ("8e7", 8e7), ("1.5E-3", 1.5e-3)]:
        assert orch.Strategy.parse(f"StaticEps:{text}").epsilon == want, text
    for text in ["1_0", " 2", "2 ", "\u0662", "0x1", "e5", ".", "1e", "--1", "infinit", ""]:
        assert not orch.PLAIN_NUMBER.fullmatch(text), text
        with pytest.raises(ValueError, match=r"^StaticEps epsilon must be a number"):
            orch.Strategy.parse(f"StaticEps:{text}")
    for text in ["nan", "-Infinity", "INF", "1e400"]:  # spelled as numbers, but not finite
        assert orch.PLAIN_NUMBER.fullmatch(text), text
        with pytest.raises(ValueError, match="positive finite epsilon"):
            orch.Strategy.parse(f"StaticEps:{text}")


def test_node_dataset_that_fits_runs():
    data = mdl.generate_synthetic_dataset(seed=4, n=60, f=2, classes=2, separation=3.0)
    nodes = (orch.NodeConfig(id=0, role=orch.Role.RSU),
             orch.NodeConfig(id=1, role=orch.Role.RSU, dataset=data))
    result = orch.run_scenario(small_scenario(orch.Strategy.parse("DBAFL"), nodes=nodes,
                                              duration=20.0))
    assert result.rows and ch.verify_chain(result.chain)


def test_strategy_labels_round_trip():
    for label in ("DBAFL", "BSFL", "FedAVG", "LocalOnly", "AFL", "StaticEps:1.5"):
        s = orch.Strategy.parse(label)
        assert s.label == label
        assert orch.Strategy.parse(s.label) == s
    with pytest.raises(ValueError):
        orch.Strategy.parse("Gossip")


def test_every_spelling_of_an_epsilon_parses_to_one_canonical_label():
    parsed = [orch.Strategy.parse(f"StaticEps:{text}") for text in ("1", "1.0", "+1.", "1e0")]
    assert all(s == parsed[0] for s in parsed)
    assert [s.label for s in parsed] == ["StaticEps:1.0"] * 4


def test_full_batch_runs_derive_no_training_seed(monkeypatch):
    purposes = []
    derive_seed = orch.derive_seed

    def spy(master, purpose, *indices):
        purposes.append(purpose)
        return derive_seed(master, purpose, *indices)

    monkeypatch.setattr(orch, "derive_seed", spy)
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=30.0)
    assert cfg.train.batch_size >= cfg.data.samples_per_node  # full batches
    result = orch.run_scenario(cfg)
    assert result.round_logs  # nodes did train
    assert "data" in purposes and "train" not in purposes


def test_test_fraction_that_empties_a_split_is_rejected():
    with pytest.raises(ValueError, match=r"^test_fraction 0\.01 leaves an empty "):
        orch.DataSpec(samples_per_node=10, test_fraction=0.01)
    with pytest.raises(ValueError, match=r"^test_fraction 0\.96 leaves an empty "):
        orch.DataSpec(samples_per_node=10, test_fraction=0.96)  # no training rows
    two_rows = mdl.Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
    nodes = (orch.NodeConfig(id=0, role=orch.Role.RSU),
             orch.NodeConfig(id=1, role=orch.Role.RSU, dataset=two_rows))
    with pytest.raises(ValueError, match=r"^nodes\[1\]\.dataset: data\.test_fraction "):
        small_scenario(orch.Strategy.parse("DBAFL"), nodes=nodes)


# ------------------------------------------------------- batched training


def test_the_simulator_trains_through_model_local_train():
    # the tracer times orchestrator.local_train as the model.local_train layer
    assert orch.local_train is mdl.local_train


def _run_with_trainer(monkeypatch, cfg, one_at_a_time=False):
    """run_scenario(cfg) and the dataset shapes of each training call it made.

    With one_at_a_time, the trainer trains each item in a call of its own.
    """
    calls = []
    batched = orch.local_train

    def trainer(starts, datas, train_cfg, seeds, pool):
        calls.append([(d.n, d.features.shape[1], d.classes) for d in datas])
        if one_at_a_time:
            return [batched([s], [d], train_cfg, [seed], pool)[0]
                    for s, d, seed in zip(starts, datas, seeds)]
        return batched(starts, datas, train_cfg, seeds, pool)

    with monkeypatch.context() as m:
        m.setattr(orch, "local_train", trainer)
        return orch.run_scenario(cfg), calls


def _two_dataset_sizes():
    """The stock nodes, where nodes 1 and 3 bring 150 rows of their own, not 200."""
    nodes = list(orch.ScenarioConfig().nodes)
    for i in (1, 3):
        own = mdl.generate_synthetic_dataset(seed=80 + i, n=150, f=2, classes=2, separation=4.0)
        nodes[i] = dataclasses.replace(nodes[i], dataset=own)
    return nodes


_BATCHED = {
    "DBAFL": small_scenario(orch.Strategy.parse("DBAFL")),
    "FedAVG": small_scenario(orch.Strategy.parse("FedAVG")),
    "LocalOnly": small_scenario(orch.Strategy.parse("LocalOnly")),
    "mini-batch": small_scenario(
        orch.Strategy.parse("DBAFL"), duration=40.0,
        train=mdl.TrainConfig(epochs=3, learning_rate=0.05, batch_size=32)),
    "two-sizes": small_scenario(orch.Strategy.parse("DBAFL"), nodes=_two_dataset_sizes()),
}


@pytest.mark.parametrize("name", list(_BATCHED))
def test_batched_training_equals_training_one_node_per_call(monkeypatch, name):
    cfg = _BATCHED[name]
    batched, calls = _run_with_trainer(monkeypatch, cfg)
    alone, _ = _run_with_trainer(monkeypatch, cfg, one_at_a_time=True)
    assert max(map(len, calls)) > 1  # some call did stack several nodes
    if name == "two-sizes":
        assert max(len(set(shapes)) for shapes in calls) == 2
    assert cli._metrics_csv(batched) == cli._metrics_csv(alone)
    if cfg.strategy.chain:
        assert ch.dump_chain(batched.chain) == ch.dump_chain(alone.chain)
    assert batched.decisions == alone.decisions
    assert batched.round_logs == alone.round_logs
    assert batched.stage_totals == alone.stage_totals


def _read_at_train_event(monkeypatch):
    """Make every run eager: each node's result is read at its own train event."""
    on_train = orch._Simulation._on_train

    def eager(self, now, node):
        on_train(self, now, node)
        self._model(node)

    monkeypatch.setattr(orch._Simulation, "_on_train", eager)


def test_trainer_gets_one_item_per_processed_train_event(monkeypatch):
    counts = dict.fromkeys(("items", "scheduled", "processed"), 0)
    discarded = []  # nodes whose download replaced a result nobody had read
    batched, on_train, schedule = orch.local_train, orch._Simulation._on_train, \
        orch.EventQueue.schedule
    on_dl = orch._Simulation._on_dl

    def trainer(starts, datas, train_cfg, seeds, pool):
        counts["items"] += len(starts)
        return batched(starts, datas, train_cfg, seeds, pool)

    def processed(self, now, node):
        counts["processed"] += 1
        on_train(self, now, node)

    def scheduled(self, time_s, event):
        counts["scheduled"] += event[0] == "train"
        schedule(self, time_s, event)

    def downloaded(self, now, node, version, snapshot):
        if node.unread:
            discarded.append(node.cfg.id)
        on_dl(self, now, node, version, snapshot)

    monkeypatch.setattr(orch, "local_train", trainer)
    monkeypatch.setattr(orch._Simulation, "_on_train", processed)
    monkeypatch.setattr(orch.EventQueue, "schedule", scheduled)
    monkeypatch.setattr(orch._Simulation, "_on_dl", downloaded)
    serving_discards = {"DBAFL", "StaticEps:1.0", "AFL"}
    for strategy in (orch.Strategy.parse("DBAFL"), orch.Strategy.parse("BSFL"),
                     orch.Strategy.parse("FedAVG"), orch.Strategy.parse("StaticEps:1.0"),
                     orch.Strategy.parse("AFL"),
                     orch.Strategy.parse("LocalOnly")):
        cfg = small_scenario(strategy, duration=100.0)
        with monkeypatch.context() as m:
            _read_at_train_event(m)
            counts.update(dict.fromkeys(counts, 0))
            orch.run_scenario(cfg)
        eager = dict(counts)
        assert eager["items"] == eager["processed"] > 0, strategy.label
        assert eager["scheduled"] > eager["processed"], strategy.label  # some end past the horizon
        assert discarded == [], strategy.label
        counts.update(dict.fromkeys(counts, 0))
        orch.run_scenario(cfg)
        assert counts["processed"] == eager["processed"], strategy.label
        if strategy.label in serving_discards:  # the serving node's results go unread
            assert counts["items"] < counts["processed"], strategy.label
        else:
            assert counts["items"] == counts["processed"], strategy.label
            assert discarded == [], strategy.label
        # a result is either computed or discarded unread, never both
        assert counts["items"] + len(discarded) == counts["processed"], strategy.label
        discarded.clear()
    # the server's first training ends at 8 s, past this horizon: nothing trains
    counts.update(dict.fromkeys(counts, 0))
    orch.run_scenario(small_scenario(orch.Strategy.parse("DBAFL"), duration=5.0))
    assert counts == {"items": 0, "scheduled": 1, "processed": 0}


_ON_DEMAND = {
    **_BATCHED,
    "BSFL": small_scenario(orch.Strategy.parse("BSFL")),
    "StaticEps": small_scenario(orch.Strategy.parse("StaticEps:1.0")),
    "AFL": small_scenario(orch.Strategy.parse("AFL")),
    # samples land between train events and the reads that follow them, and
    # overlapping classes make a trained model's accuracy differ from its start's
    "dense-samples": small_scenario(
        orch.Strategy.parse("DBAFL"), metrics_interval_s=0.25,
        data=orch.DataSpec(samples_per_node=200, separation=1.0)),
}


@pytest.mark.parametrize("name", list(_ON_DEMAND))
def test_on_demand_training_equals_eager_training(monkeypatch, name):
    cfg = _ON_DEMAND[name]
    on_demand = orch.run_scenario(cfg)
    with monkeypatch.context() as m:
        _read_at_train_event(m)
        eager = orch.run_scenario(cfg)
    assert cli._metrics_csv(on_demand) == cli._metrics_csv(eager)
    if cfg.strategy.chain:
        assert ch.dump_chain(on_demand.chain) == ch.dump_chain(eager.chain)
    assert on_demand.decisions == eager.decisions
    assert on_demand.round_logs == eager.round_logs
    assert on_demand.stage_totals == eager.stage_totals


def _diverging_nodes():
    """The stock nodes, where node 1, an RSU that does not serve first, brings huge features.

    Its classes overlap, so no model fits them and every step moves the params.
    """
    nodes = list(orch.ScenarioConfig().nodes)
    own = mdl.generate_synthetic_dataset(seed=81, n=200, f=2, classes=2, separation=0.0)
    nodes[1] = dataclasses.replace(
        nodes[1], dataset=mdl.Dataset(own.features * 1e200, own.labels, own.classes))
    return nodes


def test_diverged_training_of_a_node_that_uploads_fails_the_run():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), nodes=_diverging_nodes())
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ArithmeticError, match="diverged"):
        orch.run_scenario(cfg)


def test_run_leaves_the_first_event_past_the_horizon_queued():
    cfg = small_scenario(orch.Strategy.parse("DBAFL"), duration=100.0)
    sim = orch._Simulation(cfg)
    sim.run()
    assert sim.q.now <= cfg.duration_s
    time_s, _ = sim.q.pop()
    assert time_s > cfg.duration_s


def test_every_sealed_block_goes_through_append_block(monkeypatch):
    # the benchmark's tracer counts blocks by wrapping this method
    sealed = []
    append = ch.Chain.append_block

    def counted(self, records, timestamp_ms):
        sealed.append(len(records))
        return append(self, records, timestamp_ms)

    monkeypatch.setattr(ch.Chain, "append_block", counted)
    res = orch.run_scenario(small_scenario(orch.Strategy.parse("DBAFL"), duration=100.0))
    assert len(res.chain) > 1 and len(sealed) == len(res.chain)
    assert sealed == [len(b.records) for b in res.chain.blocks]
    # the leader's accuracies and epsilons are Python floats, not numpy scalars
    values = [(d.acc_local, d.acc_global, d.epsilon) for d in res.decisions]
    assert values and all(type(v) is float for row in values for v in row)


# ---------------------------------------------------------------- records

_RECORD = ch.HashRecord(ch.RecordKind.LOCAL, 3, 2, b"\x01" * 32)
RECORDS = (
    _RECORD,
    ch.Block(0, b"\x00" * 32, (_RECORD,), 2000, b"\x02" * 32),
    ch.AuditReport(ok=False, first_bad_block=2),
    orch.MetricsRow(60.0, 0.5, 0.7, 10.0, 1.0, 2.0, 3.0, 4, 0),
    orch.RoundLog(3, 2, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    orch.DecisionLog(6.0, 3, 2, orch.StepVerdict.ACCEPTED, 1.0, 0.5, 0.5,
                     b"\x01" * 32, b"\x03" * 32, b"\x04" * 32),
    orch.IncomingModel(np.arange(6.0), _RECORD),
    orch.StepOutcome(orch.StepVerdict.DISCARDED, None, 0.2, 0.5),
    ns.round_latency(orch.DEFAULT_PAYLOAD, 1e6, 1e9),
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_named_tuples(record):
    # a chain-heavy run keeps thousands of these; a __dict__ each costs ~45 bytes
    assert isinstance(record, tuple) and "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    copy = record._replace()
    assert copy == record and copy is not record
    _check_record_protocol(record)
    # an ndarray is never hashable, so hash a copy that holds its bytes instead
    arrays = {name: value.tobytes() for name, value in record._asdict().items()
              if isinstance(value, np.ndarray)}
    hashable = record._replace(**arrays)
    assert hash(hashable) == hash(hashable._replace())


# ------------------------------------------------------- training in shares


def _fleet(rsus, buses, **overrides):
    """rsus RSUs, then buses at 4x compute, as the benchmark's workloads build them."""
    nodes = [orch.NodeConfig(i) for i in range(rsus)]
    nodes += [orch.NodeConfig(rsus + i, orch.Role.BUS, 4.0) for i in range(buses)]
    return orch.ScenarioConfig(nodes=tuple(nodes), **overrides)


@pytest.mark.parametrize("label", ["DBAFL", "BSFL", "FedAVG", "StaticEps:1.0", "AFL",
                                   "LocalOnly"])
def test_the_stock_scenario_trains_in_one_process(label, forks):
    orch.run_scenario(orch.ScenarioConfig(strategy=orch.Strategy.parse(label)))
    assert forks[0] == 0


def test_a_churn_run_trains_in_one_process(forks):
    orch.run_scenario(_fleet(
        12, 8, train=mdl.TrainConfig(epochs=1, learning_rate=0.01, batch_size=1500),
        data=orch.DataSpec(samples_per_node=50),
        payload=ns.PayloadSizes(model_bits=8.0e4, hash_bits=256, block_bits=8000),
        duration_s=120.0, metrics_interval_s=60.0))
    assert forks[0] == 0


def _forty_nodes(**overrides):
    """The 40-node benchmark scenario: a poisoner and the threshold defense."""
    attack = orch.AttackConfig(poisoners=frozenset({39}),
                               defense=agg.DefensePolicy.threshold(0.9))
    return _fleet(24, 16, attack=attack, **overrides)


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_SPLITS = pytest.mark.skipif(_CPUS < 2, reason="a stack trains in shares only on two or "
                                               "more allowed CPUs")


@_SPLITS
def test_a_forty_node_run_trains_its_large_stacks_in_shares(forks):
    orch.run_scenario(_forty_nodes())
    # the run's pool forks its helpers at the first split and keeps them
    assert 1 <= forks[0] <= _CPUS - 1
    assert_no_child_left()


@_SPLITS
def test_a_run_that_raises_leaves_no_child(forks):
    # Steps of 1e300 keep every node finite but the last bus, whose features are
    # 1e10 times as large, in the stack of the others' shape: its first step overflows.
    data = mdl.generate_synthetic_dataset(seed=5, n=1500, f=2, classes=2, separation=4.0)
    blown = mdl.Dataset(data.features * 1e10, data.labels, data.classes)
    cfg = _forty_nodes(train=mdl.TrainConfig(epochs=50, learning_rate=1e300, batch_size=1500))
    nodes = cfg.nodes[:-1] + (dataclasses.replace(cfg.nodes[-1], dataset=blown),)
    before = open_descriptors()
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="diverged"):
        orch.run_scenario(dataclasses.replace(cfg, nodes=nodes))
    assert forks[0] >= 1
    assert_no_child_left()
    assert open_descriptors() == before


@pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
def test_a_refused_fork_gives_the_same_run(monkeypatch, code):
    def refused():
        raise OSError(code, os.strerror(code))

    want = orch.run_scenario(_forty_nodes())
    monkeypatch.setattr(os, "fork", refused)
    got = orch.run_scenario(_forty_nodes())
    assert cli._metrics_csv(got) == cli._metrics_csv(want)
    assert ch.dump_chain(got.chain) == ch.dump_chain(want.chain)

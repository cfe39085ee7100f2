"""Hypothesis strategies for small, valid scenario configs.

`scenarios()` draws every part a scenario file can set: node mixes and
roles, links, optional own datasets, attacks with and without ddos or a
defense, and every strategy.  Sizes stay small (tens of samples, a few
epochs, horizons of minutes) so that a test may also run what it draws.
"""

import numpy as np
from hypothesis import strategies as st

from dbafl import aggregation as agg
from dbafl import chain as ch
from dbafl import model as mdl
from dbafl import netsim as net
from dbafl import orchestrator as orch


def floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


strategies = st.one_of(
    st.sampled_from([orch.Strategy.parse("DBAFL"),
                     orch.Strategy.parse("BSFL"),
                     orch.Strategy.parse("FedAVG"),
                     orch.Strategy.parse("LocalOnly"),
                     orch.Strategy.parse("AFL")]),
    floats(0.01, 100.0).map(lambda eps: orch.Strategy.parse(f"StaticEps:{eps!r}")))

data_specs = st.builds(
    orch.DataSpec, samples_per_node=st.integers(20, 200), features=st.integers(1, 4),
    classes=st.integers(2, 4), separation=floats(0.0, 8.0),
    test_fraction=floats(0.1, 0.5))

links = st.builds(net.LinkParams, mobile_bandwidth_hz=floats(1e5, 1e8),
                  mobile_snr=floats(0.1, 100.0), ethernet_rate_bps=floats(1e6, 1e10))

defenses = st.one_of(st.just(agg.DefensePolicy.off()),
                     st.builds(agg.DefensePolicy.threshold, floats(0.0, 1.0)))

ddos_configs = st.builds(net.DdosConfig, attack_fraction=floats(0.0, 0.9),
                         retarget_lag_terms=st.integers(0, 3))


@st.composite
def datasets(draw, spec: orch.DataSpec) -> mdl.Dataset:
    """A node's own dataset that fits spec: 6-8 rows of finite features.

    Six rows leave a non-empty split at any drawn test_fraction; five would
    not at 0.1, since round(0.5) is 0.
    """
    n = draw(st.integers(6, 8))
    row = st.lists(floats(-10.0, 10.0), min_size=spec.features, max_size=spec.features)
    features = draw(st.lists(row, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, spec.classes - 1), min_size=n, max_size=n))
    return mdl.Dataset(np.array(features, dtype=float), np.array(labels), spec.classes)


@st.composite
def node_tuples(draw, spec: orch.DataSpec, needs_rsu: bool) -> tuple:
    """One to six nodes with unique ids; at least one RSU when needs_rsu."""
    ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    roles = draw(st.lists(st.sampled_from(orch.Role), min_size=len(ids), max_size=len(ids)))
    if needs_rsu and orch.Role.RSU not in roles:
        roles[draw(st.integers(0, len(ids) - 1))] = orch.Role.RSU
    return tuple(
        orch.NodeConfig(id=i, role=role, compute_time_multiplier=draw(floats(1.0, 8.0)),
                        dataset=draw(st.none() | datasets(spec)), link=draw(links))
        for i, role in zip(ids, roles))


@st.composite
def attacks(draw, ids: list, defended: bool) -> orch.AttackConfig:
    """An attack; a threshold defense only when defended, since only then is it applied."""
    return orch.AttackConfig(
        poisoners=frozenset(draw(st.lists(st.sampled_from(ids), max_size=2))),
        poison_magnitude=draw(floats(0.1, 20.0)),
        ddos=draw(st.none() | ddos_configs),
        defense=draw(defenses if defended else st.just(agg.DefensePolicy.off())))


@st.composite
def scenarios(draw) -> orch.ScenarioConfig:
    strategy = draw(strategies)
    spec = draw(data_specs)
    nodes = draw(node_tuples(spec, strategy.serves))
    model_bits = draw(floats(1e4, 1e9))
    return orch.ScenarioConfig(
        nodes=nodes, strategy=strategy,
        train=draw(st.builds(mdl.TrainConfig, epochs=st.integers(1, 5),
                             learning_rate=floats(1e-4, 0.5),
                             batch_size=st.integers(1, 300))),
        data=spec,
        chain_policy=draw(st.builds(ch.BlockCutPolicy, max_wait_s=floats(0.1, 10.0),
                                    max_records=st.integers(1, 20),
                                    max_block_bytes=st.integers(ch.block_bytes(1), 10**7))),
        term_blocks=draw(st.integers(1, 12)),
        payload=net.PayloadSizes(model_bits, draw(floats(1.0, model_bits)),
                                 draw(floats(1.0, 1e6))),
        attack=draw(attacks([n.id for n in nodes], strategy.serves and not strategy.barrier)),
        duration_s=draw(floats(1.0, 300.0)),
        master_seed=draw(st.integers(0, 2**32)),
        metrics_interval_s=draw(floats(0.5, 60.0)))

"""Tests for dbafl.netsim: Shannon links, latency closed forms, DDoS, event queue."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbafl import netsim as ns


def test_shannon_rate_examples():
    assert ns.shannon_rate(ns.LinkParams(20e6, 3.0, 1e9)) == 40e6
    assert ns.shannon_rate(ns.LinkParams(20e6, 0.0, 1e9)) == 0.0
    assert ns.shannon_rate(ns.LinkParams(1e6, 1.0, 1e9)) == 1e6


def test_tx_time_examples():
    assert ns.tx_time(80e6, 40e6) == 2.0
    assert ns.tx_time(80e6, 1e9) == 0.08
    assert ns.tx_time(256, 40e6) == 6.4e-6
    with pytest.raises(ValueError):
        ns.tx_time(100, 0.0)


def test_round_latency_worked_example():
    sizes = ns.PayloadSizes(model_bits=80_000_000, hash_bits=256, block_bits=8000)
    link = ns.LinkParams(20e6, 3.0, 1e9)
    lat = ns.round_latency(sizes, ns.shannon_rate(link), link.ethernet_rate_bps)
    # independent recomposition of each closed form
    rate = 20e6 * math.log2(4.0)
    t_up_model = 80e6 / rate
    t_up_hash = 256 / rate
    t_sync = 80e6 / 1e9
    assert abs(lat.t_up - (t_up_model + t_up_hash + t_sync)) <= 1e-12
    assert abs(lat.t_ag - (t_up_hash + t_sync)) <= 1e-12
    assert lat.t_dn == 2.0
    assert lat.t_bp == 2e-4
    assert abs(lat.t_bc - (2 * 6.4e-6 + 2 * 0.08 + 2e-4)) <= 1e-12
    assert lat.t_local == 0.0 and lat.t_bg == 0.0
    assert abs(lat.t_up - 2.0800064) <= 1e-9
    assert abs(lat.t_ag - 0.0800064) <= 1e-9


def test_round_latency_blockchain_overhead_limit():
    # with vanishing hash/block sizes, t_bc approaches 2 * t_sync_model
    sizes = ns.PayloadSizes(model_bits=80_000_000, hash_bits=1, block_bits=1)
    link = ns.LinkParams(20e6, 3.0, 1e9)
    lat = ns.round_latency(sizes, ns.shannon_rate(link), link.ethernet_rate_bps)
    assert abs(lat.t_bc - 2 * 0.08) < 1e-6


def test_round_latency_zero_rate_unreachable():
    sizes = ns.PayloadSizes(model_bits=1000, hash_bits=10, block_bits=10)
    with pytest.raises(ValueError):
        ns.round_latency(sizes, ns.shannon_rate(ns.LinkParams(20e6, 0.0, 1e9)), 1e9)


def test_blockchain_overhead_dominated_by_round_trip():
    # backbone at least as fast as the radio, per the deployment the closed forms assume
    rng = np.random.default_rng(99)
    for _ in range(1000):
        bw = float(rng.uniform(1e5, 1e8))
        snr = float(rng.uniform(0.1, 100.0))
        eth = float(rng.uniform(1e9, 1e10))
        s_w = float(rng.uniform(1e6, 1e9))
        sizes = ns.PayloadSizes(model_bits=s_w, hash_bits=s_w / 1000, block_bits=s_w / 100)
        lat = ns.round_latency(sizes, ns.shannon_rate(ns.LinkParams(bw, snr, eth)), eth)
        assert lat.t_bc < lat.t_up + lat.t_dn


def test_latency_monotonicity():
    link = ns.LinkParams(10e6, 3.0, 1e9)
    faster = ns.LinkParams(20e6, 3.0, 2e9)
    sizes = ns.PayloadSizes(8e6, 256, 8000)
    bigger = ns.PayloadSizes(16e6, 512, 16000)
    a, b, c = (ns.round_latency(s, ns.shannon_rate(lk), lk.ethernet_rate_bps)
               for s, lk in ((sizes, link), (sizes, faster), (bigger, link)))
    for name in ("t_up", "t_ag", "t_bp", "t_dn", "t_bc"):
        assert getattr(b, name) < getattr(a, name) < getattr(c, name)


def test_connection_window():
    assert abs(ns.connection_window(300.0, 60.0) - 18.0) <= 1e-12
    assert abs(ns.connection_window(300.0, 30.0) - 36.0) <= 1e-12
    assert ns.connection_window(0.0, 60.0) == 0.0
    assert ns.connection_window(300.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        ns.connection_window(-1.0, 10.0)


def test_ddos_effective_rate():
    cfg = ns.DdosConfig(attack_fraction=0.9, retarget_lag_terms=1)
    assert ns.ddos_effective_rate(40e6, cfg, target_is_current_server=True) == 40e6 * (1 - 0.9)
    assert ns.ddos_effective_rate(40e6, cfg, target_is_current_server=False) == 40e6
    calm = ns.DdosConfig(attack_fraction=0.0, retarget_lag_terms=1)
    assert ns.ddos_effective_rate(40e6, calm, target_is_current_server=True) == 40e6
    with pytest.raises(ValueError):
        ns.DdosConfig(attack_fraction=1.0, retarget_lag_terms=1)
    with pytest.raises(ValueError):
        ns.DdosConfig(attack_fraction=0.5, retarget_lag_terms=-1)


def test_event_queue_ordering_and_sentinel():
    q = ns.EventQueue()
    q.schedule(1.0, "late")
    q.schedule(0.5, "early")
    q.schedule(1.0, "late-second")
    assert q.pop() == (0.5, "early")
    assert q.pop() == (1.0, "late")
    assert q.pop() == (1.0, "late-second")
    assert q.pop() is None
    assert q.now == 1.0


def test_event_queue_pop_until_leaves_later_events_queued():
    q = ns.EventQueue()
    q.schedule(1.0, "a")
    q.schedule(2.0, "b")
    assert q.pop(until=1.5) == (1.0, "a")
    assert q.pop(until=1.5) is None
    assert q.now == 1.0  # the clock did not move
    assert q.pop(until=2.0) == (2.0, "b")  # nor did the queue: an event due at until pops
    assert q.pop(until=5.0) is None and q.now == 2.0


def test_event_queue_rejects_a_nan_time():
    q = ns.EventQueue()
    with pytest.raises(ValueError, match="cannot schedule at t=nan"):
        q.schedule(math.nan, "e")
    assert q.pop() is None  # nothing was queued


def test_event_queue_rejects_past_and_keeps_clock_monotone():
    q = ns.EventQueue()
    q.schedule(1.0, "a")
    assert q.pop() == (1.0, "a")
    with pytest.raises(ValueError):
        q.schedule(0.5, "too-late")
    q.schedule(1.0, "same-time-ok")
    times = [1.0]
    q.schedule(3.0, "c")
    q.schedule(2.0, "b")
    while (item := q.pop()) is not None:
        times.append(item[0])
    assert times == sorted(times)


class _HeapQueue:
    """Reference event list: every event on one heap, keyed by (time, insertion order)."""

    def __init__(self):
        self.heap, self.seq, self.now = [], 0, 0.0

    def schedule(self, time_s, event):
        if time_s < self.now:
            raise ValueError("before now")
        heapq.heappush(self.heap, (time_s, self.seq, event))
        self.seq += 1

    def pop(self, until=None):
        if not self.heap or (until is not None and self.heap[0][0] > until):
            return None
        time_s, _, event = heapq.heappop(self.heap)
        self.now = time_s
        return time_s, event


# Offsets from the clock on a binary grid, so sums are exact and future times
# collide: ("schedule", offset), ("pop", None) or ("pop", offset of until).
# A negative schedule offset must raise; a negative until must pop nothing.
_QUEUE_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 1.5, -0.5))),
    st.tuples(st.just("pop"), st.none() | st.sampled_from((-1.0, -0.25, 0.0, 0.5, 2.0)))),
    max_size=80)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_QUEUE_OPS)
def test_event_queue_matches_a_heap_only_queue(ops):
    q, ref = ns.EventQueue(), _HeapQueue()
    for i, (op, offset) in enumerate(ops):
        if op == "schedule":
            time_s = q.now + offset
            if offset < 0:
                for queue in (q, ref):
                    with pytest.raises(ValueError):
                        queue.schedule(time_s, i)
            else:
                q.schedule(time_s, ("event", i))
                ref.schedule(time_s, ("event", i))
        else:
            until = math.inf if offset is None else q.now + offset
            assert q.pop(until) == ref.pop(until)
        assert q.now == ref.now
    # drain: the rest fires in the same order, so both held the same events all along
    while (item := q.pop()) is not None:
        assert item == ref.pop()
    assert ref.pop() is None and q.now == ref.now


def test_payload_and_link_validation():
    with pytest.raises(ValueError):
        ns.PayloadSizes(model_bits=0, hash_bits=1, block_bits=1)
    with pytest.raises(ValueError):
        ns.PayloadSizes(model_bits=100, hash_bits=200, block_bits=1)
    with pytest.raises(ValueError):
        ns.LinkParams(0.0, 1.0, 1e9)
    with pytest.raises(ValueError):
        ns.LinkParams(1e6, -0.5, 1e9)

"""Link model and discrete-event machinery for the vehicular deployment.

Mobile nodes reach the roadside infrastructure over a Shannon-capacity
radio link; infrastructure nodes talk to each other over a wired
backbone.  All latencies are closed forms of payload size over link
rate, so a round's wall-clock cost decomposes into the stages captured
by :class:`LatencyBreakdown`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, NamedTuple, Optional


@dataclass(frozen=True)
class LinkParams:
    """Radio and backbone link characteristics.

    mobile_bandwidth_hz: channel bandwidth of the radio link, Hz.
    mobile_snr: linear (not dB) signal-to-noise ratio of the radio link.
    ethernet_rate_bps: wired backbone rate between infrastructure nodes.
    """

    mobile_bandwidth_hz: float
    mobile_snr: float
    ethernet_rate_bps: float

    def __post_init__(self) -> None:
        if not self.mobile_bandwidth_hz > 0:  # written so that NaN fails each bound
            raise ValueError("mobile_bandwidth_hz must be positive")
        if not self.mobile_snr >= 0:
            raise ValueError("mobile_snr must be non-negative")
        if not self.ethernet_rate_bps > 0:
            raise ValueError("ethernet_rate_bps must be positive")


@dataclass(frozen=True)
class PayloadSizes:
    """Sizes in bits of the three payloads that cross the network."""

    model_bits: float
    hash_bits: float
    block_bits: float

    def __post_init__(self) -> None:
        for name in ("model_bits", "hash_bits", "block_bits"):
            if not getattr(self, name) > 0:  # NaN fails it too
                raise ValueError(f"{name} must be positive")
        if self.hash_bits > self.model_bits:
            raise ValueError("hash_bits must not exceed model_bits")


class LatencyBreakdown(NamedTuple):
    """Per-stage latencies of one contribution round, in seconds.

    t_local and t_bg are zero here: local compute is charged by the
    scheduler (it depends on the node, not the link) and background
    chain maintenance overlaps communication.  t_bc aggregates the
    chain-induced extras so the overhead of running consensus can be
    compared against the unavoidable up/down transfer.
    """

    t_local: float
    t_up: float
    t_ag: float
    t_bg: float
    t_bp: float
    t_dn: float
    t_bc: float
    # the transfer terms the stage sums are built from
    t_up_model: float
    t_up_hash: float
    t_sync_model: float


@dataclass(frozen=True)
class DdosConfig:
    """Denial-of-service attack shape.

    attack_fraction: share of the serving node's link capacity consumed
        by the flood; must stay below 1 so transfers still terminate.
    retarget_lag_terms: how many leader terms behind the attacker's
        knowledge of who currently serves is.
    """

    attack_fraction: float = 0.0
    retarget_lag_terms: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.attack_fraction < 1.0:
            raise ValueError("attack_fraction must lie in [0, 1)")
        if self.retarget_lag_terms < 0:
            raise ValueError("retarget_lag_terms must be non-negative")


def shannon_rate(link: LinkParams) -> float:
    """Capacity of the radio link in bits per second: B * log2(1 + SNR)."""
    return link.mobile_bandwidth_hz * math.log2(1.0 + link.mobile_snr)


def tx_time(size_bits: float, rate_bps: float) -> float:
    """Seconds to push size_bits through a link of rate_bps."""
    if rate_bps <= 0:
        raise ValueError("link rate must be positive; the node is unreachable")
    return size_bits / rate_bps


def round_latency(sizes: PayloadSizes, radio_bps: float,
                  backbone_bps: float) -> LatencyBreakdown:
    """Closed-form stage latencies for one contribution round.

    Upload carries the model and its digest over the radio at radio_bps,
    then the serving node mirrors the model across the backbone at
    backbone_bps.  Aggregation notification repeats the digest and mirror
    legs.  Block propagation and the model download each cross the radio once.
    """
    t_up_model = tx_time(sizes.model_bits, radio_bps)
    t_up_hash = tx_time(sizes.hash_bits, radio_bps)
    t_sync_model = tx_time(sizes.model_bits, backbone_bps)
    t_up = t_up_model + t_up_hash + t_sync_model
    t_ag = t_up_hash + t_sync_model
    t_bp = tx_time(sizes.block_bits, radio_bps)
    t_dn = tx_time(sizes.model_bits, radio_bps)
    t_bc = 2.0 * t_up_hash + 2.0 * t_sync_model + t_bp
    return LatencyBreakdown(
        t_local=0.0,
        t_up=t_up,
        t_ag=t_ag,
        t_bg=0.0,
        t_bp=t_bp,
        t_dn=t_dn,
        t_bc=t_bc,
        t_up_model=t_up_model,
        t_up_hash=t_up_hash,
        t_sync_model=t_sync_model,
    )


def connection_window(coverage_m: float, speed_kmh: float) -> float:
    """Seconds a vehicle stays inside one roadside node's coverage.

    A parked vehicle (speed 0) never leaves, so the window is infinite.
    """
    if coverage_m < 0 or speed_kmh < 0:
        raise ValueError("coverage and speed must be non-negative")
    if speed_kmh == 0:
        return math.inf
    return coverage_m / (speed_kmh / 3.6)


def ddos_effective_rate(base_rate_bps: float, ddos: DdosConfig,
                        target_is_current_server: bool) -> float:
    """Link rate left over once the flood consumes its share.

    Only transfers through the node the attacker is aiming at slow
    down; everyone else keeps the full rate.
    """
    if not target_is_current_server:
        return base_rate_bps
    return base_rate_bps * (1.0 - ddos.attack_fraction)


class EventQueue:
    """Deterministic future-event list.

    Events fire in (time, insertion order) order, so simultaneous
    events replay identically across runs.  The clock only moves
    forward: scheduling before `now` is a contract violation, and an
    empty queue pops the sentinel None rather than raising.

    An event scheduled at `now` itself skips the heap and waits in a FIFO.
    Every heap event due at `now` was scheduled before the clock reached
    `now`, so it precedes every FIFO entry in insertion order: popping the
    heap's due events first, then the FIFO, is the (time, insertion) order.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._due: deque[tuple[float, Any]] = deque()  # (now, event), in insertion order
        self._seq = itertools.count()  # insertion order, the tie-break of equal times
        self.now = 0.0

    def schedule(self, time_s: float, event: Any) -> None:
        if time_s == self.now:
            self._due.append((time_s, event))
        elif time_s > self.now:
            heappush(self._heap, (time_s, next(self._seq), event))
        else:  # earlier, or NaN, which would sit in the heap unordered
            raise ValueError(
                f"cannot schedule at t={time_s} before current time t={self.now}")

    def pop(self, until: float = math.inf) -> Optional[tuple[float, Any]]:
        """Next (time, event) pair, advancing the clock; None when empty.

        An event later than until stays queued and pop returns None without
        moving the clock.
        """
        heap, now = self._heap, self.now
        if until < now:
            return None  # everything queued is due at now or later
        if heap and heap[0][0] == now:
            time_s, _, event = heappop(heap)
            return time_s, event
        if self._due:
            return self._due.popleft()
        if not heap or heap[0][0] > until:
            return None
        time_s, _, event = heappop(heap)
        self.now = time_s
        return time_s, event

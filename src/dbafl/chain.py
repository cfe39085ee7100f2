"""Hash-chained ledger of model digests, committee elections, tamper detection.

Canonical serialization is fixed field order with fixed-width little-endian
integers, so block hashes are reproducible across implementations:
  record = kind u8 | node_id u64 | round u64 | digest 32B
  block  = index u64 | prev_hash 32B | record_count u32 | records | timestamp_ms u64
"""

from __future__ import annotations

import enum
import hashlib
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import all_finite

ZERO_HASH = b"\x00" * 32


def hash_bytes(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


_LE_F8 = np.dtype("<f8")


def hash_model(params) -> bytes:
    """SHA-256 over the little-endian float64 serialization of the parameter vector."""
    arr = np.asarray(params, dtype=_LE_F8)
    if not all_finite(arr):
        raise ValueError("cannot hash non-finite parameters")
    return hash_bytes(arr.tobytes())


class RecordKind(enum.Enum):
    LOCAL = "L"
    GLOBAL = "G"

    # Members are singletons, so identity hashes them as well as their names
    # do, in C. A HashRecord's hash includes its kind's, and record and kind
    # hashes serve membership and lookup only: no set or dict of them is
    # iterated into an output.
    __hash__ = object.__hash__


_DIGEST_LENGTH = "digest must be exactly 32 bytes"


# Records and blocks live as long as the chain, one per upload or cut: named
# tuples, immutable and with no per-instance __dict__. HashRecord checks its
# digest in __new__, which a typing.NamedTuple class may not define, and
# _replace builds through _make, so it checks there too.
class HashRecord(namedtuple("HashRecord", "kind node_id round digest")):
    __slots__ = ()

    def __new__(cls, kind: RecordKind, node_id: int, round: int, digest: bytes):
        if len(digest) != 32:
            raise ValueError(_DIGEST_LENGTH)
        return tuple.__new__(cls, (kind, node_id, round, digest))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


_RECORD = struct.Struct("<BQQ32s")  # the digest is always 32 bytes
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
RECORD_BYTES = _RECORD.size  # every serialized record has this length
BLOCK_HEADER_BYTES = struct.calcsize("<Q32sIQ")  # index, prev_hash, count, timestamp
_KIND_BYTE = {RecordKind.LOCAL: 0, RecordKind.GLOBAL: 1}
_LETTER_BYTE = {kind.value: byte for kind, byte in _KIND_BYTE.items()}  # dump_chain's letters


def block_bytes(records: int) -> int:
    """Length of a serialized block body holding this many records."""
    return BLOCK_HEADER_BYTES + records * RECORD_BYTES


def serialize_record(record: HashRecord) -> bytes:
    return _RECORD.pack(_KIND_BYTE[record.kind], record.node_id, record.round, record.digest)


def _block_body(index: int, prev_hash: bytes, records: bytes, timestamp_ms: int) -> bytes:
    """The block layout around records, the concatenation of serialized records."""
    return (_U64.pack(index) + prev_hash + _U32.pack(len(records) // RECORD_BYTES)
            + records + _U64.pack(timestamp_ms))


def serialize_block_body(index: int, prev_hash: bytes, records, timestamp_ms: int) -> bytes:
    return _block_body(index, prev_hash, b"".join(map(serialize_record, records)), timestamp_ms)


class Block(NamedTuple):
    index: int
    prev_hash: bytes
    records: tuple
    timestamp_ms: int
    block_hash: bytes


@dataclass(frozen=True)
class BlockCutPolicy:
    max_wait_s: float = 2.0
    max_records: int = 10
    max_block_bytes: int = 10_000_000

    def __post_init__(self):
        if not self.max_wait_s > 0:  # NaN fails it too
            raise ValueError(f"max_wait_s must be positive, got {self.max_wait_s}")
        if self.max_records <= 0:
            raise ValueError(f"max_records must be positive, got {self.max_records}")
        if self.max_block_bytes < block_bytes(1):
            raise ValueError(f"max_block_bytes must hold a one-record block "
                             f"({block_bytes(1)} bytes), got {self.max_block_bytes}")


def should_cut_block(open_records: int, open_bytes: int, elapsed_since_first_s: float,
                     policy: BlockCutPolicy) -> bool:
    """True when the open block (open_bytes serialized) is due to be sealed."""
    if open_records >= policy.max_records:
        return True
    if open_bytes >= policy.max_block_bytes:
        return True
    return open_records >= 1 and elapsed_since_first_s >= policy.max_wait_s


@dataclass
class CommitteeState:
    """Committee of RSU identities; the leader rotates every term_blocks appended blocks."""

    members: tuple
    term_blocks: int
    leader: int | None = None
    blacklist: set = field(default_factory=set)
    leader_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.term_blocks < 1:  # append_block elects at indexes divisible by it
            raise ValueError(f"term_blocks must be at least 1, got {self.term_blocks}")

    def elect_from(self, block_hash: bytes):
        self.leader = self.members[elect_leader(block_hash, len(self.members))]
        self.blacklist.clear()
        self.leader_history.append(self.leader)


class Chain:
    """Single totally ordered chain (no forks); one writer, any number of readers.

    `submit` gathers records in the open block and seals it when the cut
    policy says so; the writer calls `seal` itself once `policy.max_wait_s`
    has passed since `submit` opened a block.
    """

    def __init__(self, policy: BlockCutPolicy | None = None, committee: CommitteeState | None = None):
        self.policy = policy if policy is not None else BlockCutPolicy()
        self.committee = committee
        self.blocks: list[Block] = []
        self._recorded: set[HashRecord] = set()  # sealed or in the open block
        self._open: list[HashRecord] = []
        self._open_since = 0.0

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].block_hash if self.blocks else ZERO_HASH

    def append_block(self, records, timestamp_ms: int) -> Block:
        records = tuple(records)
        if not records:
            raise ValueError("a block needs at least one record")
        index, prev, timestamp_ms = len(self.blocks), self.tip_hash, int(timestamp_ms)
        body = serialize_block_body(index, prev, records, timestamp_ms)
        if len(body) > self.policy.max_block_bytes:
            raise ValueError(f"serialized block ({len(body)} bytes) exceeds max_block_bytes")
        block = Block(index=index, prev_hash=prev, records=records,
                      timestamp_ms=timestamp_ms, block_hash=hash_bytes(body))
        self.blocks.append(block)
        self._recorded.update(records)
        # the genesis block and every term_blocks-th block after it elect the leader
        if self.committee is not None and index % self.committee.term_blocks == 0:
            self.committee.elect_from(block.block_hash)
        return block

    def submit(self, record: HashRecord, now_s: float) -> bool:
        """Add to the open block, sealing it as the cut policy says; True if this opened it.

        The open block is sealed first if this record would take it over
        `policy.max_block_bytes`.
        """
        n = len(self._open) + 1  # records in the open block with this one
        size = block_bytes(n)
        if size > self.policy.max_block_bytes:
            self.seal(now_s)
            n, size = 1, block_bytes(1)
        opened = n == 1
        if opened:
            self._open_since = now_s
        self._open.append(record)
        self._recorded.add(record)
        if should_cut_block(n, size, now_s - self._open_since, self.policy):
            self.seal(now_s)
        return opened

    def seal(self, now_s: float) -> None:
        """Append the open block, stamped at now_s in whole ms; no-op when it is empty."""
        if self._open:
            records, self._open = self._open, []
            self.append_block(records, int(round(now_s * 1000)))

    def has_record(self, record: HashRecord) -> bool:
        """True for a record in a sealed block or in the open block."""
        return record in self._recorded


def elect_leader(block_hash: bytes, m: int) -> int:
    """Digest as a big-endian unsigned integer, mod M."""
    if m < 1:
        raise ValueError("committee size must be >= 1")
    return int.from_bytes(block_hash, "big") % m


def leader_probabilities(observed_leaders, m: int) -> np.ndarray:
    observed = np.asarray(list(observed_leaders), dtype=int)
    if observed.size == 0:
        raise ValueError("need at least one observation")
    return np.bincount(observed, minlength=m) / observed.size


def gini(probabilities) -> float:
    """G = sum_m sum_j |p_m - p_j| / (2 * sum_m sum_j p_j), evaluated as written."""
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < 0) or p.sum() <= 0:
        raise ValueError("probabilities must be nonnegative with positive sum")
    num = np.abs(p[:, None] - p[None, :]).sum()
    den = 2.0 * len(p) * p.sum()
    return float(num / den)


def verify_record(c: Chain, claimed_model, record: HashRecord) -> bool:
    """True iff the model hashes to the recorded digest, sealed or in the open block.

    A mismatch adds the node to the blacklist of c's committee.
    """
    if not c.has_record(record):
        raise ValueError("record not found on chain")
    if hash_model(claimed_model) == record.digest:
        return True
    c.committee.blacklist.add(record.node_id)
    return False


# --- dump format: one block per line, fields hex-encoded ---
# index|prev_hash_hex|timestamp_ms|kind,node,round,digest_hex;...|block_hash_hex


class AuditReport(NamedTuple):
    ok: bool
    first_bad_block: int | None = None


def dump_chain(c: Chain) -> str:
    lines = []
    for b in c.blocks:
        recs = ";".join(f"{r.kind.value},{r.node_id},{r.round},{r.digest.hex()}" for r in b.records)
        lines.append(f"{b.index}|{b.prev_hash.hex()}|{b.timestamp_ms}|{recs}|{b.block_hash.hex()}")
    return "\n".join(lines) + ("\n" if lines else "")


# The characters dump_chain writes, and "-" so that a negative field is
# still named by the unsigned 64-bit check.
_DUMP_CHARS = "0123456789abcdef|,;LG\n-"
_DUMP_BYTES = _DUMP_CHARS.encode()


def _check_dump_chars(text: str) -> None:
    """Raise ValueError naming the line of the first character dump_chain never writes.

    So int() and bytes.fromhex() see no plus sign, underscore, whitespace,
    non-ASCII digit or upper-case hex.
    """
    step = 1 << 16  # pieces that stay in cache run faster than one pass
    if text.isascii() and not any(text[lo:lo + step].encode().translate(None, _DUMP_BYTES)
                                  for lo in range(0, len(text), step)):
        return
    at = next(i for i, char in enumerate(text) if char not in _DUMP_CHARS)
    lineno = text.count("\n", 0, at)
    raise ValueError(f"dump line {lineno}: unexpected character {text[at]!r}")


def _padded(decimal: str) -> bool:
    """True for a decimal that int() read with a leading zero or a sign; dump_chain writes neither."""
    return decimal < "1" and decimal != "0"


def _raise_bad_integer(parts: list, lineno: int):
    """Name the first integer field of a parsed line outside u64, else the first _padded one."""
    fields = [("index", parts[0]), ("timestamp_ms", parts[2])]
    for j, item in enumerate(parts[3].split(";")):
        _, node_s, round_s, _ = item.split(",")
        fields += [(f"record {j} node_id", node_s), (f"record {j} round", round_s)]
    for name, decimal in fields:
        if not 0 <= int(decimal) < 1 << 64:
            raise ValueError(f"dump line {lineno}: {name} {int(decimal)} does not fit an "
                             f"unsigned 64-bit field")
    name, decimal = next((k, s) for k, s in fields if _padded(s))
    raise ValueError(f"dump line {lineno}: {name} {decimal!r} is not a plain decimal "
                     f"(no sign, no leading zero)")


def _parse_dump_line(line: str, lineno: int):
    """(index, prev_hash, serialized block body, block_hash) of one dump line.

    Each record is packed straight from its fields, with HashRecord's checks
    and messages, so no record object is built. The line holds only
    _DUMP_CHARS (audit_dump checks them first).
    """
    parts = line.split("|")
    if len(parts) != 5:
        raise ValueError(f"dump line {lineno}: expected 5 fields, got {len(parts)}")
    records, fits, plain = [], True, True
    try:
        index = int(parts[0])
        prev_hash = bytes.fromhex(parts[1])
        timestamp_ms = int(parts[2])
        for item in parts[3].split(";"):
            kind_s, node_s, round_s, digest_hex = item.split(",")
            kind = _LETTER_BYTE.get(kind_s)
            if kind is None:
                raise ValueError(f"{kind_s!r} is not a valid RecordKind")
            node_id, rnd, digest = int(node_s), int(round_s), bytes.fromhex(digest_hex)
            if node_s < "1" and node_s != "0" or round_s < "1" and round_s != "0":
                plain = False  # _padded, inlined; named once every field has parsed
            if len(digest) != 32:
                raise ValueError(_DIGEST_LENGTH)
            try:
                records.append(_RECORD.pack(kind, node_id, rnd, digest))
            except struct.error:  # named once every field has parsed
                fits = False
        block_hash = bytes.fromhex(parts[4])
    except ValueError as exc:
        raise ValueError(f"dump line {lineno}: {exc}") from exc
    if len(prev_hash) != 32 or len(block_hash) != 32:
        raise ValueError(f"dump line {lineno}: hash fields must be 32 bytes")
    if not (fits and plain and 0 <= index < 1 << 64 and 0 <= timestamp_ms < 1 << 64) \
            or _padded(parts[0]) or _padded(parts[2]):
        _raise_bad_integer(parts, lineno)
    body = _block_body(index, prev_hash, b"".join(records), timestamp_ms)
    return index, prev_hash, body, block_hash


def audit_dump(text: str) -> AuditReport:
    """Recompute every block hash and link from a dump; report the first inconsistency.

    Structural problems (truncation, unparseable fields, spellings dump_chain
    never writes) raise ValueError; only a well-formed dump gets an integrity
    verdict. An empty dump is the dump of an empty chain, so it is Ok.
    """
    _check_dump_chars(text)
    lines = text.splitlines()
    while lines and not lines[-1]:
        lines.pop()
    prev = ZERO_HASH
    for i, line in enumerate(lines):
        index, prev_hash, body, block_hash = _parse_dump_line(line, i)
        if index != i or prev_hash != prev or hash_bytes(body) != block_hash:
            return AuditReport(ok=False, first_bad_block=i)
        prev = block_hash
    return AuditReport(ok=True)


def verify_chain(c: Chain) -> bool:
    """True iff the audit that third parties run finds c's own dump consistent.

    A forged block that dump_chain writes outside the audit's grammar, such
    as one whose hash is not 32 bytes, raises the audit's ValueError instead.
    No block that append_block builds is one, and no test forges one.
    """
    return audit_dump(dump_chain(c)).ok

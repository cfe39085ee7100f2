"""Tests for dbafl.chain: ledger, block cutting, elections, fairness, tampering."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbafl import chain as ch

ABC_DIGEST = bytes.fromhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def _rec(node=0, rnd=0, payload=b"x", kind=ch.RecordKind.LOCAL):
    return ch.HashRecord(kind=kind, node_id=node, round=rnd, digest=ch.hash_bytes(payload))


def _committee(members=(0, 1, 2), term_blocks=10):
    return ch.CommitteeState(members=tuple(members), term_blocks=term_blocks)


def test_hash_bytes_published_vectors():
    assert ch.hash_bytes(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert ch.hash_bytes(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert ch.hash_bytes(b"abc") == hashlib.sha256(b"abc").digest()
    assert ch.hash_bytes(b"abd") != ch.hash_bytes(b"abc")


def test_hash_model_sensitivity():
    params = np.array([0.5, -1.25, 3.0])
    assert ch.hash_model(params) == ch.hash_model(params.copy())
    bumped = params.copy()
    bumped[1] = np.nextafter(bumped[1], 1.0)  # one ulp
    assert ch.hash_model(bumped) != ch.hash_model(params)
    assert ch.hash_model(np.array([0.0])) != ch.hash_model(np.array([-0.0]))
    with pytest.raises(ValueError):
        ch.hash_model(np.array([1.0, np.nan]))


def test_should_cut_block_table_defaults():
    policy = ch.BlockCutPolicy()
    assert policy.max_wait_s == 2.0 and policy.max_records == 10
    assert policy.max_block_bytes == 10_000_000
    assert ch.should_cut_block(10, 500, 0.5, policy) is True
    assert ch.should_cut_block(1, 50, 2.0, policy) is True
    assert ch.should_cut_block(3, 150, 0.5, policy) is False
    assert ch.should_cut_block(1, 10_000_000, 0.0, policy) is True
    # the wait rule needs at least one pending record
    assert ch.should_cut_block(0, 0, 100.0, policy) is False


def test_append_chains_blocks_and_verifies():
    c = ch.Chain()
    genesis = c.append_block([_rec(0, 0, b"g")], timestamp_ms=0)
    assert genesis.index == 0
    assert genesis.prev_hash == b"\x00" * 32
    b1 = c.append_block([_rec(1, 1, b"a"), _rec(2, 1, b"b")], timestamp_ms=1500)
    assert b1.index == 1
    assert b1.prev_hash == genesis.block_hash
    for i in range(2, 7):
        c.append_block([_rec(i % 3, i, str(i).encode())], timestamp_ms=1500 * i)
    assert ch.verify_chain(c) is True
    assert b1.block_hash == ch.hash_bytes(
        ch.serialize_block_body(b1.index, b1.prev_hash, b1.records, b1.timestamp_ms)
    )
    # a block built by keyword equals, and prints as, the one the chain built
    rebuilt = ch.Block(block_hash=b1.block_hash, timestamp_ms=1500, records=b1.records,
                       prev_hash=b1.prev_hash, index=1)
    assert rebuilt == b1 and rebuilt is not b1
    assert repr(rebuilt) == (f"Block(index=1, prev_hash={b1.prev_hash!r}, "
                             f"records={b1.records!r}, timestamp_ms=1500, "
                             f"block_hash={b1.block_hash!r})")


def _forged(block, **changes):
    """block with changes, and a block hash that matches them."""
    block = block._replace(**changes)
    body = ch.serialize_block_body(block.index, block.prev_hash, block.records,
                                   block.timestamp_ms)
    return block._replace(block_hash=ch.hash_bytes(body))


# Each tamper leaves the rest of the chain consistent, so only one check sees it.
TAMPERS = {
    "relinked-tip": lambda blocks: {3: _forged(blocks[3], prev_hash=blocks[1].block_hash)},
    "edited-record": lambda blocks: {1: blocks[1]._replace(records=(_rec(1, 1, b"forged"),))},
    "tip-index": lambda blocks: {3: _forged(blocks[3], index=4)},
}


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=TAMPERS.keys())
def test_verify_chain_rejects_a_tampered_chain(tamper):
    c = ch.Chain()
    for i in range(4):
        c.append_block([_rec(i % 3, i, str(i).encode())], timestamp_ms=1500 * i)
    assert ch.verify_chain(c) is True
    (bad, block), = tamper(c.blocks).items()
    c.blocks[bad] = block
    assert ch.verify_chain(c) is False
    assert ch.audit_dump(ch.dump_chain(c)).first_bad_block == bad


def test_append_rejects_empty_and_oversize():
    c = ch.Chain(policy=ch.BlockCutPolicy(max_wait_s=2.0, max_records=10, max_block_bytes=200))
    with pytest.raises(ValueError):
        c.append_block([], timestamp_ms=0)
    big = [_rec(0, r, str(r).encode()) for r in range(10)]  # 10 records > 200 bytes
    with pytest.raises(ValueError):
        c.append_block(big, timestamp_ms=0)


def test_term_cadence_and_blacklist_reset():
    committee = _committee(members=(0, 1, 2, 3, 4), term_blocks=10)
    c = ch.Chain(committee=committee)
    c.append_block([_rec(0, 0, b"g")], timestamp_ms=0)  # genesis elects term-0 leader
    assert committee.leader in committee.members
    assert len(committee.leader_history) == 1
    committee.blacklist.add(9)
    for i in range(1, 10):
        c.append_block([_rec(1, i, str(i).encode())], timestamp_ms=i)
        assert len(committee.leader_history) == 1  # still term 0
        assert 9 in committee.blacklist
    c.append_block([_rec(1, 10, b"ten")], timestamp_ms=10)  # 10th append ends the term
    assert len(committee.leader_history) == 2
    assert committee.blacklist == set()
    assert committee.leader == committee.members[ch.elect_leader(c.blocks[10].block_hash, 5)]
    # exactly one election per term_blocks appends
    for i in range(11, 21):
        c.append_block([_rec(1, i, str(i).encode())], timestamp_ms=i)
    assert len(committee.leader_history) == 3
    with pytest.raises(ValueError, match="^term_blocks must be at least 1, got 0$"):
        _committee(term_blocks=0)


def test_elect_leader_contract():
    assert ch.elect_leader(b"\x01" * 32, 1) == 0
    assert ch.elect_leader(b"\x00" * 32, 5) == 0
    # arbitrary-precision oracle on the known digest (frozen: 0)
    assert int(ABC_DIGEST.hex(), 16) % 5 == 0
    assert ch.elect_leader(ABC_DIGEST, 5) == 0
    with pytest.raises(ValueError):
        ch.elect_leader(ABC_DIGEST, 0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        digest = rng.bytes(32)
        m = int(rng.integers(1, 12))
        assert 0 <= ch.elect_leader(digest, m) < m
        assert ch.elect_leader(digest, m) == ch.elect_leader(digest, m)


def test_leader_probabilities():
    assert np.allclose(ch.leader_probabilities([0, 1, 2, 3, 4], 5), [0.2] * 5)
    assert np.array_equal(ch.leader_probabilities([2, 2, 2], 5), [0, 0, 1.0, 0, 0])
    rng = np.random.default_rng(1)
    obs = rng.integers(0, 4, size=300).tolist()
    p = ch.leader_probabilities(obs, 4)
    assert abs(p.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        ch.leader_probabilities([], 3)


def _gini_oracle(p):
    num = sum(abs(a - b) for a in p for b in p)
    den = 2.0 * sum(b for _ in p for b in p)
    return num / den


def test_gini_examples_and_oracle():
    assert ch.gini(np.array([0.2] * 5)) == 0.0
    assert abs(ch.gini(np.array([0.0, 0.0, 1.0, 0.0, 0.0])) - 0.8) < 1e-12
    assert abs(ch.gini(np.array([0.5, 0.5, 0.0, 0.0, 0.0])) - 0.6) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = rng.uniform(0, 1, size=int(rng.integers(2, 9)))
        got = ch.gini(p)
        assert abs(got - _gini_oracle(p.tolist())) <= 1e-12
        assert 0.0 <= got < 1.0
    with pytest.raises(ValueError):
        ch.gini(np.zeros(4))


def test_election_fairness_monte_carlo():
    # 1e5 random digests, M=5: frequencies near-uniform, Gini far below 0.3125.
    rng = np.random.default_rng(314)
    leaders = [ch.elect_leader(rng.bytes(32), 5) for _ in range(100_000)]
    p = ch.leader_probabilities(leaders, 5)
    assert np.all(p >= 0.19) and np.all(p <= 0.21)
    assert ch.gini(p) < 0.05


def test_verify_record_paths():
    committee = _committee()
    c = ch.Chain(committee=committee)
    params = np.array([1.0, 2.0, 3.0])
    record = ch.HashRecord(ch.RecordKind.LOCAL, node_id=1, round=0, digest=ch.hash_model(params))
    c.append_block([record], timestamp_ms=0)
    assert ch.verify_record(c, params, record) is True
    assert committee.blacklist == set()
    tampered = params.copy()
    tampered[0] = np.nextafter(tampered[0], 2.0)
    assert ch.verify_record(c, tampered, record) is False
    assert committee.blacklist == {1}
    ghost = ch.HashRecord(ch.RecordKind.LOCAL, node_id=1, round=9, digest=ch.hash_bytes(b"?"))
    with pytest.raises(ValueError):
        ch.verify_record(c, params, ghost)


def test_submit_opens_blocks_and_seals_on_count_and_elapsed_wait():
    c = ch.Chain(policy=ch.BlockCutPolicy(max_wait_s=2.0, max_records=3))
    a, b, d, e, f = (_rec(i, 0, bytes([i])) for i in range(5))
    assert c.submit(a, 0.0) is True
    assert c.submit(b, 0.5) is False
    assert len(c) == 0 and c.has_record(a) and c.has_record(b)
    assert c.submit(d, 1.0) is False  # the third record meets max_records
    assert [blk.records for blk in c.blocks] == [(a, b, d)]
    assert c.blocks[0].timestamp_ms == 1000 and c.has_record(a)
    assert c.submit(e, 1.25) is True
    assert c.submit(f, 3.25) is False  # max_wait_s after the block opened
    assert c.blocks[1].records == (e, f) and c.blocks[1].timestamp_ms == 3250
    assert ch.verify_chain(c)


def test_block_bytes_counts_the_whole_serialized_block():
    for n in (1, 2, 7):
        body = ch.serialize_block_body(3, ch.ZERO_HASH, [_rec(i) for i in range(n)], 99)
        assert ch.block_bytes(n) == len(body) == 52 + 49 * n


def test_byte_cap_must_hold_a_one_record_block():
    assert ch.BlockCutPolicy(max_block_bytes=101).max_block_bytes == 101
    for cap in (100, 49, 0, -1):
        with pytest.raises(ValueError, match="max_block_bytes"):
            ch.BlockCutPolicy(max_block_bytes=cap)


def test_submit_seals_before_a_record_that_would_overflow_the_byte_cap():
    cap = ch.block_bytes(3) + 20  # room for three records, not four
    c = ch.Chain(policy=ch.BlockCutPolicy(max_wait_s=10.0, max_records=10,
                                          max_block_bytes=cap))
    recs = [_rec(i, 0, bytes([i])) for i in range(7)]
    assert c.submit(recs[0], 0.0) is True
    assert c.submit(recs[1], 0.1) is False
    assert c.submit(recs[2], 0.2) is False
    assert len(c) == 0  # three records are under the cap
    assert c.submit(recs[3], 0.3) is True  # seals the three, then opens a block
    assert [b.records for b in c.blocks] == [tuple(recs[:3])]
    assert c.blocks[0].timestamp_ms == 300 and c.has_record(recs[3])
    # a block that meets the cap exactly is sealed on the record that fills it
    exact = ch.Chain(policy=ch.BlockCutPolicy(max_block_bytes=ch.block_bytes(2)))
    assert exact.submit(recs[4], 1.0) is True
    assert exact.submit(recs[5], 1.0) is False
    assert [b.records for b in exact.blocks] == [tuple(recs[4:6])]
    # the smallest cap gives one record per block
    single = ch.Chain(policy=ch.BlockCutPolicy(max_block_bytes=ch.block_bytes(1)))
    assert [single.submit(r, 2.0) for r in recs[:3]] == [True] * 3
    assert [b.records for b in single.blocks] == [(r,) for r in recs[:3]]
    for chain in (c, exact, single):
        for b in chain.blocks:
            body = ch.serialize_block_body(b.index, b.prev_hash, b.records, b.timestamp_ms)
            assert len(body) <= chain.policy.max_block_bytes
        assert ch.verify_chain(chain)


def test_seal_stamps_rounded_milliseconds_and_skips_an_empty_block():
    c = ch.Chain()
    c.seal(1.0)
    assert len(c) == 0
    for now in (0.0019, 2.5004, 7.0):
        c.submit(_rec(0, int(now * 1e4)), now)
        c.seal(now)
        assert c.blocks[-1].timestamp_ms == int(round(now * 1000))
    assert [b.timestamp_ms for b in c.blocks] == [2, 2500, 7000]


def test_verify_record_accepts_a_digest_in_the_open_block():
    committee = _committee()
    c = ch.Chain(committee=committee)
    params = np.array([1.0, 2.0, 3.0])
    record = ch.HashRecord(ch.RecordKind.LOCAL, node_id=1, round=0, digest=ch.hash_model(params))
    c.submit(record, 0.0)
    assert len(c) == 0 and c.has_record(record)
    assert ch.verify_record(c, params, record) is True
    # lookup is by value: every field counts, not the digest alone
    twin = ch.HashRecord(ch.RecordKind.LOCAL, 1, 0, ch.hash_model(params.copy()))
    assert twin is not record and c.has_record(twin)
    assert not c.has_record(record._replace(node_id=2))
    assert not c.has_record(record._replace(round=1))
    ghost = ch.HashRecord(ch.RecordKind.LOCAL, node_id=1, round=9, digest=ch.hash_bytes(b"?"))
    assert not c.has_record(ghost)
    with pytest.raises(ValueError):
        ch.verify_record(c, params, ghost)


class _ReferenceOpenBlock:
    """The open block as the simulator kept it before the chain owned it."""

    def __init__(self, chain):
        self.chain = chain
        self.pool = []
        self.pool_first = None

    @staticmethod
    def body_bytes(records):
        return len(ch.serialize_block_body(0, ch.ZERO_HASH, records, 0))

    def append(self, record, now):
        # the byte cap binds on the whole serialized block: seal before overflowing it
        if self.pool and self.body_bytes(self.pool + [record]) > self.chain.policy.max_block_bytes:
            self.cut(now)
        opened = not self.pool
        if opened:
            self.pool_first = now
        self.pool.append(record)
        if ch.should_cut_block(len(self.pool), self.body_bytes(self.pool),
                               now - self.pool_first, self.chain.policy):
            self.cut(now)
        return opened

    def cut(self, now):
        self.chain.append_block(self.pool, int(round(now * 1000)))
        self.pool = []
        self.pool_first = None

    def timer(self, now):
        if self.pool:
            self.cut(now)


def _replay(submit, seal, ops):
    """(opened flags, first ValueError message or None) of one op stream."""
    opened, now = [], 0.0
    try:
        for i, (dt, action) in enumerate(ops):
            now += dt
            if action == "seal":
                seal(now)
            else:
                opened.append(submit(_rec(action, i, bytes([i % 256]),
                                          ch.RecordKind(("L", "G")[i % 2])), now))
        seal(now)  # orderly shutdown
    except ValueError as exc:
        return opened, str(exc)
    return opened, None


_POLICIES = st.builds(
    ch.BlockCutPolicy,
    max_wait_s=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.7]),
    max_records=st.integers(1, 12),
    max_block_bytes=st.one_of(st.just(10_000_000), st.integers(101, 700)))
_OPS = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 3.7]),
                          st.one_of(st.just("seal"), st.integers(0, 6))),
                max_size=60)


@settings(max_examples=300, deadline=None)
@given(policy=_POLICIES, ops=_OPS, term_blocks=st.integers(1, 4))
def test_submit_and_seal_match_the_reference_open_block(policy, ops, term_blocks):
    def chain():
        return ch.Chain(policy=policy, committee=_committee(term_blocks=term_blocks))

    ref_chain = chain()
    ref = _ReferenceOpenBlock(ref_chain)
    new_chain = chain()
    expected = _replay(ref.append, ref.timer, ops)
    assert expected[1] is None  # every valid cut policy can be met
    assert _replay(new_chain.submit, new_chain.seal, ops) == expected
    assert ch.dump_chain(new_chain) == ch.dump_chain(ref_chain)
    assert new_chain.committee.leader_history == ref_chain.committee.leader_history
    members = new_chain.committee.members  # the genesis and every term_blocks-th block elect
    assert new_chain.committee.leader_history == [
        members[ch.elect_leader(b.block_hash, 3)] for b in new_chain.blocks[::term_blocks]]
    for block in new_chain.blocks:
        assert all(new_chain.has_record(r) for r in block.records)


def test_record_digest_must_be_32_bytes():
    with pytest.raises(ValueError):
        ch.HashRecord(ch.RecordKind.LOCAL, 0, 0, b"short")
    with pytest.raises(ValueError, match="^digest must be exactly 32 bytes$"):
        ch.HashRecord(ch.RecordKind.LOCAL, 0, 0, b"x" * 31)
    with pytest.raises(ValueError, match="^digest must be exactly 32 bytes$"):
        ch.HashRecord(kind=ch.RecordKind.LOCAL, node_id=0, round=0, digest=b"x" * 33)
    record = ch.HashRecord(digest=b"x" * 32, round=2, node_id=1, kind=ch.RecordKind.GLOBAL)
    with pytest.raises(ValueError, match="^digest must be exactly 32 bytes$"):
        record._replace(digest=b"x" * 31)
    assert record == ch.HashRecord(ch.RecordKind.GLOBAL, 1, 2, b"x" * 32)
    assert record != ch.HashRecord(ch.RecordKind.GLOBAL, 1, 3, b"x" * 32)
    assert repr(record) == ("HashRecord(kind=<RecordKind.GLOBAL: 'G'>, node_id=1, round=2, "
                            f"digest={b'x' * 32!r})")


def test_dump_and_audit_roundtrip():
    c = ch.Chain()
    assert ch.dump_chain(c) == "" and ch.audit_dump("") == ch.AuditReport(ok=True)
    c.append_block([_rec(0, 0, b"g", ch.RecordKind.GLOBAL)], timestamp_ms=0)
    c.append_block([_rec(1, 1, b"a"), _rec(2, 1, b"b")], timestamp_ms=2000)
    c.append_block([_rec(0, 2, b"z", ch.RecordKind.GLOBAL)], timestamp_ms=4100)
    text = ch.dump_chain(c)
    report = ch.audit_dump(text)
    assert report.ok and report.first_bad_block is None


def test_audit_detects_any_single_byte_flip_in_digests():
    c = ch.Chain()
    c.append_block([_rec(0, 0, b"g")], timestamp_ms=0)
    c.append_block([_rec(1, 1, b"a")], timestamp_ms=2000)
    c.append_block([_rec(2, 2, b"b")], timestamp_ms=4000)
    lines = ch.dump_chain(c).splitlines()
    for i, line in enumerate(lines):
        fields = line.split("|")
        rec_field = fields[3]
        dig = rec_field.rsplit(",", 1)[-1]
        flipped = ("0" if dig[0] != "0" else "1") + dig[1:]
        fields[3] = rec_field[: -len(dig)] + flipped
        bad = lines[:i] + ["|".join(fields)] + lines[i + 1 :]
        report = ch.audit_dump("\n".join(bad) + "\n")
        assert not report.ok
        assert report.first_bad_block == i


def test_audit_rejects_malformed_dump():
    c = ch.Chain()
    c.append_block([_rec(0, 0, b"g")], timestamp_ms=0)
    text = ch.dump_chain(c)
    with pytest.raises(ValueError):
        ch.audit_dump(text[: len(text) // 2])  # truncated line


def test_hash_model_rejects_infinities():
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ch.hash_model(np.array([0.5, bad]))


def test_hash_model_finiteness_check_is_exact():
    # finite entries whose sum or sum of squares overflows still hash
    for values in ([1e308, 1e308], [1e200], [-1e160, 1e160]):
        arr = np.array(values)
        assert ch.hash_model(arr) == hashlib.sha256(arr.astype("<f8").tobytes()).digest()
    for bad in ([np.inf], [-np.inf, 1.0], [np.nan], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            ch.hash_model(np.array(bad))


def test_audit_names_an_integer_field_that_cannot_serialize():
    z = "00" * 32
    cases = [
        (f"-1|{z}|0|L,1,1,{z}|{z}", "index -1"),
        (f"0|{z}|{2**70}|L,1,1,{z}|{z}", f"timestamp_ms {2**70}"),
        (f"0|{z}|0|L,1,1,{z};G,{2**64},0,{z}|{z}", f"record 1 node_id {2**64}"),
        (f"0|{z}|0|L,1,-3,{z}|{z}", "record 0 round -3"),
    ]
    for line, named in cases:
        with pytest.raises(ValueError, match=f"^dump line 0: {named} "):
            ch.audit_dump(line + "\n")
    # the largest u64 values serialize, so they reach an integrity verdict
    top = 2**64 - 1
    report = ch.audit_dump(f"{top}|{z}|{top}|L,{top},{top},{z}|{z}\n")
    assert not report.ok and report.first_bad_block == 0


def _fuzz_dump() -> str:
    c = ch.Chain()
    c.append_block([_rec(0, 0, b"g", ch.RecordKind.GLOBAL)], timestamp_ms=0)
    c.append_block([_rec(1, 1, b"a"), _rec(2, 1, b"b")], timestamp_ms=2000)
    c.append_block([_rec(0, 2, b"z", ch.RecordKind.GLOBAL)], timestamp_ms=4100)
    return ch.dump_chain(c)


_DUMP = _fuzz_dump()
# characters of the dump format, plus signs and separators int() accepts, plus anything
_DUMP_CHARS = st.sampled_from(sorted(set(_DUMP) | set("-+_ \t\r"))) | st.characters()


def _audit_reports_or_raises_value_error(text: str) -> None:
    try:
        report = ch.audit_dump(text)
    except ValueError:
        return
    assert isinstance(report, ch.AuditReport)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_DUMP_CHARS))
def test_audit_dump_of_arbitrary_text_reports_or_raises_value_error(text):
    _audit_reports_or_raises_value_error(text)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(("replace", "insert", "delete")),
       st.integers(0, len(_DUMP) - 1), _DUMP_CHARS)
@example("insert", _DUMP.index("\n") + 1, "-")  # block 1's index becomes -1
def test_audit_dump_of_a_mutated_dump_reports_or_raises_value_error(op, i, char):
    if op == "replace":
        text = _DUMP[:i] + char + _DUMP[i + 1:]
    elif op == "insert":
        text = _DUMP[:i] + char + _DUMP[i:]
    else:
        text = _DUMP[:i] + _DUMP[i + 1:]
    _audit_reports_or_raises_value_error(text)


# --- differential audit: the record-object parser as the oracle ---


def _reference_parse_dump_line(line: str, lineno: int):
    """Builds a HashRecord per record and serializes it back; the parser's oracle."""
    parts = line.split("|")
    if len(parts) != 5:
        raise ValueError(f"dump line {lineno}: expected 5 fields, got {len(parts)}")
    try:
        index = int(parts[0])
        prev_hash = bytes.fromhex(parts[1])
        timestamp_ms = int(parts[2])
        records = []
        for item in parts[3].split(";"):
            kind_s, node_s, round_s, digest_hex = item.split(",")
            records.append(ch.HashRecord(ch.RecordKind(kind_s), int(node_s), int(round_s),
                                         bytes.fromhex(digest_hex)))
        block_hash = bytes.fromhex(parts[4])
    except (ValueError, KeyError) as exc:
        raise ValueError(f"dump line {lineno}: {exc}") from exc
    if len(prev_hash) != 32 or len(block_hash) != 32:
        raise ValueError(f"dump line {lineno}: hash fields must be 32 bytes")
    try:
        body = ch.serialize_block_body(index, prev_hash, records, timestamp_ms)
    except struct.error:
        fields = [("index", index), ("timestamp_ms", timestamp_ms)]
        for j, r in enumerate(records):
            fields += [(f"record {j} node_id", r.node_id), (f"record {j} round", r.round)]
        name, value = next((k, v) for k, v in fields if not 0 <= v < 1 << 64)
        raise ValueError(f"dump line {lineno}: {name} {value} does not fit an unsigned "
                         f"64-bit field") from None
    decimals = [("index", parts[0]), ("timestamp_ms", parts[2])]
    for j, item in enumerate(parts[3].split(";")):
        _, node_s, round_s, _ = item.split(",")
        decimals += [(f"record {j} node_id", node_s), (f"record {j} round", round_s)]
    for name, spelt in decimals:
        if str(int(spelt)) != spelt:  # dump_chain writes str(value)
            raise ValueError(f"dump line {lineno}: {name} {spelt!r} is not a plain decimal "
                             f"(no sign, no leading zero)")
    return index, prev_hash, body, block_hash


# what dump_chain writes: lower-case hex, decimals, separators, kind letters;
# "-" lets a negative field reach the u64 check
_REFERENCE_DUMP_CHARS = set("0123456789abcdef|,;LG\n-")


def _reference_audit_dump(text: str) -> ch.AuditReport:
    for lineno, line in enumerate(text.split("\n")):
        stray = [char for char in line if char not in _REFERENCE_DUMP_CHARS]
        if stray:
            raise ValueError(f"dump line {lineno}: unexpected character {stray[0]!r}")
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    prev = ch.ZERO_HASH
    for i, line in enumerate(lines):
        index, prev_hash, body, block_hash = _reference_parse_dump_line(line, i)
        if index != i or prev_hash != prev or ch.hash_bytes(body) != block_hash:
            return ch.AuditReport(ok=False, first_bad_block=i)
        prev = block_hash
    return ch.AuditReport(ok=True)


def _outcome(audit, text: str):
    """audit's report, or the type and message of the error it raised."""
    try:
        return audit(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_audits_agree(text: str) -> None:
    assert _outcome(ch.audit_dump, text) == _outcome(_reference_audit_dump, text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=_DUMP_CHARS))
def test_audit_dump_matches_the_reference_on_arbitrary_text(text):
    _assert_audits_agree(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(("replace", "insert", "delete")),
       st.integers(0, len(_DUMP) - 1), _DUMP_CHARS)
def test_audit_dump_matches_the_reference_on_a_mutated_dump(op, i, char):
    if op == "replace":
        text = _DUMP[:i] + char + _DUMP[i + 1:]
    elif op == "insert":
        text = _DUMP[:i] + char + _DUMP[i:]
    else:
        text = _DUMP[:i] + _DUMP[i + 1:]
    _assert_audits_agree(text)


# each line of a dump split into field values (even positions) and separators
_LINE_TOKENS = [re.split(r"([|;,])", line) for line in _DUMP.splitlines()]
_FIELD_VALUES = st.sampled_from(
    ["X", "l", "", "LG", "-1", "+5", str(2**64), str(2**64 - 1), "0", "7",
     "00" * 31, "00" * 33, "ab" * 32])
_EXTRA_SEPARATORS = st.sampled_from(["", ",", ";", "|"])


def _field_edit(line: int):
    return st.tuples(st.just(line), st.sampled_from(range(0, len(_LINE_TOKENS[line]), 2)),
                     _FIELD_VALUES, _EXTRA_SEPARATORS)


# one to three edits in one line, where check order decides which error is
# raised, plus up to one edit anywhere, which the audit must not reach when
# an earlier line is bad
_FIELD_EDITS = st.builds(
    lambda same_line, anywhere: same_line + anywhere,
    st.integers(0, len(_LINE_TOKENS) - 1).flatmap(
        lambda line: st.lists(_field_edit(line), min_size=1, max_size=3)),
    st.lists(st.integers(0, len(_LINE_TOKENS) - 1).flatmap(_field_edit), max_size=1))


# block 1's fields: 0 index, 2 prev_hash, 4 timestamp_ms, then its two
# records' kind, node id, round and digest at 6-12 and 14-20, block_hash 22
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FIELD_EDITS)
@example([(1, 6, "l", ""), (1, 10, "", "")])  # a bad kind, then a round that is no integer
@example([(1, 8, "LG", ""), (1, 12, "00" * 33, "")])  # a bad node id, then a long digest
@example([(1, 8, str(2**64), ""), (1, 14, "X", "")])  # node id out of range, then a bad kind
@example([(1, 8, "-1", ""), (1, 20, "00" * 31, "")])  # ... then a short digest
@example([(1, 2, "00" * 31, ""), (1, 22, "7", "")])  # a short prev_hash, then bad hex
@example([(0, 4, "7", ""), (1, 6, "X", "")])  # block 0 fails its hash before block 1 parses
def test_audit_dump_matches_the_reference_on_field_edits(edits):
    lines = [list(tokens) for tokens in _LINE_TOKENS]
    for line, at, value, extra in edits:
        lines[line][at] = value + extra
    _assert_audits_agree("".join("".join(tokens) + "\n" for tokens in lines))


# block 1 of _DUMP, split at its field separators (see _LINE_TOKENS)
@pytest.mark.parametrize("at, spelt, error", [
    (0, "+0_1", "unexpected character '+'"),
    (0, "١", "unexpected character '١'"),  # ARABIC-INDIC DIGIT ONE
    (0, "01", "index '01' is not a plain decimal"),
    (2, " " + _LINE_TOKENS[1][2], "unexpected character ' '"),
    (2, _LINE_TOKENS[1][2].upper(), "unexpected character '"),
    (4, "0" + _LINE_TOKENS[1][4], "timestamp_ms '02000' is not a plain decimal"),
    (8, "-0" + _LINE_TOKENS[1][8], "record 0 node_id -1 does not fit"),  # u64 check first
    (10, "00" + _LINE_TOKENS[1][10], "record 0 round '001' is not a plain decimal"),
    (16, "-0", "record 1 node_id '-0' is not a plain decimal"),  # fits u64, still a sign
    (20, _LINE_TOKENS[1][20] + "\t", "unexpected character '\\t'"),
])
def test_audit_rejects_spellings_dump_chain_never_writes(at, spelt, error):
    tokens = list(_LINE_TOKENS[1])
    tokens[at] = spelt
    lines = _DUMP.splitlines()
    lines[1] = "".join(tokens)
    with pytest.raises(ValueError, match="^dump line 1: " + re.escape(error)):
        ch.audit_dump("\n".join(lines) + "\n")


def test_audit_rejects_carriage_returns_and_space_only_trailing_lines():
    for text in (_DUMP.replace("\n", "\r\n"), _DUMP + " \n", _DUMP + "\t"):
        with pytest.raises(ValueError, match="^dump line [03]: unexpected character"):
            ch.audit_dump(text)
    assert ch.audit_dump(_DUMP + "\n\n") == ch.AuditReport(ok=True)  # blank lines still end it

import ipaddress
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersim.flows import PROTO_TCP, FlowKey
from steersim.rss import (
    DEFAULT_RSS_KEY,
    FIELD_NAMES,
    KeyTooShortError,
    RssEngine,
    queue_of,
    select_fields,
    toeplitz_hash,
)
from steersim.workload import Scenario, ScenarioError, build_rss_engine

from toeplitz_oracle import toeplitz_reference

# Verification vectors published with the RSS specification: (dst_addr,
# dst_port, src_addr, src_port, hash over addresses only, hash over the
# full TCP 4-tuple). Confirmed against the bit-by-bit oracle below.
VERIFICATION_VECTORS = [
    ("161.142.100.80", 1766, "66.9.149.187", 2794, 0x323E8FC2, 0x51CCC178),
    ("65.69.140.83", 4739, "199.92.111.2", 14230, 0xD718262A, 0xC626B0EA),
    ("12.22.207.184", 38024, "24.19.198.95", 12898, 0xD2D0A5DE, 0x5C2B394A),
    ("209.142.163.6", 2217, "38.27.205.30", 48228, 0x82989176, 0xAFC7327F),
    ("202.188.127.2", 1303, "153.39.163.191", 44251, 0x5D1809C5, 0x10E828A2),
]


ADDRESSES = ("src_addr", "dst_addr")
FOUR_TUPLE = FIELD_NAMES[:4]


def _load_rss(**rss):
    """Load a default scenario whose `rss` section has these settings."""
    d = Scenario().to_dict()
    d["rss"].update(rss)
    return Scenario.from_dict(d)


def _packed(addr: str) -> bytes:
    return ipaddress.ip_address(addr).packed


SRC, DST = "10.0.0.1", "10.0.0.2"
PSRC, PDST = _packed(SRC), _packed(DST)  # as the engine holds them


def _key(sport=32768, dport=5001):
    return FlowKey(sport, dport)


class TestSelectFields:
    def test_all_fields_ipv4_is_13_bytes(self):
        data = select_fields(_key(), FIELD_NAMES, PSRC, PDST)
        assert len(data) == 13
        assert data[-1] == PROTO_TCP

    def test_addresses_only_is_8_bytes(self):
        assert len(select_fields(_key(), ADDRESSES, PSRC, PDST)) == 8

    def test_same_flow_same_bytes(self):
        assert select_fields(_key(), FOUR_TUPLE, PSRC, PDST) == \
            select_fields(_key(), FOUR_TUPLE, PSRC, PDST)

    def test_canonical_order(self):
        data = select_fields(_key(), FOUR_TUPLE, PSRC, PDST)
        assert data == bytes([10, 0, 0, 1, 10, 0, 0, 2]) + (32768).to_bytes(
            2, "big"
        ) + (5001).to_bytes(2, "big")
        # The names may come in any order; the input keeps the canonical one.
        assert select_fields(_key(), FOUR_TUPLE[::-1], PSRC, PDST) == data

    def test_no_fields_rejected(self):
        # An empty selection would hash every flow to one queue; the
        # scenario loader refuses it, naming the field.
        with pytest.raises(ScenarioError, match="rss.fields"):
            _load_rss(fields=[])

    def test_selections_and_tables_are_immutable_values(self):
        fields, table = ["src_addr", "dst_addr", "protocol"], [0, 1, 2, 3]
        engine = build_rss_engine(_load_rss(fields=fields, table=table))
        assert engine.fields == ("src_addr", "dst_addr", "protocol")
        assert engine.table == (0, 1, 2, 3)
        same = {engine.fields, ("src_addr", "dst_addr", "protocol"), engine.table, (0, 1, 2, 3)}
        assert len(same) == 2
        # Changing the loaded lists afterwards would bypass the load checks.
        fields.clear()
        table[:] = [9, 9, 9]
        assert engine.fields == ("src_addr", "dst_addr", "protocol")
        assert engine.table == (0, 1, 2, 3)
        for value in (engine.fields, engine.table):
            with pytest.raises(TypeError):
                value[0] = 0


class TestToeplitz:
    def test_all_zero_input(self):
        assert toeplitz_hash(DEFAULT_RSS_KEY, b"\x00" * 12) == 0

    def test_all_zero_key(self):
        assert toeplitz_hash(b"\x00" * 40, b"\xff" * 12) == 0

    def test_oracle_reproduces_published_vectors(self):
        # The oracle itself must reproduce the published suite before it is
        # trusted as a cross-check.
        for dst, dport, src, sport, h_addr, h_tcp in VERIFICATION_VECTORS:
            src, dst = _packed(src), _packed(dst)
            data_addr = select_fields(_key(sport, dport), ADDRESSES, src, dst)
            data_tcp = select_fields(_key(sport, dport), FOUR_TUPLE, src, dst)
            assert toeplitz_reference(DEFAULT_RSS_KEY, data_addr) == h_addr
            assert toeplitz_reference(DEFAULT_RSS_KEY, data_tcp) == h_tcp

    def test_matches_published_vectors(self):
        for dst, dport, src, sport, h_addr, h_tcp in VERIFICATION_VECTORS:
            key = _key(sport, dport)
            data_addr = select_fields(key, ADDRESSES, _packed(src), _packed(dst))
            data_tcp = select_fields(key, FOUR_TUPLE, _packed(src), _packed(dst))
            assert toeplitz_hash(DEFAULT_RSS_KEY, data_addr) == h_addr
            assert toeplitz_hash(DEFAULT_RSS_KEY, data_tcp) == h_tcp
            # The engine hashes its flows between the address pair it holds.
            assert RssEngine(src, dst, fields=ADDRESSES).hash_of(key) == h_addr
            assert RssEngine(src, dst, fields=FOUR_TUPLE).hash_of(key) == h_tcp

    def test_agrees_with_oracle_on_random_inputs(self):
        rng = random.Random(0xBEEF)
        for _ in range(10_000):
            n = rng.randrange(0, 17)
            data = rng.randbytes(n)
            assert toeplitz_hash(DEFAULT_RSS_KEY, data) == toeplitz_reference(
                DEFAULT_RSS_KEY, data
            )

    def test_key_too_short(self):
        with pytest.raises(KeyTooShortError):
            toeplitz_hash(b"\x01" * 10, b"\x00" * 8)

    # 8 bytes: IPv4 addresses; 12: the IPv4 four-tuple; 36: the IPv6 one.
    @given(st.sampled_from([8, 12, 36]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_oracle_on_random_keys(self, length, data):
        key = data.draw(st.binary(min_size=length + 4, max_size=length + 16))
        payload = data.draw(st.binary(min_size=length, max_size=length))
        assert toeplitz_hash(key, payload) == toeplitz_reference(key, payload)

    @given(st.binary(min_size=1, max_size=36), st.data())
    @settings(max_examples=200)
    def test_linearity(self, a, data):
        b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
        xored = bytes(x ^ y for x, y in zip(a, b))
        ha = toeplitz_hash(DEFAULT_RSS_KEY, a)
        hb = toeplitz_hash(DEFAULT_RSS_KEY, b)
        assert toeplitz_hash(DEFAULT_RSS_KEY, xored) == ha ^ hb


class TestLookup:
    def test_hash_zero_hits_entry_zero(self):
        assert queue_of(0, 4, (3, 1, 2, 0)) == 3

    def test_identical_entries(self):
        for h in (0, 1, 7, 123456, 2**32 - 1):
            assert queue_of(h, 4, (2,) * 8) == 2

    def test_table_size_must_be_power_of_two(self):
        # The low-bit mask reaches every entry only of a power-of-two table.
        with pytest.raises(ScenarioError, match="rss.table has 3 entries"):
            _load_rss(table=[0, 1, 2])
        with pytest.raises(ScenarioError, match="rss.table has 0 entries"):
            _load_rss(table=[])

    def test_weighted_table_shares(self):
        # 8-entry table split 4/2/1/1 across queues 0..3 gives loads of
        # 50/25/12.5/12.5 percent under uniform hashes, within one point.
        table = (0, 0, 0, 0, 1, 1, 2, 3)
        rng = random.Random(42)
        counts = [0, 0, 0, 0]
        n = 1_000_000
        for _ in range(n):
            counts[queue_of(rng.getrandbits(32), 4, table)] += 1
        shares = [c / n for c in counts]
        for got, want in zip(shares, [0.50, 0.25, 0.125, 0.125]):
            assert abs(got - want) <= 0.01

    def test_direct_map_modulo(self):
        assert queue_of(7, 4, None) == 3
        assert queue_of(0, 4, None) == 0

    def test_direct_map_uniform(self):
        rng = random.Random(7)
        counts = [0] * 4
        n = 1_000_000
        for _ in range(n):
            counts[queue_of(rng.getrandbits(32), 4, None)] += 1
        for c in counts:
            assert abs(c / n - 0.25) <= 0.01

    def test_direct_map_needs_a_queue(self):
        # Direct mapping takes the hash modulo the core count, so a host
        # with no cores is refused at load rather than dividing by zero.
        d = Scenario().to_dict()
        d["host"]["processors"] = []
        with pytest.raises(ScenarioError, match="host.processors"):
            Scenario.from_dict(d)


class TestEngine:
    @given(
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 65535),
        st.integers(0, 65535),
    )
    @settings(max_examples=100)
    def test_flow_affinity(self, a, b, sport, dport):
        # Same fields + same key + same selection -> same queue, always.
        engine = RssEngine(f"10.0.{a}.1", f"10.1.{b}.2", num_queues=4)
        key = FlowKey(sport, dport)
        assert engine.queue_for(key) == engine.queue_for(key)

    def test_indirection_vs_direct_styles(self):
        key = _key()
        direct = RssEngine(SRC, DST, num_queues=4)
        indirect = RssEngine(SRC, DST, num_queues=4, table=(0, 1, 2, 3) * 2)
        h = direct.hash_of(key)
        assert direct.queue_for(key) == h % 4
        assert indirect.queue_for(key) == [0, 1, 2, 3, 0, 1, 2, 3][h & 7]

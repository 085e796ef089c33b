"""Classic receive-side-scaling classification.

Field selection -> Toeplitz hash -> low-bit mask -> queue lookup, with both
lookup styles found in deployed stacks: a masked indirection table and a
plain hash-mod-queues direct map. The functions are pure over settings
that `Scenario.validate` has checked.
"""

import ipaddress
from functools import lru_cache

from .flows import PROTO_TCP

# Well-known 40-byte verification key from the public RSS specification.
# Scenarios may override it with any hex string of sufficient length.
DEFAULT_RSS_KEY = bytes.fromhex(
    "6d5a56da255b0ec24167253d43a38fb0"
    "d0ca2bcbae7b30b477cb2da38030f20c"
    "6a42b73bbeac01fa"
)

# The hashable header fields, in the order they enter the hash input.
FIELD_NAMES = ("src_addr", "dst_addr", "src_port", "dst_port", "protocol")


class KeyTooShortError(ValueError):
    """The key must cover the hash input plus the 32-bit sliding window."""


def select_fields(key, fields, src_addr: bytes, dst_addr: bytes) -> bytes:
    """Concatenate the named fields of a TCP flow, its packed addresses
    (4 bytes each for IPv4, 16 for IPv6) and the ports of `key`, in
    canonical order.

    Order is FIELD_NAMES whatever the order of `fields`, all in network
    byte order, so two packets of one flow always produce the same byte
    sequence.
    """
    parts = []
    if "src_addr" in fields:
        parts.append(src_addr)
    if "dst_addr" in fields:
        parts.append(dst_addr)
    if "src_port" in fields:
        parts.append(key.src_port.to_bytes(2, "big"))
    if "dst_port" in fields:
        parts.append(key.dst_port.to_bytes(2, "big"))
    if "protocol" in fields:
        parts.append(PROTO_TCP.to_bytes(1, "big"))
    return b"".join(parts)


@lru_cache(maxsize=64)
def _nibble_tables(key: bytes, length: int) -> tuple:
    """Per input byte, the two 16-entry tables of a `length`-byte input:
    entry v of a nibble's table is the XOR of the 32-bit key windows of
    the bits set in v. A hash is then one lookup per nibble."""
    window = int.from_bytes(key[: length + 4], "big")
    tables = []
    for first_bit in range(0, 8 * length, 4):
        table = [0] * 16
        for v in range(1, 16):
            low = v & -v
            # Nibble bit 8 is input bit first_bit, nibble bit 1 is
            # first_bit + 3; input bit j XORs in key bits j..j+31.
            bit = first_bit + 4 - low.bit_length()
            table[v] = table[v ^ low] ^ ((window >> (8 * length - bit)) & 0xFFFFFFFF)
        tables.append(tuple(table))
    return tuple(zip(tables[::2], tables[1::2]))


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """Standard Toeplitz hash: for each set input bit, XOR in the 32-bit
    window of the key starting at that bit position (big-endian bit order).

    The windows are folded into 16-entry tables per input nibble, built
    once per key and input length.
    """
    if len(key) < len(data) + 4:
        raise KeyTooShortError(
            f"key of {len(key)} bytes cannot cover {len(data)} input bytes"
        )
    result = 0
    for (high, low), byte in zip(_nibble_tables(key, len(data)), data):
        result ^= high[byte >> 4] ^ low[byte & 15]
    return result


def queue_of(hash_value: int, num_queues: int, table) -> int:
    """The queue of a hash: the entry of `table` (a power-of-two tuple of
    queue ids) that its low bits index or, with no table, the hash modulo
    the queue count as Linux and FreeBSD map it."""
    if table is None:
        return hash_value % num_queues
    return table[hash_value & (len(table) - 1)]


class RssEngine:
    """Bundles the run's address pair, key, field names and lookup style;
    caches per-flow results. The addresses are packed once, here; the
    flow table folds the same packed pair (`FlowTable`).

    The indirection table is static during a run; rebalancing policy is an
    OS concern outside this model.
    """

    def __init__(self, src_addr: str, dst_addr: str, key: bytes = DEFAULT_RSS_KEY,
                 fields: tuple = FIELD_NAMES[:4], num_queues: int = 4,
                 table: tuple | None = None):
        self.src_addr = ipaddress.ip_address(src_addr).packed
        self.dst_addr = ipaddress.ip_address(dst_addr).packed
        self.key = key
        self.fields = fields
        self.num_queues = num_queues
        self.table = table  # None selects direct mapping
        self._cache = {}

    def hash_of(self, flow_key) -> int:
        data = select_fields(flow_key, self.fields, self.src_addr, self.dst_addr)
        return toeplitz_hash(self.key, data)

    def queue_for(self, flow_key) -> int:
        queue = self._cache.get(flow_key)
        if queue is None:
            queue = queue_of(self.hash_of(flow_key), self.num_queues, self.table)
            self._cache[flow_key] = queue
        return queue

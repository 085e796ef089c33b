"""Classic receive-side-scaling classification.

Field selection -> Toeplitz hash -> low-bit mask -> queue lookup, with both
lookup styles found in deployed stacks: a masked indirection table and a
plain hash-mod-queues direct map. All functions are pure over immutable
configuration and safe to call from any thread.
"""

import ipaddress
from functools import lru_cache

# Well-known 40-byte verification key from the public RSS specification.
# Scenarios may override it with any hex string of sufficient length.
DEFAULT_RSS_KEY = bytes.fromhex(
    "6d5a56da255b0ec24167253d43a38fb0"
    "d0ca2bcbae7b30b477cb2da38030f20c"
    "6a42b73bbeac01fa"
)

_CANONICAL_FIELDS = ("src_addr", "dst_addr", "src_port", "dst_port", "protocol")


class KeyTooShortError(ValueError):
    """The key must cover the hash input plus the 32-bit sliding window."""


class _Value:
    """Immutable once built; compares, hashes and prints by its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({values})"


class HashFields(_Value):
    """Which packet header fields feed the hash. At least one must be set."""

    def __init__(self, src_addr: bool = True, dst_addr: bool = True, src_port: bool = True,
                 dst_port: bool = True, protocol: bool = False):
        if not (src_addr or dst_addr or src_port or dst_port or protocol):
            raise ValueError("hash field selection enables no fields")
        vars(self).update(src_addr=src_addr, dst_addr=dst_addr, src_port=src_port,
                          dst_port=dst_port, protocol=protocol)

    @classmethod
    def from_names(cls, names) -> "HashFields":
        names = set(names)
        unknown = names - set(_CANONICAL_FIELDS)
        if unknown:
            raise ValueError(f"unknown hash fields: {sorted(unknown)}")
        return cls(**{name: name in names for name in _CANONICAL_FIELDS})


class IndirectionTable(_Value):
    """Array of queue ids indexed by the masked low bits of the hash."""

    def __init__(self, entries: tuple, mask_bits: int):
        if len(entries) != (1 << mask_bits):
            raise ValueError(
                f"indirection table has {len(entries)} entries, expected 2^{mask_bits}"
            )
        vars(self).update(entries=entries, mask_bits=mask_bits)

    @classmethod
    def from_list(cls, entries) -> "IndirectionTable":
        n = len(entries)
        if n <= 0 or n & (n - 1):
            raise ValueError("indirection table size must be a power of two")
        return cls(tuple(entries), n.bit_length() - 1)


@lru_cache(maxsize=None)
def _packed_addr(addr: str) -> bytes:
    return ipaddress.ip_address(addr).packed


def select_fields(key, hash_fields: HashFields) -> bytes:
    """Concatenate the enabled fields of a flow key in canonical order.

    Order is (src addr, dst addr, src port, dst port, protocol), all in
    network byte order, so two packets of one flow always produce the same
    byte sequence.
    """
    parts = []
    if hash_fields.src_addr:
        parts.append(_packed_addr(key.src_addr))
    if hash_fields.dst_addr:
        parts.append(_packed_addr(key.dst_addr))
    if hash_fields.src_port:
        parts.append(key.src_port.to_bytes(2, "big"))
    if hash_fields.dst_port:
        parts.append(key.dst_port.to_bytes(2, "big"))
    if hash_fields.protocol:
        parts.append(key.protocol.to_bytes(1, "big"))
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


def indirection_lookup(hash_value: int, table: IndirectionTable) -> int:
    return table.entries[hash_value & ((1 << table.mask_bits) - 1)]


def direct_map_lookup(hash_value: int, num_queues: int) -> int:
    """Linux/FreeBSD style: no indirection table, hash modulo queue count."""
    if num_queues < 1:
        raise ValueError("need at least one queue")
    return hash_value % num_queues


class RssEngine:
    """Bundles key, field selection and lookup style; caches per-flow results.

    The indirection table is static during a run; rebalancing policy is an
    OS concern outside this model.
    """

    def __init__(self, key: bytes = DEFAULT_RSS_KEY, hash_fields: HashFields | None = None,
                 num_queues: int = 4, table: IndirectionTable | None = None):
        self.key = key
        self.hash_fields = HashFields() if hash_fields is None else hash_fields
        self.num_queues = num_queues
        self.table = table  # None selects direct mapping
        self._cache = {}

    def hash_of(self, flow_key) -> int:
        return toeplitz_hash(self.key, select_fields(flow_key, self.hash_fields))

    def queue_for(self, flow_key) -> int:
        queue = self._cache.get(flow_key)
        if queue is None:
            h = self.hash_of(flow_key)
            if self.table is not None:
                queue = indirection_lookup(h, self.table)
            else:
                queue = direct_map_lookup(h, self.num_queues)
            self._cache[flow_key] = queue
        return queue

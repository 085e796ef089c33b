"""Flow identity and simulated frames."""

from dataclasses import dataclass
from typing import NamedTuple

PROTO_TCP = 6
PROTO_UDP = 17

# Packet kinds.
SYN = "SYN"
SYNACK = "SYNACK"
ACK = "ACK"
DATA = "DATA"
FIN = "FIN"
KINDS = (SYN, SYNACK, ACK, DATA, FIN)


class FlowKey(NamedTuple):
    """Transport 5-tuple, always expressed in the receive direction.

    A tuple, so hashing and equality run in C on every table and socket
    lookup.
    """

    src_addr: str
    dst_addr: str
    protocol: int
    src_port: int
    dst_port: int


def reverse_key(key: FlowKey) -> FlowKey:
    """Map an outgoing packet's 5-tuple to its receive-direction flow key.

    Swaps addresses and ports, keeps the protocol; applying it twice is the
    identity.
    """
    return FlowKey(key.dst_addr, key.src_addr, key.protocol, key.dst_port, key.src_port)


@dataclass(slots=True)
class Packet:
    """One simulated frame.

    `seq` is a gapless per-flow sequence number for DATA packets and -1 for
    control packets. `held_at` is set while the frame sits in a steering
    table's transition list.
    """

    key: FlowKey
    kind: str
    seq: int
    size: int
    held_at: int | None = None

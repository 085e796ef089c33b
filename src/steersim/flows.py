"""Flow identity, simulated frames and the record base class.

A received frame is the plain tuple `(key, kind, seq)`: `key` is its
flow's receive-direction `FlowKey`, `kind` SYN, ACK or DATA, and `seq` a
gapless per-flow sequence number for DATA and -1 for control frames. Every
data frame is `traffic.packet_bytes` long, so a frame does not carry its
size. The engine builds one as the frame arrives; the model unpacks it and
keeps no state on it, so a frame held by the steering table sits there
beside the time it was held at (`FlowEntry.held`). A socket backlog keeps
of a deferred frame only its `seq`, which tells data from control, and the
tuple is freed as it is deferred.
"""

from typing import NamedTuple

# Packet kinds.
SYN = "SYN"
ACK = "ACK"
DATA = "DATA"


class FlowKey(NamedTuple):
    """A flow's receive-direction port pair. Every flow of a run is TCP
    between one address pair, which the RSS engine and the flow table take
    at wiring. A tuple, so hashing and equality run in C on every table
    and socket lookup."""

    src_port: int
    dst_port: int


class Record:
    """Base of the scenario, its sections, the run report and the run's
    counters. A record's annotated class attributes are its fields, in
    order, and their values the defaults. A field typed as a record
    defaults to a fresh one, and a default that holds records gets fresh
    copies of them, so no two objects share a section or a rule; a field
    with no value is required. `FIELDS` maps each field name to its
    annotation. Records take their fields by position or keyword and
    compare by value."""

    FIELDS: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.FIELDS = dict(cls.__annotations__)  # the class's own, never inherited

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = dict(zip(cls.FIELDS, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or not values.keys() <= cls.FIELDS.keys():
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls.FIELDS)}, each once")
        for name, tp in cls.FIELDS.items():
            if name in values:
                setattr(self, name, values[name])
            elif is_record(tp):
                setattr(self, name, tp())
            elif name in vars(cls):
                setattr(self, name, _fresh(vars(cls)[name]))
            else:
                raise TypeError(f"{cls.__name__} needs a value for {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.FIELDS)

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({values})"


def is_record(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, Record)


def _fresh(default):
    """`default`, with every record in it, however deep in tuples, copied:
    a record is mutable, so no two objects may share one."""
    if isinstance(default, Record):
        return type(default)(*map(_fresh, map(default.__getattribute__, default.FIELDS)))
    if type(default) is tuple:
        return tuple(map(_fresh, default))
    return default


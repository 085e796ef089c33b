"""Scenario definition and traffic generation.

A scenario file is versioned JSON describing topology, NIC mode, steering
table parameters, scheduler behaviour and the stream population. Streams
are one-directional: data flows sender -> receiver, acknowledgements flow
back. Stream generation is pure given a seeded rng, so runs replay exactly.
"""

import ipaddress
import json
import math
import sys
from array import array
from functools import partial
from types import UnionType
from typing import get_args, get_origin

from .flows import FlowKey, Record, is_record
from .rss import DEFAULT_RSS_KEY, FIELD_NAMES, RssEngine, select_fields
from .simkernel import MS, SEC, US

SCENARIO_VERSION = 1

EPHEMERAL_START = 32768
EPHEMERAL_END = 65536
# kind "worst_case" schedules one event per ring slot at setup, migrates at
# WORST_CASE_FIRE_NS and spaces the packets around it WORST_CASE_EPSILON_NS apart.
MAX_WORST_CASE_RING = 1 << 16
WORST_CASE_FIRE_NS = 50 * US
WORST_CASE_EPSILON_NS = 1
# Each row: a condition, a test of it on the scenario and the dotted paths a run leaves unread
# while it holds. `validate` refuses a value other than the default for each; `to_dict` omits them.
UNREAD = (
    # schedule's two flows have no receive calls and no app rule, the victim
    # is pinned to core 0 and its entry sits at chain position 1.
    ("kind 'worst_case'", lambda s: s.kind == "worst_case", (
        "traffic.streams", "traffic.data_packets_per_stream", "traffic.link_gbps", "traffic.burst",
        "traffic.burst_spacing_ns", "traffic.jitter_ns", "traffic.ephemeral_ports",
        "traffic.ephemeral_start", "traffic.start_spread_us", "host.syscall_cadence_us",
        "scheduler.mode", "scheduler.tick_us", "scheduler.forced_migration_period_us",
        "flow_table.num_buckets", "flow_table.max_list_size", "apps")),
    # assign_ports draws from the whole ephemeral range.
    ("traffic.ephemeral_ports 'random'", lambda s: s.traffic.ephemeral_ports == "random",
     ("traffic.ephemeral_start",)),
    # The engine schedules no tick.
    ("scheduler.mode 'pinned'", lambda s: s.scheduler.mode == "pinned", ("scheduler.tick_us",)),
    # The rotation, the balancer and power saving move only a thread with two cores or more.
    ("apps rules that each name one core", lambda s: {len(r.cores) for r in s.apps} == {1},
     ("scheduler.mode", "scheduler.forced_migration_period_us")),
)


class ScenarioError(ValueError):
    pass


class Bound:
    """The finite numbers a field may take: `low` to `high`, each end
    included unless it is open."""

    def __init__(self, low=-math.inf, high=math.inf, low_open=False, high_open=False):
        self.low, self.high, self.low_open, self.high_open = low, high, low_open, high_open

    def __contains__(self, value) -> bool:
        return (-math.inf < value < math.inf and self.low <= value <= self.high
                and not (self.low_open and value == self.low)
                and not (self.high_open and value == self.high))

    def __str__(self) -> str:
        if self.high < math.inf:
            return (f"in {'(' if self.low_open else '['}{self.low}, "
                    f"{self.high}{')' if self.high_open else ']'}")
        if self.low > -math.inf:
            return f"{'above' if self.low_open else 'at least'} {self.low}"
        return "a finite number"


class OneOf(tuple):
    """The values a field with a fixed set of them may take."""

    def __str__(self) -> str:
        return "one of " + ", ".join(map(repr, self))


FINITE = Bound()


def _most(unit: int) -> float:
    """The largest float whose product with `unit` is finite."""
    value = sys.float_info.max / unit
    while not math.isfinite(value * unit):
        value = math.nextafter(value, 0)
    return value


# Every rule on one scalar field's own value, by dotted path: `Scenario.validate`
# refuses any other value, naming the path, and a field typed `X | None` also
# takes null. Every float field has a row, so NaN, inf and a value whose
# nanoseconds overflow fail at load rather than where the run converts times
# and rates to whole ns. Rules that relate two fields or more, and those on
# lists, are written out in `validate`.
RULES = {
    "kind": OneOf(("streams", "worst_case")),
    "duration_us": Bound(0, _most(US)),
    "traffic.streams": Bound(1),
    # spawn_streams divides by these two. The link rate's floor also depends
    # on streams, packet_bytes and burst, and `validate` checks it.
    "traffic.packet_bytes": Bound(1),
    "traffic.link_gbps": Bound(0, low_open=True),
    "traffic.data_packets_per_stream": Bound(0),
    "traffic.burst": Bound(1),
    # Negative gaps or spacing would reorder a stream's own packets.
    "traffic.burst_spacing_ns": Bound(0),
    "traffic.jitter_ns": Bound(0),
    "traffic.handshake_gap_us": Bound(0, _most(US)),
    "traffic.start_spread_us": Bound(0, _most(US)),
    "traffic.ephemeral_ports": OneOf(("sequential", "random")),
    "traffic.ephemeral_start": Bound(0),
    # The least rate whose service time, 1e9 / rate ns, is finite.
    "host.service_rate_pps": Bound(SEC / sys.float_info.max),
    "host.ack_every": Bound(1),
    "host.syscall_cadence_us": Bound(0, _most(US)),
    "scheduler.mode": OneOf(("pinned", "peak_performance", "power_saving")),
    # At least 1 ns: a period that truncates to 0 ns would reschedule itself
    # at the same instant forever. A pinned scenario keeps the default tick.
    "scheduler.tick_us": Bound(1 / US, _most(US)),
    "scheduler.forced_migration_period_us": Bound(1 / US, _most(US)),
    "nic.mode": OneOf(("rss", "flowsteer")),
    "nic.ring_capacity": Bound(1),
    "flow_table.num_buckets": Bound(1),
    "flow_table.max_list_size": Bound(1),
    "flow_table.max_entries": Bound(1),
    # Under 2**63 ns: a held packet waits at most this long, and
    # Nic.hold_delays keeps each wait as a signed 64-bit int.
    "flow_table.t_timer_us": Bound(0, 2**63 / US, high_open=True),
    # A negative idle timeout would evict every entry at its first sweep.
    "flow_table.t_delete_ms": Bound(0, _most(MS)),
    "flow_table.t_delete_pressure_ms": Bound(0, _most(MS)),
    "flow_table.pressure_threshold": Bound(0, 1, low_open=True),
}


def field_value(scenario, path: str):
    """The value of a dotted field path such as "nic.mode"."""
    value = scenario
    for name in path.split("."):
        value = getattr(value, name)
    return value


def field_type(path: str):
    """The annotation of a dotted field path such as "nic.mode"; Scenario for ""."""
    tp = Scenario
    for name in path.split(".") if path else ():
        tp = tp.FIELDS[name]
    return tp


class TrafficSpec(Record):
    streams: int = 40  # total parallel TCP streams, split across the ports
    ports: tuple[int, ...] = (5001, 6001)
    src_addr: str = "10.0.0.1"
    dst_addr: str = "10.0.0.2"
    packet_bytes: int = 1500
    data_packets_per_stream: int = 30
    link_gbps: float = 10.0  # aggregate offered load, split evenly over the streams
    burst: int = 3  # packets sent back to back
    burst_spacing_ns: int = 250
    jitter_ns: int = 0  # uniform jitter applied per burst
    ephemeral_ports: str = "sequential"  # or "random"
    ephemeral_start: int = EPHEMERAL_START
    handshake_gap_us: float = 10.0
    start_spread_us: float = 1000.0  # stream starts staggered over this window


class AppRule(Record):
    """Placement for the app threads serving the given destination ports.
    One core pins the thread; several allow scheduler migration among them."""

    ports: tuple[int, ...]
    cores: tuple[int, ...]


class HostSpec(Record):
    # Cores grouped by physical processor.
    processors: tuple[tuple[int, ...], ...] = ((0, 1), (2, 3))
    service_rate_pps: float = 3_000_000.0
    ack_every: int = 2
    syscall_cadence_us: float | None = 50.0


class SchedulerSpec(Record):
    mode: str = "pinned"
    tick_us: float = 500.0
    forced_migration_period_us: float | None = None


class NicSpec(Record):
    mode: str = "flowsteer"
    ring_capacity: int = 256
    latency_accounting: bool = False


class RssSpec(Record):
    key_hex: str | None = None  # default verification key when None
    # Queue ids, power-of-two length, looked up by the hash's low bits;
    # None: the hash mod the queue count.
    table: tuple[int, ...] | None = None
    fields: tuple[str, ...] = ("src_addr", "dst_addr", "src_port", "dst_port")


class TableSpec(Record):
    num_buckets: int = 256
    max_list_size: int = 6
    max_entries: int = 10_000
    t_timer_us: float = 100.0
    t_delete_ms: float = 1000.0
    t_delete_pressure_ms: float = 100.0
    pressure_threshold: float = 0.9


class Scenario(Record):
    name: str = "scenario"
    kind: str = "streams"  # or "worst_case"
    seed: int = 1
    duration_us: float = 30_000.0
    traffic: TrafficSpec
    nic: NicSpec
    rss: RssSpec
    flow_table: TableSpec
    host: HostSpec
    scheduler: SchedulerSpec
    apps: tuple[AppRule, ...] = (AppRule((5001,), (0,)), AppRule((6001,), (1,)))

    # ---- validation ----------------------------------------------------------

    def validate(self) -> "Scenario":
        for condition, holds, paths in UNREAD:
            for path in paths if holds(self) else ():
                section, _, name = path.rpartition(".")
                if field_value(self, path) != (default := vars(field_type(section))[name]):
                    raise ScenarioError(f"{path} is not read under {condition} and must keep "
                                        f"its default, {json.dumps(_plain(default))}")
        for path, rule in RULES.items():
            value, nullable = field_value(self, path), type(None) in get_args(field_type(path))
            if value is None and nullable:
                continue
            if isinstance(rule, Bound) and value not in FINITE:
                rule = FINITE  # name what NaN and inf lack
            if value not in rule:
                null = " or null" if nullable else ""
                raise ScenarioError(f"{path} must be {rule}{null}, not {value!r}")
        if not math.isfinite(inter_burst_ns(self.traffic)):
            raise ScenarioError(
                f"traffic.link_gbps {self.traffic.link_gbps!r} spaces each stream's bursts "
                f"more than {sys.float_info.max:g} ns apart"
            )
        # Ports go into the hash input as two bytes each.
        if not self.traffic.ports:
            raise ScenarioError("traffic.ports must name at least one port")
        stray = [p for p in self.traffic.ports if p not in range(1 << 16)]
        if stray:
            raise ScenarioError(f"traffic.ports {stray} are outside 0..65535")
        if len(set(self.traffic.ports)) != len(self.traffic.ports):
            raise ScenarioError(f"traffic.ports repeats a port: {list(self.traffic.ports)}")
        # assign_ports gives each stream its own port in the ephemeral range.
        if self.traffic.ephemeral_start + self.traffic.streams > EPHEMERAL_END:
            raise ScenarioError(
                f"traffic.ephemeral_start {self.traffic.ephemeral_start} leaves no room for "
                f"traffic.streams {self.traffic.streams} ports below {EPHEMERAL_END}")
        if not self.flow_table.t_delete_pressure_ms <= self.flow_table.t_delete_ms:
            raise ScenarioError(
                "flow_table.t_delete_pressure_ms must not exceed flow_table.t_delete_ms"
            )
        cores = [c for group in self.host.processors for c in group]
        if not cores or sorted(cores) != list(range(len(cores))):
            raise ScenarioError("host.processors must cover cores 0..n-1, n >= 1")
        if len(cores) > 256:
            # The transmit descriptor carries the core id in one byte.
            raise ScenarioError(f"host.processors lists {len(cores)} cores; at most 256 fit")
        # Every flow carries both addresses, so both must parse, and in one
        # address family: a flow is IPv4 or IPv6 end to end.
        addrs = []
        for name in ("src_addr", "dst_addr"):
            try:
                addrs.append(ipaddress.ip_address(getattr(self.traffic, name)))
            except ValueError as exc:
                raise ScenarioError(f"traffic.{name}: {exc}") from None
        if addrs[0].version != addrs[1].version:
            raise ScenarioError(
                f"traffic.dst_addr {self.traffic.dst_addr!r} is not IPv{addrs[0].version} like "
                f"traffic.src_addr {self.traffic.src_addr!r}"
            )
        # Flows the table does not steer go where these settings hash them.
        fields = self.rss.fields
        if not fields or not set(fields) <= set(FIELD_NAMES):
            raise ScenarioError(
                f"rss.fields must name some of {list(FIELD_NAMES)}, not {list(fields)}"
            )
        # Every flow has these addresses, so its hash input is this long.
        probe = select_fields(FlowKey(0, 0), fields, addrs[0].packed, addrs[1].packed)
        key, length = _rss_key(self.rss), len(probe)
        if len(key) < length + 4:
            raise ScenarioError(
                f"rss.key_hex: key of {len(key)} bytes cannot cover {length} input bytes"
            )
        table = self.rss.table
        if table is not None:
            if not table or len(table) & (len(table) - 1):
                raise ScenarioError(
                    f"rss.table has {len(table)} entries; the count must be a power of two"
                )
            stray = [q for q in table if q not in range(len(cores))]
            if stray:
                raise ScenarioError(
                    f"rss.table names queues {stray}; the host has queues 0..{len(cores) - 1}"
                )
        if self.kind == "streams":
            ruled = {}  # port -> the index of the apps rule that names it
            for i, rule in enumerate(self.apps):
                if not rule.cores:
                    raise ScenarioError(f"apps[{i}].cores must name at least one core")
                if len(set(rule.cores)) != len(rule.cores):
                    # A repeated core would make the app's processes Free on one
                    # core and count a migration per rotation that moves nothing.
                    raise ScenarioError(f"apps[{i}].cores repeats a core: {list(rule.cores)}")
                if len(set(rule.ports)) != len(rule.ports):
                    raise ScenarioError(f"apps[{i}].ports repeats a port: {list(rule.ports)}")
                for core in rule.cores:
                    if core not in cores:
                        raise ScenarioError(f"apps[{i}].cores names unknown core {core}")
                for port in rule.ports:
                    if port not in self.traffic.ports:
                        raise ScenarioError(f"apps[{i}].ports names unused port {port}")
                    # Setup would place the port's threads by one rule alone.
                    if ruled.setdefault(port, i) != i:
                        raise ScenarioError(
                            f"apps[{i}].ports names port {port}, as apps[{ruled[port]}] does"
                        )
            unruled = [p for p in self.traffic.ports if p not in ruled]
            if unruled:
                raise ScenarioError(f"traffic.ports {unruled} have no apps rule")
            return self
        # The schedule migrates the victim from core 0 to core 1 and
        # pre-loads ring_capacity - 1 packets, one event each.
        if len(cores) < 2:
            raise ScenarioError("host.processors lists 1 core; kind 'worst_case' needs 2 or more")
        if not 2 <= self.nic.ring_capacity <= MAX_WORST_CASE_RING:
            raise ScenarioError(
                f"nic.ring_capacity must be in 2..{MAX_WORST_CASE_RING} under kind "
                f"'worst_case', not {self.nic.ring_capacity}"
            )
        # The victim's final ACK must not follow the migration, and the run
        # must reach the last scripted packet, or the report measures nothing.
        ns, last = nanoseconds(self), WORST_CASE_FIRE_NS + WORST_CASE_EPSILON_NS
        if 2 * ns["handshake_gap"] > WORST_CASE_FIRE_NS:
            raise ScenarioError("traffic.handshake_gap_us must be at most "
                                f"{WORST_CASE_FIRE_NS / 2 / US} under kind 'worst_case', "
                                f"not {self.traffic.handshake_gap_us}")
        if ns["duration"] < last:
            raise ScenarioError(f"duration_us must be at least {last / US} under kind "
                                f"'worst_case', not {self.duration_us}")
        worst_case_keys(self, build_rss_engine(self))  # last: it hashes with the settings above
        return self

    def num_cores(self) -> int:
        return sum(len(group) for group in self.host.processors)

    # ---- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        d = _plain(self)
        d["version"] = SCENARIO_VERSION
        d["duration_us"] = float(self.duration_us)
        for _, holds, paths in UNREAD:
            for section, _, name in (p.rpartition(".") for p in paths if holds(self)):
                (d[section] if section else d).pop(name, None)  # a path may come twice
        return {name: value for name, value in d.items() if value != {}}  # no empty section

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Load a scenario from parsed JSON. Every key and value is checked
        against the sections' annotations; the first problem is a
        ScenarioError that names its dotted path, such as apps[0].ports."""
        if not isinstance(d, dict):
            raise ScenarioError(f"a scenario must be an object, not {_shown(d)}")
        d = dict(d)
        version = d.pop("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise ScenarioError(f"unsupported scenario version {version}")
        unknown = _unknown_keys(cls, d, "")
        if unknown:
            # A misspelt or retired key would otherwise run as the default.
            raise ScenarioError("unknown scenario keys: " + ", ".join(unknown))
        return _load_spec(cls, d, "").validate()

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _plain(value):
    """A field value as JSON data: each record a dict, each list or tuple
    converted item by item."""
    if isinstance(value, Record):
        return {name: _plain(getattr(value, name)) for name in value.FIELDS}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value


def _rss_key(rss: RssSpec) -> bytes:
    """The key `rss.key_hex` spells, or the default key when it is null."""
    try:
        return DEFAULT_RSS_KEY if rss.key_hex is None else bytes.fromhex(rss.key_hex)
    except ValueError as exc:
        raise ScenarioError(f"rss.key_hex: {exc}") from None


def build_rss_engine(scenario: Scenario) -> RssEngine:
    """The RSS engine of a validated scenario, over its packed address pair."""
    cfg, traffic = scenario.rss, scenario.traffic
    return RssEngine(ipaddress.ip_address(traffic.src_addr).packed,
                     ipaddress.ip_address(traffic.dst_addr).packed,
                     _rss_key(cfg), cfg.fields, scenario.num_cores(), cfg.table)


def nanoseconds(scenario: Scenario) -> dict:
    """Every time setting a run reads, in whole ns, by name; None for a
    period that is off, as `cadence` is under kind "worst_case", whose
    threads make no receive calls, and `tick` under scheduler mode
    "pinned". Each `_us` and `_ms` value truncates toward zero.
    `service`, the time a core takes to process one packet,
    1e9 / `host.service_rate_pps`, and `inter_burst`, a stream's burst
    period (`inter_burst_ns`), round to the nearest ns and are at least 1.
    This is the one place that converts units."""
    traffic, table, sched = scenario.traffic, scenario.flow_table, scenario.scheduler
    cadence, period = scenario.host.syscall_cadence_us, sched.forced_migration_period_us
    if scenario.kind == "worst_case":
        cadence = None
    return {
        "duration": int(scenario.duration_us * US),
        "handshake_gap": int(traffic.handshake_gap_us * US),
        "start_spread": int(traffic.start_spread_us * US),
        "cadence": None if cadence is None else int(cadence * US),
        "tick": None if sched.mode == "pinned" else int(sched.tick_us * US),
        "alternate": None if period is None else int(period * US),
        "t_timer": int(table.t_timer_us * US),
        "t_delete": int(table.t_delete_ms * MS),
        "t_delete_pressure": int(table.t_delete_pressure_ms * MS),
        "service": max(1, round(1e9 / scenario.host.service_rate_pps)),
        "inter_burst": max(1, round(inter_burst_ns(traffic))),
    }


def worst_case_keys(scenario: Scenario, rss: RssEngine) -> tuple:
    """The victim and filler flows of kind "worst_case": the first two
    ephemeral source ports to `traffic.ports[0]` whose hash lands on queue 0,
    where the schedule pre-loads its backlog."""
    if rss.table is not None and 0 not in rss.table:
        raise ScenarioError(f"rss.table {list(rss.table)} never names queue 0, where kind "
                            "'worst_case' pre-loads its backlog")
    traffic = scenario.traffic
    keys = []
    for port in range(EPHEMERAL_START, EPHEMERAL_END):
        key = FlowKey(port, traffic.ports[0])
        if rss.queue_for(key) == 0:
            keys.append(key)
            if len(keys) == 2:
                return tuple(keys)
    raise ScenarioError(f"rss.fields {list(rss.fields)} and rss.key_hex hash fewer than two "
                        "source ports to queue 0, where kind 'worst_case' pre-loads its backlog")


def _unknown_keys(spec_cls, data, prefix: str) -> list:
    """Dotted paths of the keys in `data` that `spec_cls` does not declare,
    this level's first, then those of the spec objects nested in it."""
    if not isinstance(data, dict):
        return []
    declared = spec_cls.FIELDS
    unknown = [prefix + name for name in data if name not in declared]
    for name, tp in declared.items():
        value = data.get(name)
        if is_record(tp):
            unknown += _unknown_keys(tp, value, f"{prefix}{name}.")
        elif get_origin(tp) is tuple and is_record(get_args(tp)[0]) and isinstance(
            value, (list, tuple)
        ):
            for i, item in enumerate(value):
                unknown += _unknown_keys(get_args(tp)[0], item, f"{prefix}{name}[{i}].")
    return unknown


def _load_spec(spec_cls, data: dict, path: str):
    """Build `spec_cls` from a JSON object whose keys it all declares."""
    prefix = path + "." if path else ""
    kwargs = {}
    for name, tp in spec_cls.FIELDS.items():
        if name in data:
            kwargs[name] = _load_value(tp, data[name], prefix + name)
        elif name not in vars(spec_cls) and not is_record(tp):
            raise ScenarioError(f"{prefix}{name} is missing")
    return spec_cls(**kwargs)


_EXPECTED = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _load_value(tp, value, path: str):
    """`value` as the annotation `tp` types it: int (never bool), float
    (ints accepted), bool, str, `X | None`, `tuple[X, ...]` from a list, or
    a section from an object. Floats are stored as floats and lists
    as tuples, so save and load are a byte fixpoint."""
    optional = isinstance(tp, UnionType)
    if optional:
        if value is None:
            return None
        (tp,) = [t for t in get_args(tp) if t is not type(None)]
    if is_record(tp):
        expected = "an object"
        if isinstance(value, dict):
            return _load_spec(tp, value, path)
    elif get_origin(tp) is tuple:
        expected = "a list"
        if isinstance(value, (list, tuple)):
            item = get_args(tp)[0]
            return tuple(_load_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    else:
        expected = _EXPECTED[tp]
        if tp is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
            return value
    if optional:
        expected += " or null"
    raise ScenarioError(f"{path} must be {expected}, not {_shown(value)}")


def _shown(value) -> str:
    """A value as JSON, cut short for an error message."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


# ---- stream generation ----------------------------------------------------------


def inter_burst_ns(traffic: TrafficSpec) -> float:
    """The time from the start of one burst of a stream to its next, in ns,
    with `link_gbps` shared evenly by the streams; inf when a stream's share
    is too small for a float."""
    pps = traffic.link_gbps * 1e9 / 8 / traffic.packet_bytes / traffic.streams
    return traffic.burst * 1e9 / pps if pps else math.inf


def assign_ports(traffic: TrafficSpec, rng) -> list:
    """Unique ephemeral source ports, sequential by default or drawn
    uniformly without replacement in random mode; `Scenario.validate`
    ensures the range holds them."""
    if traffic.ephemeral_ports == "random":
        return rng.sample(range(EPHEMERAL_START, EPHEMERAL_END), traffic.streams)
    return list(range(traffic.ephemeral_start, traffic.ephemeral_start + traffic.streams))


def spawn_streams(scenario: Scenario, ns: dict, rng) -> tuple:
    """Build every stream's handshake and data arrival schedule from the
    times `ns` that `nanoseconds(scenario)` gives: `(keys, blocks,
    data_counts)`, three lists indexed by stream.

    Streams split evenly across the destination ports; each gets a unique
    source port, a staggered start, a SYN / SYN-ACK / ACK exchange and then
    bursts of data packets with gapless per-flow sequence numbers. A burst
    is kept as one run of evenly spaced packets, not packet by packet.

    `keys[i]` is stream i's receive-direction key. `blocks[i]` is its
    arrival block for `Simulator.schedule_arrivals`: runs of three ints
    each, first_time, count, spacing, for `count` arrivals `spacing` ns
    apart. Its first run is the SYN, SYN-ACK and ACK, one handshake gap
    apart; one run per data burst follows, in sequence order,
    `data_counts[i]` data packets in all; when the apps make receive calls,
    a last run of one is the first call, 1 ns after the ACK. Each block is
    an `array('q')` of machine ints, or a list of Python ints when some
    value of the scenario's blocks could reach 2^63.
    """
    traffic = scenario.traffic
    ports = assign_ports(traffic, rng)
    gap, spread, duration = ns["handshake_gap"], ns["start_spread"], ns["duration"]
    inter_burst = ns["inter_burst"]

    burst = traffic.burst
    wanted = traffic.data_packets_per_stream
    spacing = traffic.burst_spacing_ns
    jitter_ns = traffic.jitter_ns
    # A burst's jitter is drawn from 0..jitter_ns exactly as
    # rng.randrange(0, jitter_ns + 1) draws it: getrandbits of the bound's
    # bit length, redrawn while out of range. getrandbits is the primitive
    # whose output for a seed Python keeps stable.
    getrandbits = rng.getrandbits
    bound = jitter_ns + 1
    bits = bound.bit_length()
    calls = ns["cadence"] is not None
    # Data times stay below the horizon and counts within `wanted`.
    last_ack = (traffic.streams - 1) * spread // traffic.streams + 2 * gap
    top = max(duration, last_ack + 1, spacing, wanted)
    new_block = partial(array, "q") if top < 2**63 else list

    keys, blocks, data_counts = [], [], []
    for i in range(traffic.streams):
        dst_port = traffic.ports[i % len(traffic.ports)]
        keys.append(FlowKey(ports[i], dst_port))
        start = (i * spread) // traffic.streams
        block = new_block((start, 3, gap))
        extend = block.extend
        left = wanted  # data packets still to place
        last = None  # the time of the stream's last data packet so far
        t = start + 3 * gap
        while left > 0 and t < duration:
            burst_t = t
            if jitter_ns:
                r = getrandbits(bits)
                while r >= bound:
                    r = getrandbits(bits)
                burst_t += r
            # Bursts never overlap: per-flow arrival times never decrease
            # (equal times dispatch in sequence order), so source order
            # equals sequence order.
            if last is not None and burst_t < last + spacing:
                burst_t = last + spacing
            # Spacing is non-negative, so the arrivals before the horizon
            # are a prefix of the burst.
            count = burst if burst < left else left
            if burst_t + (count - 1) * spacing >= duration:
                count = 0 if burst_t >= duration else (duration - burst_t - 1) // spacing + 1
            if count:
                extend((burst_t, count, spacing))
                last = burst_t + (count - 1) * spacing
                left -= count
            t += inter_burst
        if calls:
            extend((start + 2 * gap + 1, 1, 0))
        blocks.append(block)
        data_counts.append(wanted - left)
    return keys, blocks, data_counts

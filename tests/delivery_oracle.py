"""Per-delivery logs, and the delivery figures computed from them.

The engine tallies a run's delivery figures while the run goes
(`steersim.host.Host._deliver`) and keeps no log. `record_deliveries`
makes every host log its deliveries as well, and the functions below
compute the figures a second way, by scanning those logs, so that tests
can check one against the other. `delivered` maps each flow key to its
`DeliveryLog`, in socket order.
"""

from array import array
from operator import ne
from typing import NamedTuple

from steersim.flows import ACK, DATA, KINDS
from steersim.host import Host

# DeliveryLog keeps the kind as a one-byte code: an index into KINDS.
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_DATA = KIND_CODE[DATA]


class DeliveryRecord(NamedTuple):
    seq: int
    t: int
    core: int
    app_core: int
    kind: str


class DeliveryLog:
    """One flow's deliveries in arrival order, one column per field.

    `seq` and `t` are `array('q')`. The one-byte fields are `bytearray`s:
    `core` and `app_core` (`Scenario.validate` caps a host at 256 cores),
    and `kind` as a code into `flows.KINDS`. The scans below read the
    columns. Indexing or iterating builds a `DeliveryRecord` per record on
    demand.
    """

    __slots__ = ("seq", "t", "core", "app_core", "kind")

    def __init__(self):
        self.seq = array("q")
        self.t = array("q")
        self.core = bytearray()
        self.app_core = bytearray()
        self.kind = bytearray()

    def append(self, seq: int, t: int, core: int, app_core: int, kind: str):
        """Append one record, fields in DeliveryRecord order."""
        self.seq.append(seq)
        self.t.append(t)
        self.core.append(core)
        self.app_core.append(app_core)
        self.kind.append(KIND_CODE[kind])

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, i: int) -> DeliveryRecord:
        return DeliveryRecord(self.seq[i], self.t[i], self.core[i], self.app_core[i],
                              KINDS[self.kind[i]])

    def __iter__(self):
        return map(DeliveryRecord, self.seq, self.t, self.core, self.app_core,
                   map(KINDS.__getitem__, self.kind))


def record_deliveries(monkeypatch) -> dict:
    """Make every `Host` log each delivery, until `monkeypatch` is undone.

    Returns the logs, flow key -> DeliveryLog, filled as deliveries happen:
    a flow's log appears at its first delivery. Clear the dict between
    runs that share flow keys; `in_socket_order` puts one run's logs in
    the order of its host's sockets.

    The host delivers a frame by its `seq` alone, so the kind is derived
    from it: DATA for `seq >= 0`, and ACK for every control frame, whose
    seq is -1, the SYN included.
    """
    logs = {}
    deliver = Host._deliver

    def recorded(host, seq, sock, core_id, now):
        log = logs.get(sock.key)
        if log is None:
            log = logs[sock.key] = DeliveryLog()
        log.append(seq, now, core_id, sock.core, DATA if seq >= 0 else ACK)
        deliver(host, seq, sock, core_id, now)

    monkeypatch.setattr(Host, "_deliver", recorded)
    return logs


def in_socket_order(logs: dict, host: Host) -> dict:
    """`logs` for every socket of `host`, in socket order; a flow that had
    no delivery gets an empty log."""
    return {key: logs.get(key) or DeliveryLog() for key in host.sockets}


def reordering_ratio(delivered: dict) -> float:
    """Fraction of delivered data packets whose sequence number is below the
    running maximum already delivered for that flow."""
    total = 0
    inversions = 0
    for log in delivered.values():
        high = -1
        for seq, kind in zip(log.seq, log.kind):
            if kind != _DATA:
                continue
            total += 1
            if seq < high:
                inversions += 1
            else:
                high = seq
    return inversions / total if total else 0.0


def affinity_scores(delivered: dict, warm_up_end: dict) -> tuple:
    """(flow_affinity, data_affinity) over post-warm-up data deliveries.

    flow_affinity: per flow, the fraction of packets processed on the flow's
    modal core, averaged over flows. data_affinity: fraction of packets
    processed on the core the application occupied at that moment.
    """
    per_flow_scores = []
    on_app_core = 0
    total = 0
    for key, log in delivered.items():
        cutoff = warm_up_end.get(key, -1)
        counts = {}
        scored = 0
        for t, core, app_core, kind in zip(log.t, log.core, log.app_core, log.kind):
            if kind != _DATA or t <= cutoff:
                continue
            counts[core] = counts.get(core, 0) + 1
            scored += 1
            if core == app_core:
                on_app_core += 1
        if scored:
            total += scored
            per_flow_scores.append(max(counts.values()) / scored)
    flow_affinity = (
        sum(per_flow_scores) / len(per_flow_scores) if per_flow_scores else 1.0
    )
    data_affinity = on_app_core / total if total else 1.0
    return flow_affinity, data_affinity


def contention_proxy(delivered: dict, processor_of, warm_up_end: dict) -> dict:
    """Simulator-observable stand-ins for cross-core contention.

    cross_core_packets counts packets delivered after the flow's warm-up on
    another core than the app occupied at that moment, and
    cross_processor_packets those of them on another processor;
    `processor_of` maps a core id to its processor id. alternations counts
    consecutive same-flow deliveries on different cores.
    """
    cross = 0
    cross_processor = 0
    alternations = 0
    for key, log in delivered.items():
        cutoff = warm_up_end.get(key, -1)
        cores = log.core
        for t, core, app_core in zip(log.t, cores, log.app_core):
            if t > cutoff and core != app_core:
                cross += 1
                if processor_of[core] != processor_of[app_core]:
                    cross_processor += 1
        alternations += sum(map(ne, cores, cores[1:]))
    return {
        "cross_core_packets": cross,
        "cross_processor_packets": cross_processor,
        "alternations": alternations,
    }


def warm_up_end(delivered: dict, flush_times: dict) -> dict:
    """Per flow, the end of its steering warm-up: the time of its last
    hold-timer flush (`flush_times`, by flow key) if it had one, else of
    its first delivery, else -1. Before it the NIC cannot yet know the
    app's core."""
    out = {}
    for key, log in delivered.items():
        if key in flush_times:
            out[key] = flush_times[key]
        elif log:
            out[key] = log.t[0]
        else:
            out[key] = -1
    return out


def delivery_figures(delivered: dict, processor_of, flush_times: dict) -> dict:
    """The report's delivery figures, by report field name, from the logs."""
    warm_up = warm_up_end(delivered, flush_times)
    flow_affinity, data_affinity = affinity_scores(delivered, warm_up)
    return {
        "delivered_data": sum(log.kind.count(_DATA) for log in delivered.values()),
        "reordering_ratio": reordering_ratio(delivered),
        "flow_affinity": flow_affinity,
        "data_affinity": data_affinity,
        **contention_proxy(delivered, processor_of, warm_up),
    }

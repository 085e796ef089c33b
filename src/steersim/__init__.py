"""Discrete-event simulator of multi-queue NIC receive steering.

Models a NIC with per-core receive queues under two steering policies:
classic RSS hashing, and a flow-to-core table that learns where each flow's
application runs from the core id on its outgoing packets and holds packets
briefly across core changes to keep delivery in order.
"""

from .flows import FlowKey
from .runner import Engine, RunResult, run_scenario
from .workload import Scenario

__all__ = [
    "Engine",
    "FlowKey",
    "RunResult",
    "Scenario",
    "run_scenario",
]

__version__ = "0.1.0"

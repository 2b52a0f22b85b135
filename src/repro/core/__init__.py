"""Hamava core: the reconfigurable clustered replication meta-protocol.

The public surface of this package is:

* :class:`~repro.core.replica.HamavaReplica` — one replica of the replicated
  system, orchestrating the three stages of each round (intra-cluster
  replication, inter-cluster communication, execution), each owned by one
  component of :mod:`repro.core.replica`.
* :class:`~repro.core.config.HamavaConfig` and
  :class:`~repro.core.config.SystemConfig` — protocol and deployment
  configuration.
* The protocol sub-components, usable on their own:
  :class:`~repro.core.brd.ByzantineReliableDissemination` (Alg. 5/6),
  :class:`~repro.core.remote_leader_change.RemoteLeaderChange` (Alg. 2),
  :class:`~repro.core.reconfiguration.ReconfigurationCollector` and
  :class:`~repro.core.reconfiguration.Requester` (Alg. 3).
"""

from repro.core.config import ClusterSpec, HamavaConfig, SystemConfig
from repro.core.replica import ByzantineBehavior, HamavaReplica
from repro.core.statemachine import ExecutionLedger, KeyValueStore
from repro.core.types import (
    OperationsBundle,
    ReconfigRequest,
    Transaction,
    join_request,
    leave_request,
)

__all__ = [
    "ByzantineBehavior",
    "ClusterSpec",
    "ExecutionLedger",
    "HamavaConfig",
    "HamavaReplica",
    "KeyValueStore",
    "OperationsBundle",
    "ReconfigRequest",
    "SystemConfig",
    "Transaction",
    "join_request",
    "leave_request",
]

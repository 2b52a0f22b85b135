"""Network substrate: messages, simulated crypto, links, and geo latency.

This package provides the communication abstractions the paper assumes:

* authenticated perfect point-to-point links (``apl``),
* authenticated best-effort broadcast (``abeb``),
* signatures and quorum certificates,
* a geo-latency model seeded with the paper's Table II inter-region RTTs.

Everything runs on top of the discrete-event simulator; no sockets are used.
"""

from repro.net.crypto import Certificate, KeyRegistry, Signature
from repro.net.latency import REGION_RTT_MS, LatencyModel, Region
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Envelope, Message
from repro.net.network import Network

__all__ = [
    "AuthenticatedBestEffortBroadcast",
    "AuthenticatedPerfectLink",
    "Certificate",
    "Envelope",
    "KeyRegistry",
    "LatencyModel",
    "Message",
    "Network",
    "Region",
    "REGION_RTT_MS",
    "Signature",
]

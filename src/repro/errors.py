"""Exception hierarchy for the Hamava reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at the public-API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A deployment, cluster, or protocol configuration is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class NetworkError(ReproError):
    """A message could not be routed (unknown node, detached network, ...)."""


class CryptoError(ReproError):
    """A signature or certificate failed verification."""


class ProtocolError(ReproError):
    """A protocol invariant was violated by local code (not by a peer).

    Byzantine peer behaviour is *not* reported through exceptions: invalid
    messages from peers are dropped, as the protocols prescribe.  This error
    signals a bug in the local implementation instead.
    """


class AgreementViolation(ProtocolError):
    """Two replicas executed different operations at the same position.

    Raised by the shard's execution ledger the moment a replica's next
    executed entry differs from what another replica recorded there: the
    Agreement / Total-order property of the replicated state machine is
    broken, which no fault the simulator injects is allowed to cause.
    """


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""

"""Authenticated links, the two communication primitives the paper assumes.

* ``apl`` — authenticated perfect point-to-point links: messages carry the
  sender's signature; the transport drops forged envelopes; between correct
  processes, every sent message is eventually delivered exactly once (the
  simulator has no spontaneous loss; loss is only injected by drop rules).
* ``abeb`` — authenticated best-effort broadcast: sends the same signed
  payload over ``apl`` to every member of a group (including the sender, so
  local delivery of one's own broadcast is uniform with remote delivery).

Every envelope is signed through :meth:`KeyRegistry.sign_message`, which is
lazy in the payload digest: sending allocates the signature but does not
walk the payload.  The transport's authenticity check never needs the
digest (a registry-minted signature answers from its ``verified_by``
memo), so the walk happens only for the envelopes whose signature a
protocol keeps and later compares — the remote leader change's
``LComplaint`` quorum.  That deferral is sound because a payload is never
mutated after it is handed to the network (see :mod:`repro.net.message`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.net.message import Message
from repro.net.network import Network


class AuthenticatedPerfectLink:
    """Point-to-point sending on behalf of one process.

    Args:
        owner: Process id of the sender.
        network: The network to route through.
    """

    def __init__(self, owner: str, network: Network) -> None:
        self.owner = owner
        self.network = network

    def send(self, destination: str, payload: Message) -> None:
        """Send ``payload`` to ``destination`` under the owner's signature.

        The signature is lazy (no digest walk here; see the module
        docstring).  A self-addressed send skips it entirely: it takes the
        0 ms loop-back, which never verifies, and a process trusts its own
        payloads.  (Broadcasts still sign once for the whole group — group
        protocols such as the remote leader change keep the envelope
        signature of their *own* loop-back copy.)
        """
        network = self.network
        owner = self.owner
        network.multicast(
            owner,
            (destination,),
            payload,
            None if destination == owner else network.registry.sign_message(owner, payload),
        )

    def send_many(self, destinations: Sequence[str], payload: Message) -> None:
        """Sign once and send the payload to several destinations."""
        network = self.network
        network.multicast(
            self.owner,
            destinations,
            payload,
            network.registry.sign_message(self.owner, payload),
        )


class AuthenticatedBestEffortBroadcast:
    """Broadcast within a (dynamic) group on behalf of one process.

    The group is supplied by a callable so it always reflects the current
    cluster membership — essential once reconfiguration changes ``C_i``.
    """

    def __init__(
        self,
        owner: str,
        network: Network,
        group: Callable[[], Iterable[str]],
        include_self: bool = True,
    ) -> None:
        self.owner = owner
        self.network = network
        self._group = group
        self.include_self = include_self

    def members(self) -> Sequence[str]:
        """Current broadcast group.

        The group callable usually satisfies the ``members_fn`` contract
        (a sorted tuple the supplier caches); when no adjustment is needed
        it is passed through without copying.
        """
        members = self._group()
        if not self.include_self:
            return [m for m in members if m != self.owner]
        if self.owner not in members:
            return (*members, self.owner)
        return members

    def broadcast(self, payload: Message) -> None:
        """Sign and send ``payload`` to every current group member."""
        signature = self.network.registry.sign_message(self.owner, payload)
        self.network.multicast(self.owner, self.members(), payload, signature)


__all__ = ["AuthenticatedBestEffortBroadcast", "AuthenticatedPerfectLink"]

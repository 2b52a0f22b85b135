"""Authenticated links, the two communication primitives the paper assumes.

* ``apl`` — authenticated perfect point-to-point links: messages carry the
  sender's signature; the transport drops forged envelopes; between correct
  processes, every sent message is eventually delivered exactly once (the
  simulator has no spontaneous loss; loss is only injected by drop rules).
* ``abeb`` — authenticated best-effort broadcast: sends the same signed
  payload over ``apl`` to every member of a group (including the sender, so
  local delivery of one's own broadcast is uniform with remote delivery).

Every signed send goes out under its owner's :class:`~repro.net.crypto.LinkSeal`,
made once per process by :meth:`KeyRegistry.link_seal`: the send counts one
``envelope_signatures`` (:meth:`LinkSeal.stamp`) and hands the seal to the
network in place of a signature, so it allocates no signature object and
walks no payload.  The transport's authenticity check answers from the
seal's ``verified_by`` memo.  The envelope turns the seal into a lazy
:class:`~repro.net.crypto.MessageSignature`, equal to
``registry.sign(owner, payload.digest())``, the first time something reads
``Envelope.signature``, and that signature walks the payload digest only
when its ``digest`` is read — today only for the remote leader change's
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
        self.seal = network.registry.link_seal(owner)

    def send(self, destination: str, payload: Message) -> None:
        """Send ``payload`` to ``destination`` under the owner's seal.

        The seal stands for the signature until something reads it (see
        the module docstring).  A self-addressed send is not signed at all:
        it takes the 0 ms loop-back, which never verifies, and a process
        trusts its own payloads.  (Broadcasts still seal the whole group's
        envelope — group protocols such as the remote leader change keep
        the envelope signature of their *own* loop-back copy.)
        """
        owner = self.owner
        if destination == owner:
            self.network.multicast(owner, (destination,), payload, None)
            return
        self.network.multicast(owner, (destination,), payload, self.seal.stamp())

    def send_many(self, destinations: Sequence[str], payload: Message) -> None:
        """Send the payload to several destinations in one sealed envelope."""
        self.network.multicast(self.owner, destinations, payload, self.seal.stamp())


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
        self.seal = network.registry.link_seal(owner)
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
        """Send ``payload`` to every current group member in one sealed envelope."""
        self.network.multicast(self.owner, self.members(), payload, self.seal.stamp())


__all__ = ["AuthenticatedBestEffortBroadcast", "AuthenticatedPerfectLink"]

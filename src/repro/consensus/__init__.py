"""Local consensus substrates ("local ordering" in the paper).

Hamava is agnostic to the local replication protocol; the paper instantiates
it with HotStuff (AVA-HOTSTUFF) and BFT-SMaRt (AVA-BFTSMART).  This package
provides three engines — basic HotStuff, its chained two-round variant (a
subclass of the same core) and BFT-SMaRt — as strategies over the shared
:class:`TotalOrderBroadcast` skeleton, plus the round-robin leader-election
module of Alg. 9.
"""

from repro.consensus.bftsmart import BftSmartEngine
from repro.consensus.hotstuff import HotStuffEngine
from repro.consensus.hotstuff_chained import ChainedHotStuffEngine
from repro.consensus.interface import (
    Decision,
    TotalOrderBroadcast,
    commit_digest,
)
from repro.consensus.leader_election import LeaderElection
from repro.consensus.registry import ENGINES, make_engine

__all__ = [
    "BftSmartEngine",
    "ChainedHotStuffEngine",
    "Decision",
    "ENGINES",
    "HotStuffEngine",
    "LeaderElection",
    "TotalOrderBroadcast",
    "commit_digest",
    "make_engine",
]

"""Registry of available local-ordering engines.

Hamava is consensus-agnostic; deployments select the engine by name:
"hotstuff" (AVA-HOTSTUFF), "hotstuff_chained" (the same core on the two-round
chained schedule) or "bftsmart" (AVA-BFTSMART).
"""

from __future__ import annotations

from typing import Dict, Type

from repro.consensus.bftsmart import BftSmartEngine
from repro.consensus.hotstuff import HotStuffEngine
from repro.consensus.hotstuff_chained import ChainedHotStuffEngine
from repro.consensus.interface import TotalOrderBroadcast
from repro.errors import ConfigurationError

#: Mapping from engine name to engine class.
ENGINES: Dict[str, Type[TotalOrderBroadcast]] = {
    "hotstuff": HotStuffEngine,
    "hotstuff_chained": ChainedHotStuffEngine,
    "bftsmart": BftSmartEngine,
}


def make_engine(name: str, *args, **kwargs) -> TotalOrderBroadcast:
    """Instantiate the engine registered under ``name``.

    Raises:
        ConfigurationError: If no engine is registered under that name.
    """
    key = name.lower()
    if key not in ENGINES:
        raise ConfigurationError(
            f"unknown consensus engine {name!r}; available: {sorted(ENGINES)}"
        )
    return ENGINES[key](*args, **kwargs)


__all__ = ["ENGINES", "make_engine"]

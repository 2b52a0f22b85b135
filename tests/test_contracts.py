"""Class-level contracts of the runtime, checked on the live classes.

Hot-path classes allocate no per-instance ``__dict__``, and every protocol
message is its own dataclass and registered where a replica or an engine
routes it.  The third message contract (a certificate-carrying message
bills its verification) sits in ``test_lazy_signatures.py``, next to the
populated instance of every message class it needs.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.consensus.leader_election import LeaderElection
from repro.consensus.registry import ENGINES
from repro.core.brd import ByzantineReliableDissemination
from repro.core.messages import CORE_MESSAGE_TYPES
from repro.core.statemachine import ExecutionLedger, ExecutionPlan, KeyValueStore, LedgerView
from repro.harness.metrics import TransactionRecord
from repro.net.crypto import MessageSignature, Signature
from repro.net.message import Envelope, Message
from repro.net.network import _Port
from repro.sim.events import Event, EventQueue
from repro.sim.simulator import DeadlinePool, PooledTimer, Timer

#: Classes allocated per event, message, signature, batch or operation.  A
#: ``__dict__`` costs each instance ~100 bytes and a pointer chase on every
#: attribute read.  (``Message`` is not listed: its digest and size memos
#: live in the instance ``__dict__``.)
HOT_PATH_CLASSES = (
    Event,
    EventQueue,
    Timer,
    DeadlinePool,
    PooledTimer,
    Envelope,
    Signature,
    MessageSignature,
    _Port,
    ExecutionLedger,
    ExecutionPlan,
    LedgerView,
    KeyValueStore,
    TransactionRecord,
)


@pytest.mark.parametrize("cls", HOT_PATH_CLASSES, ids=lambda cls: cls.__name__)
def test_hot_path_class_has_no_instance_dict(cls):
    assert cls.__dictoffset__ == 0, f"{cls.__name__} allocates a per-instance __dict__"


def _runtime_message_classes():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = [], list(Message.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return sorted(set(found), key=lambda cls: (cls.__module__, cls.__qualname__))


def test_every_message_is_its_own_dataclass_and_registered():
    registered = set(CORE_MESSAGE_TYPES)
    registered.update(LeaderElection.MESSAGE_TYPES, ByzantineReliableDissemination.MESSAGE_TYPES)
    for engine in ENGINES.values():
        registered.update(engine.MESSAGE_TYPES)
    classes = _runtime_message_classes()
    assert len(classes) >= 35
    # The compiled digest walker enumerates ``fields()``: a subclass that is
    # not itself a dataclass digests only its parent's fields.
    assert [cls.__name__ for cls in classes if "__dataclass_fields__" not in vars(cls)] == []
    # An unregistered message has no handler on any replica.
    assert [cls.__name__ for cls in classes if cls not in registered] == []

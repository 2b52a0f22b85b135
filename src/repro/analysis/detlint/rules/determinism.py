"""Determinism rules: DET001–DET005.

These guard the dynamic invariants the parity suites and the determinism
probe enforce at runtime — same seed ⇒ same bytes, same results under
every shard layout — by flagging the static patterns that historically
break them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.detlint.config import LintConfig
from repro.analysis.detlint.findings import Finding
from repro.analysis.detlint.rules.base import ModuleFile, Rule, register

# ---------------------------------------------------------------------- #
# DET001 — wall clock / host entropy
# ---------------------------------------------------------------------- #
#: Exact call targets that read the host clock or entropy pool.
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
    }
)


@register
class WallClockRule(Rule):
    """DET001: simulation code must live on virtual time only.

    A ``time.time()`` (or ``datetime.now`` / ``os.urandom`` / ``uuid``)
    inside the simulated system injects the *host's* clock or entropy into
    results: two identically seeded runs diverge, and the fixed-seed
    fingerprint gate turns red with no pointer to why.  Only the harness —
    which measures real wall-clock cost (``ResultRow.wall_seconds``) — and
    the offline analysis tools may read the host clock.
    """

    code = "DET001"
    title = "wall-clock/entropy call in simulation code"
    hint = "use the kernel's virtual clock (simulator.now) or a SeededRng stream"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.in_package(module.module_rel):
            return
        if module.module_rel.startswith(config.wallclock_exempt):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve_call_name(node.func)
            if name in _WALLCLOCK_CALLS or name.startswith("secrets."):
                yield self.finding(module, node, f"call to {name}() reads host clock/entropy")


# ---------------------------------------------------------------------- #
# DET002 — raw random streams outside sim/rng.py
# ---------------------------------------------------------------------- #
@register
class RawRandomRule(Rule):
    """DET002: every stream derives from ``sim/rng.py``.

    A bare ``random.Random(seed)`` (or module-global ``random.random()``)
    bypasses the namespaced seed-derivation scheme: its stream is not a
    function of the component's name, so its draw sequence depends on which
    other components share it — global event order in the serial kernel,
    one worker's slice of it when forked — and breaks serial-vs-forked
    parity.
    Simulation-time draws go through ``SeededRng``; configuration-time
    data synthesis goes through ``config_rng`` (same module), which keeps
    every generator construction site in one audited file.
    """

    code = "DET002"
    title = "raw random stream constructed/used outside sim/rng.py"
    hint = "draw from a repro.sim.rng.SeededRng stream (or config_rng for config-time synthesis)"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.in_package(module.module_rel):
            return
        if module.module_rel == config.rng_home or module.module_rel.startswith(config.rng_exempt):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random" and node.level == 0:
                names = ", ".join(alias.name for alias in node.names)
                yield self.finding(module, node, f"imports {names} from the global random module")
            elif isinstance(node, ast.Call):
                name = module.resolve_call_name(node.func)
                if name.startswith("random."):
                    yield self.finding(module, node, f"call to {name}() uses the global random module")


# ---------------------------------------------------------------------- #
# DET003 — unordered set iteration on scheduling paths
# ---------------------------------------------------------------------- #
#: Consumers whose result does not depend on iteration order.
_ORDER_FREE_CONSUMERS = frozenset({"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"})
#: Converters that freeze the (hash-dependent) iteration order into a sequence.
_ORDER_SENSITIVE_CONVERTERS = frozenset({"list", "tuple", "enumerate"})
#: Set methods returning another set.
_SET_PRODUCING_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference", "copy"})
#: Annotation names denoting a set type.
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})


def _iter_scope_children(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's body without descending into nested scopes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield from _iter_scope_children(child)


def _annotation_kind(annotation: Optional[ast.expr]) -> Optional[str]:
    """``"set"``/``"dict_of_sets"`` if an annotation denotes one, else ``None``."""
    if annotation is None:
        return None
    target = annotation
    if isinstance(target, ast.Subscript):
        base = target.value
        base_name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if base_name in _SET_ANNOTATIONS:
            return "set"
        if base_name in ("Dict", "dict", "Mapping", "MutableMapping", "DefaultDict"):
            if isinstance(target.slice, ast.Tuple) and len(target.slice.elts) == 2:
                if _annotation_kind(target.slice.elts[1]) == "set":
                    return "dict_of_sets"
        return None
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    if name in _SET_ANNOTATIONS:
        return "set"
    return None


class _SetScope:
    """One lexical scope's set-typed bindings (names and ``self.attr``s)."""

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}  # name -> "set" | "dict_of_sets"

    def bind(self, name: str, kind: Optional[str]) -> None:
        if kind is not None:
            self.names[name] = kind


@register
class SetIterationRule(Rule):
    """DET003: set iteration order is a scheduling-order hazard.

    In the shard-owned packages every iteration either schedules work,
    sends messages, or builds sequences others iterate — and ``set``
    iteration order is the string-hash order, which ``PYTHONHASHSEED``
    re-randomizes per process.  A bare ``for x in some_set`` can therefore
    produce different event interleavings across runs (and across the
    forked shard workers), which is exactly the divergence the byte-parity
    gates exist to catch — minus the pointer to the offending line that
    this rule provides.  Wrap the iteration in ``sorted(...)`` or keep the
    collection a dict/list (insertion-ordered) instead.
    """

    code = "DET003"
    title = "iteration over a set without sorted()"
    hint = "iterate sorted(<set>) or restructure onto an insertion-ordered dict/list"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.is_shard_owned(module.module_rel):
            return
        self._module = module
        # Pre-mark every order-free consumer's arguments so comprehension
        # checks can pardon `sorted(x for x in some_set)`.
        self._order_free_args: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_FREE_CONSUMERS:
                    for arg in node.args:
                        self._order_free_args.add(id(arg))
        # Class-attribute tables: ClassDef id -> {"attr": kind}, harvested
        # from every method body so ``self._x = set()`` in __init__ covers
        # uses in later methods.
        self._class_attrs: Dict[int, Dict[str, str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._class_attrs[id(node)] = self._harvest_class_attrs(node)
        module_scope = _SetScope()
        self._harvest_bindings(module.tree, module_scope)
        yield from self._check_scope(module.tree, [module_scope], [])

    # -- binding harvest ------------------------------------------------ #
    def _harvest_class_attrs(self, class_node: ast.ClassDef) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in _iter_scope_children(method):
                kind: Optional[str] = None
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    kind = self._value_kind(stmt.value, [], [])
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    kind = _annotation_kind(stmt.annotation)
                    targets = [stmt.target]
                if kind is None:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs[target.attr] = kind
        return attrs

    def _harvest_bindings(self, scope_node: ast.AST, scope: _SetScope) -> None:
        """Record set-typed names assigned directly in one scope."""
        if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in list(scope_node.args.args) + list(scope_node.args.kwonlyargs):
                scope.bind(arg.arg, _annotation_kind(arg.annotation))
        for stmt in _iter_scope_children(scope_node):
            if isinstance(stmt, ast.Assign):
                kind = self._value_kind(stmt.value, [scope], [])
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        scope.bind(target.id, kind)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                kind = _annotation_kind(stmt.annotation)
                if kind is None and stmt.value is not None:
                    kind = self._value_kind(stmt.value, [scope], [])
                scope.bind(stmt.target.id, kind)

    # -- type lookup ----------------------------------------------------- #
    def _value_kind(
        self, value: ast.expr, scopes: List[_SetScope], class_stack: List[ast.ClassDef]
    ) -> Optional[str]:
        if self._is_set_expr(value, scopes, class_stack):
            return "set"
        return None

    def _is_set_expr(
        self, node: ast.expr, scopes: List[_SetScope], class_stack: List[ast.ClassDef]
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
                and self._is_set_expr(func.value, scopes, class_stack)
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            for scope in reversed(scopes):
                if scope.names.get(node.id) == "set":
                    return True
            return False
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                for class_node in reversed(class_stack):
                    if self._class_attrs.get(id(class_node), {}).get(node.attr) == "set":
                        return True
            return False
        if isinstance(node, ast.Subscript):
            return self._is_dict_of_sets(node.value, scopes, class_stack)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left, scopes, class_stack)
        return False

    def _is_dict_of_sets(
        self, node: ast.expr, scopes: List[_SetScope], class_stack: List[ast.ClassDef]
    ) -> bool:
        if isinstance(node, ast.Name):
            return any(scope.names.get(node.id) == "dict_of_sets" for scope in reversed(scopes))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
            return any(
                self._class_attrs.get(id(c), {}).get(node.attr) == "dict_of_sets"
                for c in reversed(class_stack)
            )
        return False

    # -- flagging --------------------------------------------------------- #
    def _check_scope(
        self, scope_node: ast.AST, scopes: List[_SetScope], class_stack: List[ast.ClassDef]
    ) -> Iterator[Finding]:
        for stmt in _iter_scope_children(scope_node):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(stmt.iter, scopes, class_stack):
                    yield self._flag(stmt.iter)
            elif isinstance(stmt, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in stmt.generators:
                    if self._is_set_expr(generator.iter, scopes, class_stack):
                        if not self._consumed_order_free(stmt):
                            yield self._flag(generator.iter)
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_CONVERTERS
                    and stmt.args
                    and self._is_set_expr(stmt.args[0], scopes, class_stack)
                ):
                    yield self._flag(stmt.args[0])
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = _SetScope()
                self._harvest_bindings(stmt, inner)
                yield from self._check_scope(stmt, scopes + [inner], class_stack)
            elif isinstance(stmt, ast.ClassDef):
                yield from self._check_scope(stmt, scopes, class_stack + [stmt])

    def _consumed_order_free(self, comp_node: ast.AST) -> bool:
        return id(comp_node) in self._order_free_args

    def _flag(self, node: ast.expr) -> Finding:
        return self.finding(
            self._module,
            node,
            "iterates a set in hash order (PYTHONHASHSEED-dependent) on a shard-owned path",
        )

    # Populated per module in check_module before traversal begins.
    _order_free_args: Set[int] = set()


# ---------------------------------------------------------------------- #
# DET004 — module-level mutable state in shard-owned packages
# ---------------------------------------------------------------------- #
_MUTABLE_CONSTRUCTORS = frozenset({"set", "dict", "list", "defaultdict", "OrderedDict", "Counter", "deque"})


@register
class ModuleStateRule(Rule):
    """DET004: module globals escape the deployment that should own them.

    A ``Deployment`` owns *all* mutable simulation state — that contract is
    what makes a forked worker's slice of a run equal the serial run's.  A
    module-level dict/list/set is outside it: the serial kernel reads and
    writes one object for every cluster (and hands it on to the next run in
    the process), while each forked worker mutates a private copy — two
    executions of "the same" state that can diverge.  Pure memo caches of
    deterministic values (digest interning, per-class walkers) are
    parity-safe and carry inline suppressions with their rationale;
    anything else must move into deployment-owned state.
    """

    code = "DET004"
    title = "module-level mutable state in a shard-owned package"
    hint = "move onto a deployment-owned object, or sanction a pure memo with an inline disable + rationale"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.is_shard_owned(module.module_rel):
            return
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
                value = stmt.value
            else:
                continue
            if not targets:
                continue
            verdict = self._mutable_kind(value)
            if verdict is None:
                continue
            empty, kind = verdict
            for target in targets:
                # Dunders (__all__ and friends) are interpreter/tooling
                # protocol, not simulation state; non-empty UPPER_CASE
                # literals are constant tables (RTT matrices, alias maps) —
                # read-only by convention.
                if target.id.startswith("__") and target.id.endswith("__"):
                    continue
                if not empty and target.id.isupper():
                    continue
                what = f"empty {kind} cache" if empty else f"mutable {kind}"
                yield self.finding(
                    module,
                    stmt,
                    f"module-level {what} {target.id!r} is shared across shards",
                    context=target.id,
                )

    @staticmethod
    def _mutable_kind(value: ast.expr) -> Optional[Tuple[bool, str]]:
        """``(is_empty, kind)`` for mutable initializers, else ``None``."""
        if isinstance(value, ast.Dict):
            return (not value.keys, "dict")
        if isinstance(value, ast.List):
            return (not value.elts, "list")
        if isinstance(value, ast.Set):
            return (False, "set")
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in _MUTABLE_CONSTRUCTORS:
                return (not value.args and not value.keywords, name)
        return None


# ---------------------------------------------------------------------- #
# DET005 — id()/hash() in ordering or keying
# ---------------------------------------------------------------------- #
@register
class IdentityOrderRule(Rule):
    """DET005: CPython object identity is an address, not a value.

    ``id(x)`` is the allocation address — different every run, different
    in every forked shard worker — so any ordering or keying built on it
    (or on ``hash()`` inside a sort key, which for strings is
    ``PYTHONHASHSEED``-randomized) is nondeterministic by construction.
    Key and sort on stable value identities (replica ids, sequence
    numbers, digests) instead.
    """

    code = "DET005"
    title = "id()/hash() used for ordering or keying"
    hint = "order/key on stable value identity (ids, sequence numbers, digests)"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.is_shard_owned(module.module_rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "id":
                yield self.finding(module, node, "id() is a per-run allocation address")
                continue
            # hash() inside a sorted/min/max call or a .sort key.
            is_order_call = (isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")) or (
                isinstance(func, ast.Attribute) and func.attr == "sort"
            )
            if not is_order_call:
                continue
            subtrees = list(node.args) + [kw.value for kw in node.keywords]
            for subtree in subtrees:
                for inner in ast.walk(subtree):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "hash"
                    ):
                        yield self.finding(
                            module, inner, "hash() inside an ordering expression is seed-randomized"
                        )


__all__ = [
    "IdentityOrderRule",
    "ModuleStateRule",
    "RawRandomRule",
    "SetIterationRule",
    "WallClockRule",
]

"""Structural rules: SLOT001, REG001, SER001.

These encode the repo's class-level contracts: hot-path classes declare
``__slots__``, protocol messages plug into the compiled digest walker and
the CPU-cost model, and everything a :class:`ScenarioSpec` can reference
survives the JSON round-trip that carries specs across process boundaries.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.detlint.config import LintConfig
from repro.analysis.detlint.findings import Finding
from repro.analysis.detlint.rules.base import (
    ModuleFile,
    Project,
    Rule,
    annotation_is_classvar,
    class_has_slots,
    dataclass_field_annotations,
    defined_methods,
    direct_base_names,
    is_dataclass_def,
    register,
)


# ---------------------------------------------------------------------- #
# SLOT001 — __slots__ on hot-path classes
# ---------------------------------------------------------------------- #
@register
class SlotsRule(Rule):
    """SLOT001: instance-heavy classes pay per-instance ``__dict__`` rent.

    A chained-HotStuff run allocates millions of events, envelopes, and
    signatures; a ``__dict__`` per instance costs ~100 bytes and a pointer
    chase on every attribute read.  The hot-path classes the config names
    must declare ``__slots__``.  ``Message`` subclasses are deliberately not
    on that list: they keep their digest/size memos in the instance
    ``__dict__`` (see ``Message.digest``).
    """

    code = "SLOT001"
    title = "hot-path class without __slots__"
    hint = "declare __slots__"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.in_package(module.module_rel):
            return
        hot_names = config.hot_path_classes.get(module.module_rel, frozenset())
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in hot_names or class_has_slots(node):
                continue
            yield self.finding(
                module,
                node,
                f"hot-path class {node.name} allocates a per-instance __dict__",
                context=node.name,
            )


# ---------------------------------------------------------------------- #
# REG001 — protocol-message contract
# ---------------------------------------------------------------------- #
def _annotation_text(annotation: ast.expr) -> str:
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse covers all shipped grammar
        return ""


def _carries_certificate(class_node: ast.ClassDef) -> Optional[str]:
    """Name of the first field whose type implies quorum verification.

    A bare ``Signature`` (or ``Optional[Signature]``) is one verify — the
    default ``verification_cost`` of 1 is already right.  A ``Certificate``
    or any *container* of signatures means an O(quorum) check.
    """
    for stmt in dataclass_field_annotations(class_node):
        if not isinstance(stmt.target, ast.Name) or annotation_is_classvar(stmt.annotation):
            continue
        text = _annotation_text(stmt.annotation)
        if "Certificate" in text:
            return stmt.target.id
        if "Signature" in text and text not in ("Signature", "Optional[Signature]"):
            return stmt.target.id
    return None


@register
class MessageContractRule(Rule):
    """REG001: every protocol message plugs into the shared machinery.

    Three contracts travel with a ``Message`` subclass: it must be a
    ``@dataclass`` (the compiled digest walker enumerates ``fields()``; a
    plain class silently digests to the empty field tuple), a message whose
    fields carry a :class:`Certificate` or a quorum of ``Signature``s must
    override ``verification_cost`` (otherwise the receiver-side CPU model
    bills one scalar verify for an O(n) certificate check — the exact
    distortion PR 9's accounting fixed), and every message defined in the
    core registry module must be listed in ``CORE_MESSAGE_TYPES`` so the
    wire-compatibility goldens see it.
    """

    code = "REG001"
    title = "Message subclass violates the registry/digest/cost contract"
    hint = "make it a @dataclass, add verification_cost() for certificate payloads, list it in the registry"

    def check_module(self, module: ModuleFile, config: LintConfig) -> Iterator[Finding]:
        if not config.in_package(module.module_rel):
            return
        registry_module, registry_name = config.message_registry
        registry: Optional[Set[str]] = None
        if module.module_rel == registry_module:
            registry = self._registry_members(module, registry_name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or "Message" not in direct_base_names(node):
                continue
            if not is_dataclass_def(node):
                yield self.finding(
                    module,
                    node,
                    f"Message subclass {node.name} is not a @dataclass "
                    "(the compiled digest walker would see zero fields)",
                    context=node.name,
                )
            cert_field = _carries_certificate(node)
            if cert_field is not None and "verification_cost" not in defined_methods(node):
                yield self.finding(
                    module,
                    node,
                    f"{node.name}.{cert_field} carries certificate/signature material "
                    "but the class does not override verification_cost()",
                    context=node.name,
                )
            if registry is not None and node.name not in registry:
                yield self.finding(
                    module,
                    node,
                    f"{node.name} is defined in the registry module but missing "
                    f"from {registry_name}",
                    context=node.name,
                )

    @staticmethod
    def _registry_members(module: ModuleFile, registry_name: str) -> Optional[Set[str]]:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(isinstance(t, ast.Name) and t.id == registry_name for t in stmt.targets):
                continue
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                return {elt.id for elt in stmt.value.elts if isinstance(elt, ast.Name)}
        return None


# ---------------------------------------------------------------------- #
# SER001 — ScenarioSpec-reachable dataclasses must round-trip JSON
# ---------------------------------------------------------------------- #
_SAFE_SCALARS = frozenset({"str", "int", "float", "bool", "bytes", "None", "object", "Ellipsis"})
_SAFE_CONTAINERS = frozenset({"List", "list", "Tuple", "tuple", "Sequence", "Iterable", "FrozenSet"})
_SAFE_MAPPINGS = frozenset({"Dict", "dict", "Mapping", "MutableMapping"})
_UNION_HEADS = frozenset({"Optional", "Union"})


def _head_name(annotation: ast.expr) -> str:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", "")


class _SpecIndex:
    """Cross-module class/alias/serializer indexes for SER001."""

    def __init__(self, project: Project, config: LintConfig) -> None:
        self.classes: Dict[str, Tuple[ModuleFile, ast.ClassDef]] = {}
        self.aliases: Dict[str, ast.expr] = {}
        to_funcs: Set[str] = set()
        from_funcs: Set[str] = set()
        for module in project.modules:
            if not config.in_package(module.module_rel):
                continue
            for stmt in module.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    self.classes.setdefault(stmt.name, (module, stmt))
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name) and _head_name(stmt.value) in _UNION_HEADS:
                        self.aliases[target.id] = stmt.value
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt.name.endswith("_to_dict") and stmt.args.args:
                        to_funcs.add(_annotation_name(stmt.args.args[0].annotation))
                    elif stmt.name.endswith("_from_dict"):
                        from_funcs.add(_annotation_name(stmt.returns))
        #: Classes with a module-level serializer pair (population_to_dict, ...).
        self.module_serialized = to_funcs & from_funcs

    def equipped(self, class_node: ast.ClassDef) -> bool:
        """Whether a class carries its own tagged-dict serializer."""
        methods = defined_methods(class_node)
        if "to_dict" in methods and "from_dict" in methods:
            return True
        return class_node.name in self.module_serialized


def _annotation_name(annotation: Optional[ast.expr]) -> str:
    if annotation is None:
        return ""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split("[")[0].strip()
    return _head_name(annotation)


@register
class SpecSerializationRule(Rule):
    """SER001: specs cross process boundaries as JSON, or not at all.

    ``ScenarioSpec`` travels to forked shard workers, into result-row
    manifests, and through the scenario-pack files — always via
    ``to_dict``/``from_dict``.  A dataclass that becomes reachable from a
    spec field without either (a) its own serializer pair or (b) fields
    that are all plainly JSON-representable will pickle fine in-process
    and then fail (or worse: silently lose data) on the first
    multiprocess or file-backed run.  This rule walks the annotation graph
    from the spec root and flags the first unserializable field on every
    reachable, unequipped dataclass.
    """

    code = "SER001"
    title = "ScenarioSpec-reachable dataclass is not JSON-serializable"
    hint = "give the class to_dict/from_dict (or *_to_dict/*_from_dict module functions), or restrict its fields to JSON-safe types"

    def check_project(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        index = _SpecIndex(project, config)
        root = index.classes.get(config.spec_root_class)
        if root is None or not is_dataclass_def(root[1]):
            return
        visited: Set[str] = set()
        queue: List[str] = [config.spec_root_class]
        while queue:
            name = queue.pop(0)
            if name in visited:
                continue
            visited.add(name)
            entry = index.classes.get(name)
            if entry is None:
                continue
            module, class_node = entry
            if not is_dataclass_def(class_node):
                continue
            equipped = index.equipped(class_node)
            for stmt in dataclass_field_annotations(class_node):
                if not isinstance(stmt.target, ast.Name) or annotation_is_classvar(stmt.annotation):
                    continue
                safe, referenced = self._classify(stmt.annotation, index)
                # Reachability flows through equipped classes (their custom
                # serializers delegate to the referenced types' serializers),
                # but their own fields are not judged — the serializer pair
                # owns the encoding of whatever the annotations say.
                queue.extend(referenced)
                if equipped:
                    continue
                if not safe:
                    yield self.finding(
                        module,
                        stmt,
                        f"{name}.{stmt.target.id} is typed "
                        f"{_annotation_text(stmt.annotation)!r}, which does not "
                        "survive the tagged-dict JSON round-trip",
                        context=f"{name}.{stmt.target.id}",
                    )

    def _classify(self, annotation: ast.expr, index: _SpecIndex) -> Tuple[bool, List[str]]:
        """``(json_safe, referenced_class_names)`` for one annotation."""
        referenced: List[str] = []

        def walk(node: ast.expr) -> bool:
            if isinstance(node, ast.Constant):
                if node.value is None or node.value is Ellipsis:
                    return True
                if isinstance(node.value, str):
                    name = node.value.split("[")[0].strip()
                    return walk(ast.Name(id=name))
                return False
            head = _head_name(node)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                return walk(node.left) and walk(node.right)
            if not isinstance(node, ast.Subscript):
                if head in _SAFE_SCALARS:
                    return True
                if head in index.aliases:
                    referenced.append(head)
                    return walk(index.aliases[head])
                if head in index.classes:
                    referenced.append(head)
                    _, class_node = index.classes[head]
                    return is_dataclass_def(class_node)
                return False
            if head in _UNION_HEADS:
                elts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
                return all(walk(elt) for elt in elts)
            if head in _SAFE_CONTAINERS:
                elts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
                return all(walk(elt) for elt in elts)
            if head in _SAFE_MAPPINGS:
                if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
                    key, value = node.slice.elts
                    return _head_name(key) in ("str", "int") and walk(value)
                return False
            if head == "ClassVar":
                return True
            return False

        return walk(annotation), referenced


__all__ = ["MessageContractRule", "SlotsRule", "SpecSerializationRule"]

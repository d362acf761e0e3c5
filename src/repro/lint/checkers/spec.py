"""SPEC — every scenario-spec field is validated and hash-covered.

Scenario specs are the cache keys of the whole experiment pipeline: a field
that exists on a ``*Spec`` dataclass but is not validated in ``from_dict`` is
a silently-accepted knob, and a field dropped from the canonical payload is a
knob that changes results *without* changing the spec hash — two runs with
different physics would share a cache slot and a golden fixture.

* **SPEC001** — every dataclass field on a ``*Spec`` class must appear as a
  validated key inside that class's ``from_dict`` (string-literal coverage,
  with module-level tuple constants and the keys of dict tables resolved);
* **SPEC002** — ``to_dict``/``canonical_dict`` may drop only the documented
  cosmetic fields (``name``, ``description``) unconditionally; anything else
  must be behind an explicit guard (e.g. omitting an unset optional section).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..base import Checker, LintContext, register_checker
from ..findings import Finding, Rule

#: Fields excluded from the spec hash on purpose: renaming or re-describing
#: a scenario must not invalidate its cache slot.
COSMETIC_FIELDS = ("name", "description")


def _module_string_constants(tree: ast.Module) -> Dict[str, Set[str]]:
    """Module-level ``NAME = ("a", "b", ...)`` constants (BinOp-concat aware).

    A dict table, ``NAME = {"a": ..., "b": ...}``, resolves to its keys.
    """
    table: Dict[str, Set[str]] = {}

    def resolve(node: ast.expr) -> Optional[Set[str]]:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values: Set[str] = set()
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    values.add(element.value)
                elif isinstance(element, ast.Starred):
                    inner = resolve(element.value)
                    if inner is None:
                        return None
                    values.update(inner)
                else:
                    return None
            return values
        if isinstance(node, ast.Dict):
            keys: Set[str] = set()
            for key in node.keys:
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    return None
                keys.add(key.value)
            return keys
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, right = resolve(node.left), resolve(node.right)
            if left is None or right is None:
                return None
            return left | right
        if isinstance(node, ast.Name):
            return table.get(node.id)
        return None

    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                resolved = resolve(node.value)
                if resolved is not None:
                    table[target.id] = resolved
    return table


def _dataclass_fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    fields: List[ast.AnnAssign] = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            annotation = ast.unparse(statement.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append(statement)
    return fields


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _strings_in(node: ast.AST, constants: Dict[str, Set[str]]) -> Set[str]:
    """Every string literal under ``node``, plus resolved constant references."""
    found: Set[str] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            found.add(inner.value)
        elif isinstance(inner, ast.Name) and inner.id in constants:
            found.update(constants[inner.id])
    return found


def _unconditional_pops(function: ast.FunctionDef) -> Iterator[ast.Call]:
    """``payload.pop("field")`` calls not nested under any If/Try/loop.

    A pop behind a guard (``if self.noise is None: payload.pop("noise")``) is
    the documented pattern for omitting an *unset* optional section — the
    field still participates in the hash whenever it is set — so only
    top-level, always-executed pops are reported.
    """
    for statement in function.body:
        if isinstance(statement, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
            continue
        for child in ast.walk(statement):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "pop"
            ):
                yield child


@register_checker
class SpecCoverageChecker(Checker):
    """No silently-unvalidated or hash-invisible spec fields."""

    name = "SPEC"
    rules = (
        Rule(
            "SPEC001",
            "every *Spec dataclass field must be a validated key in from_dict",
            "An unvalidated field is a knob that accepts garbage silently; "
            "every accepted key must flow through the strict dict codec.",
        ),
        Rule(
            "SPEC002",
            "only cosmetic fields (name, description) may be dropped from the "
            "canonical/hash payload unconditionally",
            "A field removed from canonical_dict changes results without "
            "changing the spec hash — two different experiments would share "
            "a cache slot and a golden fixture.",
        ),
    )

    def applies_to(self, context: LintContext) -> bool:
        return context.in_package("repro.scenarios")

    def check(self, context: LintContext) -> Iterator[Finding]:
        constants = _module_string_constants(context.tree)
        for node in context.tree.body:
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Spec"):
                continue
            if not _is_dataclass(node):
                continue
            yield from self._check_class(context, node, constants)

    def _check_class(
        self,
        context: LintContext,
        node: ast.ClassDef,
        constants: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        fields = _dataclass_fields(node)
        from_dict: Optional[ast.FunctionDef] = None
        payload_methods: List[ast.FunctionDef] = []
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef):
                if statement.name == "from_dict":
                    from_dict = statement
                elif statement.name in ("to_dict", "canonical_dict"):
                    payload_methods.append(statement)

        if from_dict is None:
            if fields:
                yield self.finding(
                    context,
                    node,
                    "SPEC001",
                    f"{node.name} has no from_dict classmethod; spec sections "
                    "must validate through the strict dict codec",
                )
        else:
            validated = _strings_in(from_dict, constants)
            for field_node in fields:
                assert isinstance(field_node.target, ast.Name)
                field_name = field_node.target.id
                if field_name not in validated:
                    yield self.finding(
                        context,
                        field_node,
                        "SPEC001",
                        f"field {node.name}.{field_name} is never validated in "
                        "from_dict; every accepted key must be covered by the "
                        "strict codec (and rejected when malformed)",
                    )

        for method in payload_methods:
            for pop in _unconditional_pops(method):
                key = pop.args[0] if pop.args else None
                popped = (
                    key.value
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    else None
                )
                if popped is None or popped not in COSMETIC_FIELDS:
                    label = popped if popped is not None else "<dynamic>"
                    yield self.finding(
                        context,
                        pop,
                        "SPEC002",
                        f"{node.name}.{method.name} unconditionally drops "
                        f"{label!r} from the payload; only cosmetic fields "
                        f"{COSMETIC_FIELDS} may be hash-invisible",
                    )

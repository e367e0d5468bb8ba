"""QA501 — wire-codec exhaustiveness for report containers.

The service's never-silent-mis-aggregation guarantee (PR 3) assumes
every report container a protocol can emit reaches the server as a
:class:`~repro.protocol.reports.ColumnBlock`.  One converter,
``repro.protocol.reports.to_block``, maps each container to a block
*kind*.  The v2 framing carries any block's columns without knowing
its kind, but the v1 JSON codec (``encode_reports`` /
``decode_reports`` in ``repro.service.wire``) names every kind.  A
container added to ``repro.protocol.reports`` without a converter
branch only fails at runtime, on the first live submission of that
protocol kind, with a generic ``cannot encode report container`` —
long after review.  A kind missing from the v1 codec splits the fleet:
v2 clients can submit it, v1 clients cannot.

This rule checks statically that every class defined at the top level
of ``repro.protocol.reports`` has an ``isinstance`` branch in
``to_block`` that builds a block with a literal ``kind=`` tag, and that
the tag appears in both ``encode_reports`` and ``decode_reports``.
``ColumnBlock`` is exempt — it is the carrier itself, not a report
container.  The check runs only when both modules are in the linted
set (the full ``src`` run CI gates on).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.qa.core import Module, Project, Rule, Violation

#: Module defining the report containers and their block converter.
REPORTS_MODULE = "repro.protocol.reports"

#: The one container -> ColumnBlock converter, in REPORTS_MODULE.
CONVERTER = "to_block"

#: Module holding the v1 JSON codec.
CODEC_MODULE = "repro.service.wire"

#: The v1 codec functions every block kind must appear in.
CODEC_FUNCTIONS = ("encode_reports", "decode_reports")

#: Wire-form carriers defined alongside the containers: they *are* the
#: encoding, so demanding a codec entry for them is circular.
CARRIER_CLASSES = frozenset({"ColumnBlock"})


def _top_level_classes(module: Module) -> Iterator[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            yield node


def _function(module: Module, name: str) -> Optional[ast.AST]:
    for node in module.tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


def _string_constants(func: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(func)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _converter_kinds(func: ast.AST) -> Dict[str, Optional[str]]:
    """Class name -> the literal ``kind=`` built by the converter's
    ``isinstance`` branch for that class (``None`` without one)."""
    kinds: Dict[str, Optional[str]] = {}
    for node in ast.walk(func):
        test = getattr(node, "test", None)
        if (
            isinstance(node, ast.If)
            and isinstance(test, ast.Call)
            and getattr(test.func, "id", None) == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[1], ast.Name)
        ):
            tags = [
                str(kw.value.value)
                for stmt in node.body
                for kw in ast.walk(stmt)
                if isinstance(kw, ast.keyword) and kw.arg == "kind"
                and isinstance(kw.value, ast.Constant)
            ]
            kinds.setdefault(test.args[1].id, tags[0] if tags else None)
    return kinds


class WireCodecExhaustivenessRule(Rule):
    id = "QA501"
    name = "wire-codec-exhaustiveness"
    description = (
        "every report container class in protocol/reports.py needs a "
        "to_block() branch building a literal block kind, and that kind "
        "needs an entry in service/wire.py's encode_reports and "
        "decode_reports — an unconverted container only fails on the "
        "first live submission, and a kind missing from the v1 codec "
        "splits the v1/v2 fleet"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        reports = project.find(REPORTS_MODULE)
        codec = project.find(CODEC_MODULE)
        if reports is None or codec is None:
            return  # partial runs (single files) cannot do this check
        converter = _function(reports, CONVERTER)
        functions = {name: _function(codec, name) for name in CODEC_FUNCTIONS}
        if converter is None or None in functions.values():
            yield Violation(
                rule=self.id,
                path=str(codec.path),
                line=1,
                col=1,
                message=(
                    f"{reports.name}.{CONVERTER}() or one of "
                    f"{codec.name}.{'/'.join(CODEC_FUNCTIONS)}() is "
                    f"missing; the report codec surface is gone"
                ),
            )
            return
        kinds = _converter_kinds(converter)
        for cls in _top_level_classes(reports):
            if cls.name in CARRIER_CLASSES:
                continue
            kind = kinds.get(cls.name)
            if kind is None:
                yield self.violation(
                    reports,
                    cls,
                    f"report container {cls.name} has no isinstance "
                    f"branch building a literal kind in "
                    f"{reports.name}.{CONVERTER}(); a batch of these "
                    f"reports cannot become a ColumnBlock",
                )
                continue
            for name, func in functions.items():
                if kind not in _string_constants(func):
                    yield self.violation(
                        reports,
                        cls,
                        f"report container {cls.name} converts to kind "
                        f"{kind!r}, which {codec.name}.{name}() does not "
                        f"handle; v1 clients cannot send these reports",
                    )

"""The RL100-series: whole-program rules over the import/call graph.

Where RL001–RL010 police one file at a time, these four rules follow
values *across* function and module boundaries — the class of bug that
actually threatened PRs 3–5 (a seed minted in ``sweep.py`` consumed in
``parallel.py``; telemetry dumps crossing the process boundary):

* **RL101** — seed provenance.  Every ``random.Random(x)`` must trace
  ``x`` back to an explicit seed parameter, a seed-named config field,
  or a constant — through any number of helper calls in any module.
  A seed derived from wall-clock, OS entropy or the global RNG breaks
  replay for every figure downstream of it.
* **RL102** — pickle safety.  Values shipped through a submission site
  (``run_jobs`` job lists, ``JobSpec``/``WorkloadSpec``/
  ``TelemetryConfig``/``FaultPlan`` construction) cross a process
  boundary; a lambda, closure, generator, lock or file handle reaching
  one fails at runtime, deep inside a worker, long after the mistake.
  Parent-side parameters (``on_result``, ``telemetry``, ``policy``)
  never cross the boundary and are exempt.
* **RL103** — wall-clock taint.  A value originating at ``time.time``/
  ``perf_counter``/``datetime.now`` must not reach a manifest dict, a
  digest, or a ``RunResult`` field: manifests are byte-reproducible by
  contract, and one timestamp breaks every ``repro report`` diff.  The
  ``exec_telemetry=`` manifest block is exempt — it is excluded from
  the integrity digest by design.
* **RL104** — iteration-order hazards.  Iterating a ``set`` (or a
  filesystem listing) in raw order while feeding a manifest, digest or
  emitted event/record list makes output bytes depend on hash seeds
  and directory order; such iterations must go through ``sorted()``.
  (Dicts iterate in insertion order since 3.7 and are exempt unless
  converted to a set.)

All four are *may*-analyses tuned for low false positives: an
unresolvable value is opaque, and opaque alone never trips RL102–104
(RL101 reports it as "cannot trace", which is precisely that rule's
contract).  Suppression pragmas and ``--select``/``--ignore`` work on
these codes exactly as on the per-file rules.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.findings import Finding
from repro.lint.graph import ModuleInfo, ProgramGraph
from repro.lint.taint import Context, Tag, TaintEngine

__all__ = [
    "DeepRule",
    "DEEP_RULES",
    "register_deep_rule",
    "deep_rule_catalog",
    "run_deep_rules",
    "SeedProvenance",
    "PickleSafety",
    "WallClockTaint",
    "UnorderedIteration",
]

#: Names whose contents end up in reproducible output (manifests,
#: digests, emitted event/record lists).
_SINK_NAME = re.compile(r"manifest|digest|event|record", re.IGNORECASE)

#: Qualified-name suffixes of the manifest/digest sink callables.
_MANIFEST_SINKS = (".build_manifest", ".manifest_digest")

#: Argument keywords of manifest sinks that are exempt from RL103/104:
#: the execution-telemetry block is excluded from the integrity digest
#: by design, so wall-clock inside it is sanctioned.
_SINK_EXEMPT_KWARGS = {"exec_telemetry"}

_NONDET_SEED = frozenset({Tag.WALL_CLOCK, Tag.OS_ENTROPY, Tag.GLOBAL_RNG})
_GOOD_SEED = frozenset({Tag.SEED, Tag.CONST})
_UNPICKLABLE = frozenset(
    {Tag.LAMBDA, Tag.GENERATOR, Tag.NESTED_FUNC, Tag.LOCK, Tag.FILE_HANDLE}
)

#: Submission-site suffixes → which arguments cross the process
#: boundary.  ``None`` means every argument; a set names positional
#: indices and keywords that are shipped (the rest stay parent-side).
_SHIP_SITES: Dict[str, Optional[Set[object]]] = {
    ".run_jobs": {0, "specs"},
    ".JobSpec": None,
    ".WorkloadSpec": None,
    ".TelemetryConfig": None,
    ".FaultPlan": None,
}


def _tag_names(tags: FrozenSet[Tag]) -> str:
    return ", ".join(sorted(str(tag) for tag in tags))


def _walk_scope(statements: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node of one scope, *excluding* nested scopes.

    Nested function/class bodies get their own analysis context (see
    :meth:`DeepRule._scopes`), so walking into them here would evaluate
    their expressions against the wrong environment.
    """
    stack: List[ast.AST] = list(statements)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))


class DeepRule:
    """Base class for one whole-program rule.

    One instance analyses the entire :class:`ProgramGraph`; findings
    are anchored to the file each offending expression lives in, so
    pragma suppression works per file exactly as for the per-file
    rules.
    """

    code = ""
    name = ""
    description = ""

    def __init__(self, graph: ProgramGraph, engine: TaintEngine) -> None:
        self.graph = graph
        self.engine = engine
        self.findings: List[Finding] = []

    def report(self, module: ModuleInfo, node: ast.AST, message: str) -> None:
        finding = Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )
        if finding not in self.findings:
            self.findings.append(finding)

    def _scopes(self) -> Iterator[Tuple[ModuleInfo, Context, List[ast.stmt]]]:
        """Every analysable scope: module bodies, functions, methods,
        and functions nested inside them."""
        for module in self.graph.modules.values():
            yield module, self.engine.module_context(module), module.tree.body
            for local, func in module.functions.items():
                cls = local.rsplit(".", 1)[0] if "." in local else None
                ctx = self.engine.function_context(module, func, cls=cls)
                yield module, ctx, func.body
                yield from self._nested_scopes(module, func)

    def _nested_scopes(
        self, module: ModuleInfo, outer: ast.FunctionDef
    ) -> Iterator[Tuple[ModuleInfo, Context, List[ast.stmt]]]:
        stack: List[ast.stmt] = list(outer.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx = self.engine.function_context(module, stmt)
                yield module, ctx, stmt.body
                stack.extend(stmt.body)
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                else:
                    stack.extend(
                        c for c in ast.walk(child)
                        if isinstance(c, ast.stmt)
                    )

    def run(self) -> List[Finding]:
        for module, ctx, body in self._scopes():
            self.visit_scope(module, ctx, body)
        return sorted(self.findings)

    def visit_scope(
        self, module: ModuleInfo, ctx: Context, body: List[ast.stmt]
    ) -> None:
        raise NotImplementedError


#: Registry of whole-program rules, keyed by code (``RL101`` → class).
DEEP_RULES: Dict[str, Type[DeepRule]] = {}


def register_deep_rule(cls: Type[DeepRule]) -> Type[DeepRule]:
    """Class decorator adding a deep rule to :data:`DEEP_RULES`."""
    if not cls.code:
        raise ValueError(f"deep rule {cls.__name__} has no code")
    if cls.code in DEEP_RULES:
        raise ValueError(f"duplicate deep rule code {cls.code}")
    DEEP_RULES[cls.code] = cls
    return cls


def deep_rule_catalog() -> List[Dict[str, str]]:
    """Stable listing of the registered deep rules."""
    return [
        {"code": code, "name": rule.name, "description": rule.description}
        for code, rule in sorted(DEEP_RULES.items())
    ]


def run_deep_rules(
    files: List[Path],
    *,
    codes: Optional[List[str]] = None,
    cache=None,
) -> List[Finding]:
    """Build the program graph over ``files`` and run the deep rules.

    ``codes`` restricts which RL100-series rules run (default: all).
    The ``cache`` (an :class:`~repro.lint.graph.ASTCache`) is shared
    with the per-file pass so nothing is parsed twice.
    """
    graph = ProgramGraph.build(files, cache=cache)
    engine = TaintEngine(graph)
    selected = (
        [DEEP_RULES[code] for code in codes]
        if codes is not None
        else [DEEP_RULES[code] for code in sorted(DEEP_RULES)]
    )
    findings: List[Finding] = []
    for rule_cls in selected:
        findings.extend(rule_cls(graph, engine).run())
    return sorted(set(findings))


@register_deep_rule
class SeedProvenance(DeepRule):
    """RL101: every RNG construction traces to an explicit seed."""

    code = "RL101"
    name = "seed-provenance"
    description = (
        "random.Random(x) whose seed cannot be traced — across function "
        "and module boundaries — to an explicit seed parameter, "
        "seed-named config field or constant, or traces to wall-clock / "
        "OS entropy / the global RNG"
    )

    def visit_scope(
        self, module: ModuleInfo, ctx: Context, body: List[ast.stmt]
    ) -> None:
        for node in _walk_scope(body):
            if not isinstance(node, ast.Call):
                continue
            qual = self.graph.resolve_call(module, node)
            if qual != "random.Random":
                continue
            if not node.args and not node.keywords:
                continue  # the unseeded form is per-file RL002's finding
            seed_expr = (
                node.args[0] if node.args else node.keywords[0].value
            )
            tags = self.engine.origins(seed_expr, ctx)
            bad = tags & _NONDET_SEED
            if bad:
                self.report(
                    module,
                    node,
                    f"RNG seed traces to a non-deterministic source "
                    f"({_tag_names(bad)}); derive it from an explicit "
                    "seed parameter or config seed field instead",
                )
            elif not tags & _GOOD_SEED:
                self.report(
                    module,
                    node,
                    "RNG seed cannot be traced to an explicit seed "
                    "parameter, seed-named config field or constant "
                    f"across module boundaries (origins: {_tag_names(tags)})",
                )


@register_deep_rule
class PickleSafety(DeepRule):
    """RL102: values crossing a submission site must be picklable."""

    code = "RL102"
    name = "pickle-safety"
    description = (
        "lambda / closure / generator / lock / file handle reaching a "
        "run_jobs, JobSpec, WorkloadSpec, TelemetryConfig or FaultPlan "
        "submission site — these values cross a process boundary and "
        "fail to pickle at runtime"
    )

    @staticmethod
    def _site_for(qual: str) -> Optional[Tuple[str, Optional[Set[object]]]]:
        if not qual.startswith("repro."):
            return None
        for suffix, shipped in _SHIP_SITES.items():
            if qual.endswith(suffix):
                return suffix.lstrip("."), shipped
        return None

    def visit_scope(
        self, module: ModuleInfo, ctx: Context, body: List[ast.stmt]
    ) -> None:
        for node in _walk_scope(body):
            if not isinstance(node, ast.Call):
                continue
            qual = self.graph.resolve_call(module, node)
            if qual is None:
                continue
            site = self._site_for(qual)
            if site is None:
                continue
            site_name, shipped = site
            for position, arg in enumerate(node.args):
                if shipped is not None and position not in shipped:
                    continue
                self._check(module, ctx, site_name, arg)
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                if shipped is not None and keyword.arg not in shipped:
                    continue
                self._check(module, ctx, site_name, keyword.value)

    def _check(
        self, module: ModuleInfo, ctx: Context, site: str, arg: ast.expr
    ) -> None:
        tags = self.engine.origins(arg, ctx)
        bad = tags & _UNPICKLABLE
        if bad:
            self.report(
                module,
                arg,
                f"value shipped through {site} is not statically "
                f"picklable ({_tag_names(bad)}); submissions cross a "
                "process boundary — pass a module-level callable or a "
                "plain-data spec instead",
            )


@register_deep_rule
class WallClockTaint(DeepRule):
    """RL103: wall-clock values must not reach reproducible output."""

    code = "RL103"
    name = "wall-clock-taint"
    description = (
        "value originating at time.time/perf_counter/datetime.now "
        "flowing into a manifest dict, manifest digest or RunResult "
        "field — manifests are byte-reproducible by contract "
        "(exec_telemetry blocks are exempt: excluded from the digest)"
    )

    def visit_scope(
        self, module: ModuleInfo, ctx: Context, body: List[ast.stmt]
    ) -> None:
        for node in _walk_scope(body):
            if isinstance(node, ast.Call):
                self._check_call(module, ctx, node)
            elif isinstance(node, ast.Assign):
                self._check_assign(module, ctx, node)

    def _flag(self, module: ModuleInfo, node: ast.AST, what: str) -> None:
        self.report(
            module,
            node,
            f"wall-clock tainted value flows into {what}; manifests, "
            "digests and results must be wall-clock free (keep "
            "timestamps in telemetry spans, which are digest-exempt)",
        )

    def _check_call(
        self, module: ModuleInfo, ctx: Context, node: ast.Call
    ) -> None:
        qual = self.graph.resolve_call(module, node)
        if qual is None:
            return
        if qual.endswith(_MANIFEST_SINKS):
            what = f"{qual.rsplit('.', 1)[-1]}()"
        elif qual.endswith(".RunResult"):
            what = "a RunResult field"
        else:
            return
        for arg in node.args:
            if Tag.WALL_CLOCK in self.engine.origins(arg, ctx):
                self._flag(module, arg, what)
        for keyword in node.keywords:
            if keyword.arg in _SINK_EXEMPT_KWARGS:
                continue
            if Tag.WALL_CLOCK in self.engine.origins(keyword.value, ctx):
                self._flag(module, keyword.value, what)

    def _check_assign(
        self, module: ModuleInfo, ctx: Context, node: ast.Assign
    ) -> None:
        for target in node.targets:
            name: Optional[str] = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
            if name is None or not re.search(r"manifest", name, re.I):
                continue
            if Tag.WALL_CLOCK in self.engine.origins(node.value, ctx):
                self._flag(module, node, f"manifest variable {name!r}")
            break


@register_deep_rule
class UnorderedIteration(DeepRule):
    """RL104: unordered iteration must not feed reproducible output."""

    code = "RL104"
    name = "unordered-iteration"
    description = (
        "iteration over an unordered collection (set, filesystem "
        "listing) feeding a manifest, digest or emitted event/record "
        "list without sorted() — output bytes would depend on hash "
        "seeds and directory order"
    )

    def visit_scope(
        self, module: ModuleInfo, ctx: Context, body: List[ast.stmt]
    ) -> None:
        for node in _walk_scope(body):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_loop(module, ctx, node)
            elif isinstance(node, ast.Assign):
                self._check_assign(module, ctx, node)
            elif isinstance(node, ast.Call):
                self._check_sink_call(module, ctx, node)

    def _unordered(self, ctx: Context, expr: ast.expr) -> bool:
        return Tag.UNORDERED in self.engine.origins(expr, ctx)

    def _flag(self, module: ModuleInfo, node: ast.AST, what: str) -> None:
        self.report(
            module,
            node,
            f"iteration over an unordered collection feeds {what}; wrap "
            "the iterable in sorted(...) so emitted order is stable "
            "across runs and hash seeds",
        )

    def _check_loop(
        self, module: ModuleInfo, ctx: Context, node: ast.For
    ) -> None:
        if not self._unordered(ctx, node.iter):
            return
        sink = self._body_sink(module, node.body)
        if sink is not None:
            self._flag(module, node, sink)

    def _body_sink(
        self, module: ModuleInfo, body: List[ast.stmt]
    ) -> Optional[str]:
        """A reproducible-output sink written to inside a loop body."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("append", "extend", "insert", "add")
                        and isinstance(func.value, ast.Name)
                        and _SINK_NAME.search(func.value.id)
                    ):
                        return f"{func.value.id!r}"
                    qual = self.graph.resolve_call(module, node)
                    if qual is not None and qual.endswith(_MANIFEST_SINKS):
                        return f"{qual.rsplit('.', 1)[-1]}()"
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and _SINK_NAME.search(target.value.id)
                        ):
                            return f"{target.value.id!r}"
        return None

    def _check_assign(
        self, module: ModuleInfo, ctx: Context, node: ast.Assign
    ) -> None:
        for target in node.targets:
            name: Optional[str] = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
            if name is None or not _SINK_NAME.search(name):
                continue
            if isinstance(
                node.value, (ast.ListComp, ast.GeneratorExp)
            ) and any(
                self._unordered(ctx, gen.iter)
                for gen in node.value.generators
            ):
                self._flag(module, node, f"{name!r}")
            break

    def _check_sink_call(
        self, module: ModuleInfo, ctx: Context, node: ast.Call
    ) -> None:
        qual = self.graph.resolve_call(module, node)
        if qual is None or not qual.endswith(_MANIFEST_SINKS):
            return
        what = f"{qual.rsplit('.', 1)[-1]}()"
        for arg in node.args:
            if isinstance(arg, (ast.ListComp, ast.GeneratorExp)) and any(
                self._unordered(ctx, gen.iter) for gen in arg.generators
            ):
                self._flag(module, arg, what)
        for keyword in node.keywords:
            if keyword.arg in _SINK_EXEMPT_KWARGS:
                continue
            value = keyword.value
            if isinstance(value, (ast.ListComp, ast.GeneratorExp)) and any(
                self._unordered(ctx, gen.iter) for gen in value.generators
            ):
                self._flag(module, value, what)

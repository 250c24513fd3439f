"""The repo-specific lint rules, RL001–RL010 and RL012.

Each rule mechanizes one invariant the reproduction depends on:

* **RL001** — all page/byte arithmetic goes through :mod:`repro.units`.
  A stray ``* 4096`` or ``>> 12`` silently re-encodes the 4 KiB page
  size, and a magic ``96 MiB``/``128 MiB`` literal re-encodes the
  paper's EPC geometry; both drift independently of ``units.py``.
* **RL002** — no unseeded randomness.  Every benchmark figure is a
  deterministic function of ``(workload, config, seed)``; one call to
  the global ``random`` module breaks replay for the whole run.
* **RL003** — frozen configs stay frozen.  ``object.__setattr__`` on a
  frozen dataclass outside ``__post_init__`` bypasses the immutability
  the scaling/sweep machinery relies on (configs are shared, not
  copied).
* **RL004** — page counts and cycle counters are integers.  Mixing a
  float literal into ``*_pages``/``*_cycles``/``*Counter`` names
  introduces rounding drift into exactly the accounting the engine
  cross-checks.
* **RL005** — public modules declare ``__all__`` so the API surface is
  explicit and ``from m import *`` cannot leak helpers.
* **RL006** — no direct ``print()`` in library code.  Output belongs to
  the CLI and the report renderer; everything else surfaces state
  through :mod:`repro.obs` (metrics, traces, manifests) so it stays
  machine-readable and silent by default.
* **RL007** — process-level parallelism stays in ``repro.sim.parallel``.
  The determinism guarantee (``jobs=N`` reproduces ``jobs=1`` byte for
  byte) is only auditable while pool sizing, submission order and
  failure wrapping live in one module; a stray ``ProcessPoolExecutor``
  or ``multiprocessing`` use elsewhere forks the simulator's state
  behind the runner's back.
* **RL008** — real-time delays stay in ``repro.robust``.  A bare
  ``time.sleep`` elsewhere is either an accidental wall-clock
  dependency in a virtual-cycle simulator or an unauditable wait; the
  resilience layer's :func:`repro.robust.sleep` is the one sanctioned
  delay primitive (retry backoff, injected hangs), so every real wait
  in the tree is greppable in one package.
* **RL009** — execution-layer spans go through
  :mod:`repro.obs.exec_telemetry`.  An ad-hoc ``{"kind": ...,
  "job": ...}`` event dict built inside ``repro.robust`` or the job
  runner bypasses the ``ExecTelemetry`` collector, so the span never
  reaches the manifest block, the fleet report or the Chrome export —
  and its shape drifts from the ``repro.exec-telemetry/1`` schema the
  consumers validate.
* **RL010** — paging-ledger emission stays in the driver.  The
  ``ledger_*`` hooks of :class:`repro.obs.paging.PagingProfiler` are
  the per-page decision ledger's only write path; a call from any
  other library module would record paging decisions the simulation
  never made (or double-count ones it did), silently breaking the
  reconciliation identities ``validate_paging_profile`` enforces.
* **RL012** — fleet time-series emission stays in the fleet event
  loop.  The ``series_*`` hooks of
  :class:`repro.obs.fleet_telemetry.FleetTelemetry` are fed
  exclusively by ``simulate_fleet`` (the sampler is passive — it
  observes the loop, never drives it); a call from any other library
  module would inject windows, lifecycle edges or rebalance records
  the fleet never produced, breaking the exact reconciliation of the
  ``repro.fleet-timeseries/1`` block against the fleet manifest's QoS
  aggregates that ``validate_fleet_timeseries`` enforces.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Set

from repro.lint.findings import LintRule, register_rule
from repro import units

__all__ = [
    "RawPageArithmetic",
    "UnseededRandomness",
    "FrozenConfigMutation",
    "FloatPageArithmetic",
    "MissingDunderAll",
    "DirectPrint",
    "StrayMultiprocessing",
    "BareSleep",
    "AdHocExecSpan",
    "StrayLedgerEmission",
    "StrayBulkRetirement",
    "StraySeriesEmission",
]

#: Byte values that re-encode the platform's EPC geometry.
_EPC_GEOMETRY_BYTES = {units.EPC_USABLE_BYTES, units.EPC_TOTAL_BYTES}

_MULTIPLICATIVE_OPS = (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
_SHIFT_OPS = (ast.LShift, ast.RShift)


def _int_const(node: ast.AST) -> Optional[int]:
    """The value of an int literal node (bools excluded), else None."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _is_float_literal(node: ast.AST) -> bool:
    """True for a float literal, including a negated one like ``-0.5``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is float


def _fold_int(node: ast.AST) -> Optional[int]:
    """Constant-fold an int-literal-only expression tree, else None.

    Handles the shapes magic sizes are written in (``96 * 1024 * 1024``,
    ``2 ** 20 * 128``); bails out on anything non-literal and on
    absurdly large shifts/powers.
    """
    value = _int_const(node)
    if value is not None:
        return value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _fold_int(node.operand)
        return -inner if inner is not None else None
    if not isinstance(node, ast.BinOp):
        return None
    left = _fold_int(node.left)
    right = _fold_int(node.right)
    if left is None or right is None:
        return None
    op = node.op
    try:
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv):
            return left // right if right else None
        if isinstance(op, ast.LShift):
            return left << right if 0 <= right <= 64 else None
        if isinstance(op, ast.Pow):
            return left**right if 0 <= right <= 64 else None
    except (OverflowError, ValueError):
        return None
    return None


@register_rule
class RawPageArithmetic(LintRule):
    """RL001: raw 4 KiB page arithmetic outside ``repro/units.py``."""

    code = "RL001"
    name = "raw-page-arithmetic"
    description = (
        "page-size arithmetic (* 4096, >> 12, // 4096) or magic EPC-size "
        "literals outside repro.units"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        # units.py is the one module allowed to spell these constants.
        parts = path.parts
        return not (path.name == "units.py" and "repro" in parts)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, _MULTIPLICATIVE_OPS):
            if units.PAGE_SIZE in (_int_const(node.left), _int_const(node.right)):
                self.report(
                    node,
                    "raw 4096-byte page arithmetic; use repro.units "
                    "(PAGE_SIZE, pages_of, bytes_of)",
                )
        elif isinstance(node.op, _SHIFT_OPS):
            if _int_const(node.right) == units.PAGE_SHIFT:
                self.report(
                    node,
                    "raw 12-bit page shift; use repro.units "
                    "(PAGE_SHIFT, page_number, bytes_of)",
                )
        folded = _fold_int(node)
        if folded in _EPC_GEOMETRY_BYTES:
            mib = folded // units.MIB
            self.report(
                node,
                f"magic {mib} MiB EPC-size expression; use "
                "repro.units.EPC_USABLE_BYTES / EPC_TOTAL_BYTES",
            )
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if _int_const(node) in _EPC_GEOMETRY_BYTES:
            mib = node.value // units.MIB
            self.report(
                node,
                f"magic {mib} MiB EPC-size literal; use "
                "repro.units.EPC_USABLE_BYTES / EPC_TOTAL_BYTES",
            )


#: ``random``-module functions that draw from the *global* unseeded RNG.
_GLOBAL_RNG_FUNCS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}


@register_rule
class UnseededRandomness(LintRule):
    """RL002: randomness not derived from an explicit seed."""

    code = "RL002"
    name = "unseeded-randomness"
    description = (
        "use of the global random module, Random() without a seed, or "
        "SystemRandom — determinism is load-bearing for every figure"
    )

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self._from_random: Set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._from_random.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _check_random_callable(self, node: ast.Call, func_name: str) -> None:
        if func_name == "Random":
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "Random() constructed without an explicit seed; pass "
                    "a seed so runs replay deterministically",
                )
        elif func_name == "SystemRandom":
            self.report(
                node,
                "SystemRandom is inherently non-deterministic; use a "
                "seeded random.Random instead",
            )
        elif func_name == "seed":
            if not node.args:
                self.report(
                    node,
                    "random.seed() without an argument seeds from the OS; "
                    "pass an explicit seed",
                )
        elif func_name in _GLOBAL_RNG_FUNCS:
            self.report(
                node,
                f"random.{func_name}() draws from the global unseeded RNG; "
                "use a seeded random.Random instance",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        ):
            self._check_random_callable(node, func.attr)
        elif isinstance(func, ast.Name) and func.id in self._from_random:
            self._check_random_callable(node, func.id)
        self.generic_visit(node)


@register_rule
class FrozenConfigMutation(LintRule):
    """RL003: ``object.__setattr__`` outside ``__post_init__``."""

    code = "RL003"
    name = "frozen-config-mutation"
    description = (
        "object.__setattr__ on (frozen) objects outside __post_init__ — "
        "configs are shared between runs, not copied"
    )

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self._func_stack: List[str] = []

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and "__post_init__" not in self._func_stack
        ):
            self.report(
                node,
                "object.__setattr__ outside __post_init__ mutates a frozen "
                "dataclass; use dataclasses.replace / .replace() instead",
            )
        self.generic_visit(node)


def _counter_name(node: ast.AST) -> Optional[str]:
    """The identifier of a page/cycle-denominated name, else None."""
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return None
    if (
        ident.endswith("_pages")
        or ident.endswith("_cycles")
        or ident.lower().endswith("counter")
    ):
        return ident
    return None


@register_rule
class FloatPageArithmetic(LintRule):
    """RL004: float literals mixed into page/cycle-counter names."""

    code = "RL004"
    name = "float-page-arithmetic"
    description = (
        "float literal combined with a *_pages/*_cycles/*Counter name — "
        "page and cycle accounting must stay integral"
    )

    def _check_pair(self, parent: ast.AST, a: ast.AST, b: ast.AST) -> bool:
        for named, lit in ((a, b), (b, a)):
            ident = _counter_name(named)
            if ident is not None and _is_float_literal(lit):
                self.report(
                    parent,
                    f"float literal mixed with integral quantity {ident!r}; "
                    "keep page/cycle accounting in ints (round explicitly "
                    "at the edge if needed)",
                )
                return True
        return False

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_pair(node, node.left, node.right)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for a, b in zip(operands, operands[1:]):
            if self._check_pair(node, a, b):
                break
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if self._check_pair(node, target, node.value):
                break
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_pair(node, node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_pair(node, node.target, node.value)
        self.generic_visit(node)


@register_rule
class MissingDunderAll(LintRule):
    """RL005: public module without an ``__all__`` declaration."""

    code = "RL005"
    name = "missing-dunder-all"
    description = (
        "public package module lacking __all__ — the API surface must be "
        "explicit"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        name = path.name
        if name.startswith("_") or name.startswith("test_") or name == "conftest.py":
            return False
        # Only modules inside a package are importable API surface;
        # stand-alone scripts (tools/, examples/) are exempt.
        return (path.parent / "__init__.py").exists()

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return
        self.report(node, "public module does not declare __all__")


@register_rule
class DirectPrint(LintRule):
    """RL006: direct ``print()`` in library code."""

    code = "RL006"
    name = "direct-print"
    description = (
        "print() in library code — only the CLI and the report renderer "
        "write to stdout; use repro.obs for run-time visibility"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        if "repro" not in path.parts:
            return False
        if path.name == "cli.py":
            return False
        # The analysis report renderer is the other sanctioned writer.
        if path.name == "report.py" and path.parent.name == "analysis":
            return False
        return True

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            self.report(
                node,
                "direct print() in library code; return/log the data or "
                "surface it through repro.obs instead",
            )
        self.generic_visit(node)


#: Names from ``concurrent.futures`` that spawn worker processes.
_POOL_NAMES = {"ProcessPoolExecutor"}


@register_rule
class StrayMultiprocessing(LintRule):
    """RL007: process pools outside ``repro.sim.parallel``."""

    code = "RL007"
    name = "stray-multiprocessing"
    description = (
        "ProcessPoolExecutor / multiprocessing use outside "
        "repro.sim.parallel — parallel execution must go through the "
        "deterministic job runner"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        # The runner itself is the single sanctioned home.
        parts = path.parts
        return not (
            path.name == "parallel.py" and len(parts) >= 2 and parts[-2] == "sim"
        )

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} outside repro.sim.parallel; use "
            "repro.sim.parallel.run_jobs (or the drivers' policy= "
            "parameter) so parallel runs stay deterministic and failures "
            "stay typed",
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "multiprocessing":
                self._flag(node, f"import of {alias.name!r}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root == "multiprocessing":
            self._flag(node, f"import from {module!r}")
        elif root == "concurrent":
            for alias in node.names:
                if alias.name in _POOL_NAMES:
                    self._flag(node, f"import of {alias.name!r}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _POOL_NAMES:
            self._flag(node, f"use of {node.attr!r}")
        self.generic_visit(node)


@register_rule
class BareSleep(LintRule):
    """RL008: bare ``time.sleep`` outside ``repro.robust``."""

    code = "RL008"
    name = "bare-sleep"
    description = (
        "time.sleep outside repro.robust — the simulator is virtual-cycle "
        "deterministic; real waits (backoff, injected hangs) go through "
        "repro.robust.sleep so they stay auditable in one package"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        # The resilience layer is the single sanctioned home for
        # wall-clock delays.
        parts = path.parts
        return not ("robust" in parts and "repro" in parts)

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self._sleep_aliases: Set[str] = set()

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} outside repro.robust; use repro.robust.sleep so "
            "every real-time wait in the tree stays auditable",
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    self._sleep_aliases.add(alias.asname or alias.name)
                    self._flag(node, "import of time.sleep")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self._flag(node, "time.sleep() call")
        elif isinstance(func, ast.Name) and func.id in self._sleep_aliases:
            self._flag(node, f"call of {func.id}() (imported from time)")
        self.generic_visit(node)


#: Key sets that mark a dict literal as a hand-rolled execution span.
_SPAN_MARKER_KEY = "kind"
_SPAN_CONTEXT_KEYS = {"job", "attempt"}


@register_rule
class AdHocExecSpan(LintRule):
    """RL009: hand-rolled execution-span dicts in the execution layer."""

    code = "RL009"
    name = "ad-hoc-exec-span"
    description = (
        "ad-hoc {'kind': ..., 'job'/'attempt': ...} event dict in "
        "repro.robust or the job runner — execution-layer spans must go "
        "through repro.obs.exec_telemetry (ExecTelemetry) so they reach "
        "the manifest block, fleet report and Chrome export"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        # Only the execution layer is policed: the resilience package
        # and the deterministic job runner.  exec_telemetry itself (in
        # repro.obs) is the sanctioned producer of these shapes.
        parts = path.parts
        if "repro" not in parts:
            return False
        if "robust" in parts:
            return True
        return path.name == "parallel.py" and len(parts) >= 2 and parts[-2] == "sim"

    def _flag(self, node: ast.AST) -> None:
        self.report(
            node,
            "ad-hoc execution-span dict; emit spans through the "
            "repro.obs.exec_telemetry API (ExecTelemetry.attempt_started "
            "and friends) so the schema stays uniform",
        )

    def visit_Dict(self, node: ast.Dict) -> None:
        keys = {
            key.value
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        if _SPAN_MARKER_KEY in keys and keys & _SPAN_CONTEXT_KEYS:
            self._flag(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "dict":
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if _SPAN_MARKER_KEY in keywords and keywords & _SPAN_CONTEXT_KEYS:
                self._flag(node)
        self.generic_visit(node)


@register_rule
class StrayLedgerEmission(LintRule):
    """RL010: paging-ledger writes outside the sanctioned emitters."""

    code = "RL010"
    name = "stray-paging-ledger"
    description = (
        "ledger_* call outside repro.obs.paging / repro.enclave.driver — "
        "the paging-decision ledger is fed exclusively by the driver's "
        "hot-path hooks; any other caller records decisions the "
        "simulation never made and breaks the profile's reconciliation "
        "identities"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        # Only library code is policed; tests exercising the hooks
        # directly are fine.  The profiler itself and the driver are
        # the two sanctioned homes of ledger traffic.
        parts = path.parts
        if "repro" not in parts:
            return False
        if path.name == "paging.py" and len(parts) >= 2 and parts[-2] == "obs":
            return False
        if path.name == "driver.py" and len(parts) >= 2 and parts[-2] == "enclave":
            return False
        return True

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr.startswith("ledger_"):
            self.report(
                node,
                f"{func.attr}() outside the driver — paging-ledger "
                "emission is confined to repro.enclave.driver so the "
                "profile's totals reconcile with the run's RunStats",
            )
        self.generic_visit(node)


@register_rule
class StraySeriesEmission(LintRule):
    """RL012: fleet-telemetry series writes outside the sanctioned emitters."""

    code = "RL012"
    name = "stray-series-emission"
    description = (
        "series_* call outside repro.sim.fleet / "
        "repro.obs.fleet_telemetry — the fleet time-series sampler is "
        "fed exclusively by simulate_fleet's event loop; any other "
        "caller injects windows the fleet never ran and breaks the "
        "block's reconciliation against the QoS aggregates"
    )

    @classmethod
    def applies_to(cls, path: Path) -> bool:
        # Only library code is policed; tests exercising the hooks
        # directly are fine.  The sampler itself and the fleet event
        # loop are the two sanctioned homes of series traffic.
        parts = path.parts
        if "repro" not in parts:
            return False
        if path.name == "fleet.py" and len(parts) >= 2 and parts[-2] == "sim":
            return False
        if (
            path.name == "fleet_telemetry.py"
            and len(parts) >= 2
            and parts[-2] == "obs"
        ):
            return False
        return True

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr.startswith("series_"):
            self.report(
                node,
                f"{func.attr}() outside simulate_fleet — fleet "
                "time-series emission is confined to repro.sim.fleet "
                "so the block's windows reconcile with the fleet's "
                "QoS aggregates",
            )
        self.generic_visit(node)

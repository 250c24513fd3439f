"""Whole-program view for the deep lint pass: AST cache, import + call graphs.

The per-file rules (RL001–RL010) see one module at a time, which is
exactly why they miss the bugs that threatened PRs 3–5: a seed minted
in ``sweep.py`` and consumed in ``parallel.py``, a telemetry dump
crossing the process boundary.  This module builds the shared
substrate the RL100-series rules (:mod:`repro.lint.deep`) analyse:

* :class:`ASTCache` — every file is read and parsed **once** per lint
  invocation, shared between the per-file rules and the deep pass (and
  countable, so the runner can report how much parsing one pass cost);
* :class:`ModuleInfo` — one parsed module with its import bindings
  (local name → fully qualified target) and its top-level functions
  and methods, keyed by local qualified name (``f``, ``Cls.m``);
* :class:`ProgramGraph` — the whole-tree view: module registry,
  name resolution for call expressions (through ``import``/
  ``from … import`` aliases and package re-exports) and function
  lookup across module boundaries.

Resolution is deliberately best-effort and *static*: nothing is ever
imported or executed, so the graph can be built over broken or
fixture trees, and a name that cannot be resolved simply yields
``None`` — the taint engine treats that as "opaque", never as an
error.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError

__all__ = [
    "ASTCache",
    "ModuleInfo",
    "ProgramGraph",
    "module_name_for",
]


class ASTCache:
    """Parse each file at most once; share ``(source, tree)`` pairs.

    The cache is the single parsing authority for one lint invocation:
    the per-file rule pass and the whole-program graph both read
    through it, so a ``repro lint --deep src tests`` run parses every
    file exactly once no matter how many rules look at it.
    ``parse_count`` is exposed so the runner can report the work done.
    """

    def __init__(self) -> None:
        self._sources: Dict[Path, str] = {}
        self._trees: Dict[Path, Optional[ast.Module]] = {}
        self._errors: Dict[Path, Optional[SyntaxError]] = {}
        #: Number of files actually parsed (cache misses).
        self.parse_count = 0

    def load(
        self, path: Path
    ) -> Tuple[str, Optional[ast.Module], Optional[SyntaxError]]:
        """Source, parsed tree (or None) and syntax error (or None).

        An unreadable file raises :class:`~repro.errors.LintError`;
        an unparsable one is cached with its :class:`SyntaxError` so
        the runner can emit its RL000 finding without re-parsing.
        """
        key = Path(path)
        if key in self._sources:
            return self._sources[key], self._trees[key], self._errors[key]
        try:
            source = key.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {key}: {exc}") from exc
        tree: Optional[ast.Module] = None
        error: Optional[SyntaxError] = None
        try:
            tree = ast.parse(source, filename=str(key))
        except SyntaxError as exc:
            error = exc
        self.parse_count += 1
        self._sources[key] = source
        self._trees[key] = tree
        self._errors[key] = error
        return source, tree, error

    def source(self, path: Path) -> str:
        """The cached source of ``path`` (loading it if needed)."""
        return self.load(path)[0]


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, derived from the package layout.

    Walks up through directories that carry an ``__init__.py`` — the
    same rule the import system applies — so ``src/repro/sim/sweep.py``
    maps to ``repro.sim.sweep`` regardless of which root the linter was
    pointed at, and a loose script maps to its stem.
    """
    # Absolute anchor: a relative path inside a package directory would
    # otherwise walk ``Path(".").parent == Path(".")`` forever.
    path = Path(path).absolute()
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists() and parent != parent.parent:
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


@dataclass
class ModuleInfo:
    """One parsed module and its statically derived facts."""

    path: Path
    name: str
    tree: ast.Module
    #: Local binding → fully qualified target.  ``import a.b`` binds
    #: ``a`` → ``a``; ``import a.b as c`` binds ``c`` → ``a.b``;
    #: ``from a.b import c as d`` binds ``d`` → ``a.b.c``.
    imports: Dict[str, str] = field(default_factory=dict)
    #: Top-level callables by local qualified name: ``f`` for a
    #: module-level function, ``Cls.m`` for a method.
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Top-level class names (so references to them resolve).
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)

    def qualify(self, local: str) -> str:
        """Fully qualified name of a local definition."""
        return f"{self.name}.{local}" if self.name else local


def _package_of(module: ModuleInfo) -> List[str]:
    """The package parts relative imports resolve against."""
    parts = module.name.split(".") if module.name else []
    if module.path.name != "__init__.py" and parts:
        parts = parts[:-1]
    return parts


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    module.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module.imports.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = _package_of(module)
                anchor = package[: len(package) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


def _collect_definitions(module: ModuleInfo) -> None:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = node  # type: ignore[assignment]
        elif isinstance(node, ast.ClassDef):
            module.classes[node.name] = node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    module.functions[f"{node.name}.{item.name}"] = (
                        item  # type: ignore[assignment]
                    )


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class ProgramGraph:
    """The linked view of every module the deep pass can see.

    Built once per ``repro lint --deep`` invocation over all files
    under the given roots; rules then ask it to resolve call
    expressions to fully qualified names and to look function bodies
    up across module boundaries.
    """

    #: Depth bound when chasing package re-exports (``from x import y``
    #: in an ``__init__`` that itself re-exports).
    _REEXPORT_HOPS = 8

    def __init__(self, cache: Optional[ASTCache] = None) -> None:
        self.cache = cache if cache is not None else ASTCache()
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[Path, ModuleInfo] = {}

    @classmethod
    def build(
        cls, files: Iterable[Path], *, cache: Optional[ASTCache] = None
    ) -> "ProgramGraph":
        """Parse ``files`` (through ``cache``) and link the program."""
        graph = cls(cache)
        for path in files:
            graph.add_file(Path(path))
        return graph

    def add_file(self, path: Path) -> Optional[ModuleInfo]:
        """Parse and register one file; None when it does not parse."""
        if path in self.by_path:
            return self.by_path[path]
        _, tree, error = self.cache.load(path)
        if tree is None or error is not None:
            return None
        module = ModuleInfo(path=path, name=module_name_for(path), tree=tree)
        _collect_imports(module)
        _collect_definitions(module)
        self.by_path[path] = module
        # First-registered wins on a (pathological) name collision so
        # resolution stays deterministic across runs.
        self.modules.setdefault(module.name, module)
        return module

    # -- name resolution ---------------------------------------------

    def resolve_name(
        self, module: ModuleInfo, node: ast.AST
    ) -> Optional[str]:
        """Fully qualified name a ``Name``/``Attribute`` chain denotes.

        Follows the module's import bindings (``from m import f`` makes
        a bare ``f`` denote ``m.f``) and falls back to the module's own
        top-level definitions.  Builtins and locals resolve to None —
        the caller decides what "unknown" means.
        """
        chain = _attribute_chain(node)
        if chain is None:
            return None
        root, rest = chain[0], chain[1:]
        target = module.imports.get(root)
        if target is not None:
            return ".".join([target] + rest)
        if root in module.functions or root in module.classes:
            return ".".join([module.qualify(root)] + rest)
        return None

    def _dealias(self, qualname: str) -> str:
        """Follow package re-exports until the name stops moving.

        ``repro.robust.FaultPlan`` reaches the symbol through the
        package ``__init__``; following its ``from repro.robust.faults
        import FaultPlan`` binding lands on the defining module, which
        is where the function body lives.
        """
        seen: Set[str] = set()
        for _ in range(self._REEXPORT_HOPS):
            if qualname in seen:
                break
            seen.add(qualname)
            parts = qualname.split(".")
            moved = False
            for split in range(len(parts) - 1, 0, -1):
                owner = self.modules.get(".".join(parts[:split]))
                if owner is None:
                    continue
                local = parts[split]
                target = owner.imports.get(local)
                if target is not None:
                    qualname = ".".join([target] + parts[split + 1 :])
                    moved = True
                break
            if not moved:
                break
        return qualname

    def resolve_function(
        self, qualname: str
    ) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
        """The defining module and AST node of ``qualname``, if known."""
        qualname = self._dealias(qualname)
        parts = qualname.split(".")
        for split in range(len(parts) - 1, 0, -1):
            owner = self.modules.get(".".join(parts[:split]))
            if owner is None:
                continue
            local = ".".join(parts[split:])
            func = owner.functions.get(local)
            if func is not None:
                return owner, func
            return None
        return None

    def resolve_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[str]:
        """Qualified (de-aliased) name of a call's target, if static."""
        qualname = self.resolve_name(module, call.func)
        if qualname is None:
            return None
        return self._dealias(qualname)

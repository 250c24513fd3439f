"""File discovery, pragma suppression and reporting for ``repro-lint``.

Suppression pragma
------------------

A finding can be silenced with a comment naming its code::

    footprint = npages * 4096  # repro-lint: disable=RL001  <why it is ok>

* An **inline** pragma (comment on a line that also has code) silences
  the listed codes for findings anchored on that line only.
* A **stand-alone** pragma (a line that is nothing but the comment)
  silences the listed codes for the whole file — this is how a module
  opts out of a structural rule such as RL005.
* ``disable=all`` silences every rule.

Pragmas apply to the per-file rules (RL001–RL010) and the deep
whole-program rules (RL101–RL104) alike: a deep finding is anchored to
a file and line like any other, and that file's pragmas govern it.

One invocation, one parse
-------------------------

All passes share one :class:`~repro.lint.graph.ASTCache`: the per-file
rules and the ``--deep`` program graph read every file through it, so
each file is parsed exactly once per invocation no matter how many
rules inspect it.  :class:`LintReport` carries the wall-clock cost and
file/parse counts so ``--format json`` output shows what a pass spent.

Directories named ``fixtures`` (plus caches and VCS internals) are
skipped when a directory is walked, so lint-rule test fixtures do not
trip CI; linting a fixture *explicitly by path* still works, which is
exactly how the rule tests drive it.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.errors import LintError
from repro.lint.findings import PARSE_ERROR_CODE, RULES, Finding, LintRule
from repro.lint.graph import ASTCache

# Importing the rule modules populates the registries.
from repro.lint import rules as _rules  # noqa: F401  (import for side effect)
from repro.lint.deep import DEEP_RULES, run_deep_rules

__all__ = [
    "LintReport",
    "lint_file",
    "lint_paths",
    "run_lint",
    "iter_python_files",
    "render_text",
    "render_json",
]

#: Directory names never descended into when walking a tree.
SKIP_DIRS = {"fixtures", "__pycache__", ".git", ".venv", "build", "dist", ".hypothesis"}

# The code list stops at the first token that is not a code or comma,
# so a trailing justification ("disable=RL001 <why>") parses cleanly.
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9]+(?:\s*,\s*[A-Za-z0-9]+)*)"
)


def _pragma_codes(comment: str) -> Set[str]:
    """Codes listed in one pragma match (upper-cased, ``ALL`` possible)."""
    return {code.strip().upper() for code in comment.split(",") if code.strip()}


def _suppressions(source: str) -> "tuple[Dict[int, Set[str]], Set[str]]":
    """Scan ``source`` for pragmas.

    Returns ``(per_line, file_wide)``: codes disabled on specific
    (1-based) lines, and codes disabled for the whole file.
    """
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if not match:
            continue
        codes = _pragma_codes(match.group(1))
        if line.lstrip().startswith("#"):
            file_wide |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, file_wide


def _is_suppressed(
    finding: Finding, per_line: Dict[int, Set[str]], file_wide: Set[str]
) -> bool:
    for codes in (file_wide, per_line.get(finding.line, ())):
        if finding.code in codes or "ALL" in codes:
            return True
    return False


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield the ``.py`` files named by ``paths``, in sorted order.

    Directories are walked recursively, skipping :data:`SKIP_DIRS`;
    explicit file arguments are yielded even when a walk would have
    skipped them.
    """
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not SKIP_DIRS.intersection(sub.relative_to(path).parts[:-1]):
                    yield sub
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")


def _split_selection(
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]] = None,
    *,
    deep: bool = False,
) -> Tuple[List[Type[LintRule]], List[str]]:
    """Resolve ``--select``/``--ignore`` over both rule registries.

    Returns the per-file rule classes to run and the deep rule *codes*
    to run.  Selecting an RL1xx code explicitly enables that deep rule
    even without ``--deep``; ``deep=True`` enables all of them.  An
    unknown code in either list raises :class:`LintError`.
    """
    known = set(RULES) | set(DEEP_RULES)

    def check(codes: Iterable[str]) -> List[str]:
        upper = [code.upper() for code in codes]
        for code in upper:
            if code not in known:
                raise LintError(
                    f"unknown rule {code!r}; known rules: "
                    f"{', '.join(sorted(known))}"
                )
        return upper

    if select is None:
        file_codes = sorted(RULES)
        deep_codes = sorted(DEEP_RULES) if deep else []
    else:
        chosen = check(select)
        file_codes = [code for code in chosen if code in RULES]
        deep_codes = [code for code in chosen if code in DEEP_RULES]
        if deep and not deep_codes:
            deep_codes = sorted(DEEP_RULES)
    ignored = set(check(ignore)) if ignore is not None else set()
    file_codes = [code for code in file_codes if code not in ignored]
    deep_codes = [code for code in deep_codes if code not in ignored]
    return [RULES[code] for code in file_codes], deep_codes


def _apply_suppressions(
    findings: Iterable[Finding], cache: ASTCache
) -> List[Finding]:
    """Drop findings silenced by their file's pragmas."""
    by_path: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]] = {}
    kept: List[Finding] = []
    for finding in findings:
        marks = by_path.get(finding.path)
        if marks is None:
            try:
                source = cache.source(Path(finding.path))
            except LintError:
                source = ""
            marks = by_path[finding.path] = _suppressions(source)
        if not _is_suppressed(finding, *marks):
            kept.append(finding)
    return kept


def lint_file(
    path: Path,
    *,
    select: Optional[Iterable[str]] = None,
    cache: Optional[ASTCache] = None,
) -> List[Finding]:
    """Run the per-file rules on one file; return unsuppressed findings."""
    cache = cache if cache is not None else ASTCache()
    rule_classes, _ = _split_selection(select)
    return _lint_one(path, rule_classes, cache)


def _lint_one(
    path: Path, rule_classes: Sequence[Type[LintRule]], cache: ASTCache
) -> List[Finding]:
    source, tree, error = cache.load(path)
    if error is not None or tree is None:
        exc = error
        return [
            Finding(
                path=str(path),
                line=(exc.lineno or 1) if exc else 1,
                col=((exc.offset or 1) - 1) if exc else 0,
                code=PARSE_ERROR_CODE,
                message=(
                    f"file does not parse: {exc.msg}" if exc
                    else "file does not parse"
                ),
            )
        ]
    per_line, file_wide = _suppressions(source)
    findings: List[Finding] = []
    for rule_cls in rule_classes:
        if not rule_cls.applies_to(path):
            continue
        findings.extend(rule_cls(path).run(tree))
    return sorted(
        f for f in findings if not _is_suppressed(f, per_line, file_wide)
    )


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    cache: Optional[ASTCache] = None,
) -> List[Finding]:
    """Run the per-file rules under ``paths``; return all findings."""
    cache = cache if cache is not None else ASTCache()
    rule_classes, _ = _split_selection(select)
    findings: List[Finding] = []
    for path in iter_python_files([Path(p) for p in paths]):
        findings.extend(_lint_one(path, rule_classes, cache))
    return findings


@dataclass
class LintReport:
    """Everything one full lint invocation produced and cost."""

    findings: List[Finding]
    #: Files inspected (per-file pass; the deep graph sees the same set).
    files: int = 0
    #: Files actually parsed — equals ``files`` when the cache is cold,
    #: and stays there even with ``--deep`` (the point of sharing it).
    parsed: int = 0
    #: Wall-clock cost of the whole pass, in seconds (operator-facing
    #: only; never reaches a manifest).
    elapsed_s: float = 0.0
    deep: bool = False


def run_lint(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    deep: bool = False,
    cache: Optional[ASTCache] = None,
) -> LintReport:
    """One full lint invocation: the per-file pass, then the deep pass.

    The per-file rules run on every file under ``paths``; with ``deep``
    (or any RL1xx code in ``select``) the whole-program graph is built
    over the *same* files through the *same* AST cache and the deep
    rules run after.
    """
    started = time.perf_counter()
    cache = cache if cache is not None else ASTCache()
    rule_classes, deep_codes = _split_selection(select, ignore, deep=deep)
    files = list(iter_python_files([Path(p) for p in paths]))
    findings: List[Finding] = []
    for path in files:
        findings.extend(_lint_one(path, rule_classes, cache))
    if deep_codes:
        deep_findings = run_deep_rules(
            [p for p in files], codes=deep_codes, cache=cache
        )
        findings.extend(_apply_suppressions(deep_findings, cache))
    return LintReport(
        findings=sorted(set(findings)),
        files=len(files),
        parsed=cache.parse_count,
        elapsed_s=time.perf_counter() - started,
        deep=bool(deep_codes),
    )


def render_text(
    findings: Sequence[Finding], report: Optional[LintReport] = None
) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [str(f) for f in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    summary = f"{len(findings)} {noun}"
    if report is not None:
        summary += f" ({report.files} file(s), {report.elapsed_s:.2f}s)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], report: Optional[LintReport] = None
) -> str:
    """Machine-readable report (stable key order).

    With a :class:`LintReport`, the document also carries the pass's
    own runtime and parse economy (``files``, ``parsed``,
    ``elapsed_s``) — the measurable face of the shared-AST-cache work.
    """
    import json

    document: Dict[str, object] = {
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
    }
    if report is not None:
        document["timing"] = {
            "elapsed_s": round(report.elapsed_s, 6),
            "files": report.files,
            "parsed": report.parsed,
        }
        document["deep"] = report.deep
    return json.dumps(document, indent=2)

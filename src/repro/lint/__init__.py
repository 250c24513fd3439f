"""repro-lint — repo-specific static analysis for the reproduction.

Two layers of rules encode the invariants every figure in the paper
rests on:

* the **per-file** rules RL001–RL010 (page/cycle unit discipline,
  seeded determinism, frozen configs, integral accounting, explicit
  API surfaces, one emitter per observer hook family) —
  :mod:`repro.lint.rules`;
* the **whole-program** rules RL101–RL104 (cross-module seed
  provenance, pickle-safety of shipped values, wall-clock taint into
  manifests, unordered-iteration hazards), which build an import/call
  graph over the whole tree and run a taint analysis across function
  and module boundaries — :mod:`repro.lint.graph`,
  :mod:`repro.lint.taint`, :mod:`repro.lint.deep`.

Both layers share one :class:`~repro.lint.graph.ASTCache` per
invocation, so every file is parsed exactly once.  Findings can be
silenced by pragma (:mod:`repro.lint.runner`) or exported as SARIF
2.1.0 for code-scanning UIs (:mod:`repro.lint.sarif`).

Run it as ``python -m repro lint [--deep] [paths...]``.
"""

from repro.lint.findings import Finding, LintRule, RULES, register_rule, rule_catalog
from repro.lint.graph import ASTCache, ModuleInfo, ProgramGraph
from repro.lint.deep import DEEP_RULES, deep_rule_catalog, run_deep_rules
from repro.lint.sarif import render_sarif, sarif_document
from repro.lint.runner import (
    LintReport,
    iter_python_files,
    lint_file,
    lint_paths,
    render_json,
    render_text,
    run_lint,
)

__all__ = [
    "Finding",
    "LintRule",
    "RULES",
    "DEEP_RULES",
    "register_rule",
    "rule_catalog",
    "deep_rule_catalog",
    "run_deep_rules",
    "ASTCache",
    "ModuleInfo",
    "ProgramGraph",
    "render_sarif",
    "sarif_document",
    "LintReport",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_text",
    "run_lint",
]

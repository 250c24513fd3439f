"""Runner semantics: discovery, pragmas, output formats, self-check."""

import json
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint import (
    RULES,
    iter_python_files,
    lint_file,
    lint_paths,
    render_json,
    render_text,
    rule_catalog,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestDiscovery:
    def test_directory_walk_skips_fixture_dirs(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        hidden = tmp_path / "fixtures"
        hidden.mkdir()
        (hidden / "bad.py").write_text("x = n * 4096\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["mod.py"]

    def test_explicit_fixture_path_is_still_linted(self):
        found = lint_file(FIXTURES / "rl001_violation.py", select=["RL001"])
        assert found

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError):
            list(iter_python_files([tmp_path / "nope"]))

    def test_unknown_rule_code_raises(self):
        with pytest.raises(LintError):
            lint_file(FIXTURES / "clean.py", select=["RL999"])


class TestPragmas:
    def test_inline_pragma_is_line_scoped(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "a = n * 4096  # repro-lint: disable=RL001 first site is vetted\n"
            "b = n * 4096\n"
        )
        found = lint_file(mod, select=["RL001"])
        assert [f.line for f in found] == [2]

    def test_standalone_pragma_is_file_wide(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "# repro-lint: disable=RL001\n"
            "a = n * 4096\n"
            "b = n >> 12\n"
        )
        assert lint_file(mod, select=["RL001"]) == []

    def test_disable_all(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random\na = random.random() * 4096  # repro-lint: disable=all\n")
        assert lint_file(mod) == []

    def test_pragma_lists_multiple_codes(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import random\n"
            "a = random.random() * 4096  # repro-lint: disable=RL001, RL002 vetted\n"
        )
        assert lint_file(mod, select=["RL001", "RL002"]) == []

    def test_pragma_for_other_code_does_not_suppress(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("a = n * 4096  # repro-lint: disable=RL002\n")
        assert len(lint_file(mod, select=["RL001"])) == 1


class TestOutput:
    def test_syntax_error_becomes_rl000_finding(self, tmp_path):
        mod = tmp_path / "broken.py"
        mod.write_text("def oops(:\n")
        found = lint_file(mod)
        assert [f.code for f in found] == ["RL000"]

    def test_render_text_has_summary_line(self):
        found = lint_file(FIXTURES / "rl001_violation.py", select=["RL001"])
        text = render_text(found)
        assert text.endswith("5 findings")

    def test_render_json_round_trips(self):
        found = lint_file(FIXTURES / "rl001_violation.py", select=["RL001"])
        payload = json.loads(render_json(found))
        assert payload["count"] == len(found)
        assert payload["findings"][0]["code"] == "RL001"

    def test_rule_catalog_lists_all_registered_rules(self):
        codes = [entry["code"] for entry in rule_catalog()]
        assert codes == sorted(RULES)
        assert codes == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010", "RL012",
        ]

    def test_deep_rule_catalog_lists_the_rl100_series(self):
        from repro.lint import DEEP_RULES, deep_rule_catalog

        codes = [entry["code"] for entry in deep_rule_catalog()]
        assert codes == sorted(DEEP_RULES)
        assert codes == ["RL101", "RL102", "RL103", "RL104"]


def test_repo_tree_is_lint_clean():
    """The acceptance gate: the shipped tree has zero findings."""
    findings = lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    )
    assert findings == [], render_text(findings)

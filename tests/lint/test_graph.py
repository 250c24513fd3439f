"""The whole-program substrate: AST cache, module naming, resolution."""

from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint.graph import ASTCache, ProgramGraph, module_name_for


def _tree(tmp_path: Path, files: dict) -> Path:
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path


class TestASTCache:
    def test_parses_each_file_exactly_once(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n", encoding="utf-8")
        cache = ASTCache()
        first = cache.load(target)
        second = cache.load(target)
        assert cache.parse_count == 1
        assert first[1] is second[1]  # the same tree object, not a re-parse

    def test_syntax_error_is_cached_not_raised(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n", encoding="utf-8")
        cache = ASTCache()
        source, tree, error = cache.load(target)
        assert tree is None and isinstance(error, SyntaxError)
        cache.load(target)
        assert cache.parse_count == 1

    def test_missing_file_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError):
            ASTCache().load(tmp_path / "absent.py")


class TestModuleNaming:
    def test_package_layout_drives_the_name(self, tmp_path):
        _tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "",
            },
        )
        assert module_name_for(tmp_path / "pkg/sub/mod.py") == "pkg.sub.mod"
        assert module_name_for(tmp_path / "pkg/sub/__init__.py") == "pkg.sub"

    def test_loose_script_maps_to_its_stem(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text("", encoding="utf-8")
        assert module_name_for(target) == "script"


class TestProgramGraph:
    def _graph(self, tmp_path) -> ProgramGraph:
        root = _tree(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.core import helper\n",
                "pkg/core.py": (
                    "import time\n"
                    "def helper(x):\n"
                    "    return x\n"
                    "class Box:\n"
                    "    def get(self):\n"
                    "        return 1\n"
                ),
                "pkg/uses.py": (
                    "import time as clock\n"
                    "from pkg.core import helper as h\n"
                    "from . import core\n"
                    "def caller(v):\n"
                    "    return h(core.helper(v))\n"
                ),
            },
        )
        return ProgramGraph.build(sorted(root.rglob("*.py")))

    def test_import_bindings_resolve_aliases(self, tmp_path):
        graph = self._graph(tmp_path)
        uses = graph.modules["pkg.uses"]
        assert uses.imports["clock"] == "time"
        assert uses.imports["h"] == "pkg.core.helper"
        assert uses.imports["core"] == "pkg.core"

    def test_resolve_function_across_modules(self, tmp_path):
        graph = self._graph(tmp_path)
        uses = graph.modules["pkg.uses"]
        import ast

        call = ast.parse("h(1)").body[0].value
        qual = graph.resolve_call(uses, call)
        assert qual == "pkg.core.helper"
        resolved = graph.resolve_function(qual)
        assert resolved is not None
        owner, func = resolved
        assert owner.name == "pkg.core" and func.name == "helper"

    def test_dealias_follows_package_reexports(self, tmp_path):
        graph = self._graph(tmp_path)
        # pkg/__init__.py re-exports helper; a reference through the
        # package lands on the defining module.
        resolved = graph.resolve_function("pkg.helper")
        assert resolved is not None
        assert resolved[0].name == "pkg.core"

    def test_methods_are_registered_with_class_prefix(self, tmp_path):
        graph = self._graph(tmp_path)
        assert "Box.get" in graph.modules["pkg.core"].functions

    def test_unparsable_file_is_skipped_not_fatal(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def (:\n", encoding="utf-8")
        graph = ProgramGraph.build([target])
        assert graph.modules == {}

    def test_shared_cache_is_not_reparsed(self, tmp_path):
        root = _tree(tmp_path, {"solo.py": "x = 1\n"})
        cache = ASTCache()
        cache.load(root / "solo.py")
        ProgramGraph.build([root / "solo.py"], cache=cache)
        assert cache.parse_count == 1

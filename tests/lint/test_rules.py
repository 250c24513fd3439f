"""Per-rule contract: each rule fires on its violation fixture and
stays silent once the fixture's ``disable`` pragma is in place."""

from pathlib import Path

import pytest

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(name, code):
    """Lint one fixture with a single rule selected."""
    return lint_file(FIXTURES / name, select=[code])


class TestRL001RawPageArithmetic:
    def test_fires_on_every_shape(self):
        found = findings_for("rl001_violation.py", "RL001")
        assert len(found) == 5
        messages = " | ".join(f.message for f in found)
        assert "4096" in messages
        assert "12-bit page shift" in messages
        assert "96 MiB" in messages
        assert "128 MiB" in messages

    def test_silent_under_pragma(self):
        assert findings_for("rl001_suppressed.py", "RL001") == []

    def test_units_module_is_exempt(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        units = pkg / "units.py"
        units.write_text('__all__ = ["PAGE_SIZE"]\nPAGE_SIZE = 4 * 1024\nX = 2 * 4096\n')
        assert lint_file(units, select=["RL001"]) == []

    def test_findings_carry_location(self):
        finding = findings_for("rl001_violation.py", "RL001")[0]
        assert finding.code == "RL001"
        assert finding.path.endswith("rl001_violation.py")
        assert finding.line == 7  # the `npages * 4096` line
        assert str(finding).startswith(finding.path)


class TestRL002UnseededRandomness:
    def test_fires_on_every_shape(self):
        found = findings_for("rl002_violation.py", "RL002")
        # random.random(), random.Random(), Random(), randint(),
        # random.seed(), random.SystemRandom()
        assert len(found) == 6

    def test_silent_under_pragma_and_on_seeded_uses(self):
        assert findings_for("rl002_suppressed.py", "RL002") == []


class TestRL003FrozenConfigMutation:
    def test_fires_outside_post_init(self):
        found = findings_for("rl003_violation.py", "RL003")
        assert len(found) == 2
        assert all("__post_init__" in f.message for f in found)

    def test_silent_under_pragma_and_in_post_init(self):
        assert findings_for("rl003_suppressed.py", "RL003") == []


class TestRL004FloatPageArithmetic:
    def test_fires_on_every_shape(self):
        found = findings_for("rl004_violation.py", "RL004")
        # module assign, augmented assign, comparison, binop
        assert len(found) == 4
        idents = " | ".join(f.message for f in found)
        assert "PreloadCounter" in idents
        assert "total_cycles" in idents
        assert "resident_pages" in idents
        assert "aex_cycles" in idents

    def test_silent_under_pragma_and_on_int_arithmetic(self):
        assert findings_for("rl004_suppressed.py", "RL004") == []


class TestRL005MissingDunderAll:
    def test_fires_on_public_module_without_all(self):
        found = findings_for("rl005_violation.py", "RL005")
        assert len(found) == 1
        assert found[0].line == 1

    def test_silent_under_file_wide_pragma(self):
        assert findings_for("rl005_suppressed.py", "RL005") == []

    def test_scripts_outside_packages_are_exempt(self, tmp_path):
        script = tmp_path / "calibrate.py"
        script.write_text("x = 1\n")
        assert lint_file(script, select=["RL005"]) == []

    def test_private_and_test_modules_are_exempt(self, tmp_path):
        (tmp_path / "__init__.py").write_text("")
        for name in ("_private.py", "test_thing.py", "conftest.py"):
            mod = tmp_path / name
            mod.write_text("x = 1\n")
            assert lint_file(mod, select=["RL005"]) == []


class TestRL006DirectPrint:
    def test_fires_on_each_print_call(self):
        found = findings_for("repro/rl006_violation.py", "RL006")
        assert len(found) == 2
        assert all("print()" in f.message for f in found)

    def test_silent_under_pragma_and_on_references(self):
        assert findings_for("repro/rl006_suppressed.py", "RL006") == []

    @pytest.mark.parametrize(
        "relpath", ["repro/cli.py", "repro/analysis/report.py"]
    )
    def test_sanctioned_writers_are_exempt(self, tmp_path, relpath):
        mod = tmp_path / relpath
        mod.parent.mkdir(parents=True, exist_ok=True)
        mod.write_text('__all__ = []\nprint("ok")\n')
        assert lint_file(mod, select=["RL006"]) == []

    def test_code_outside_the_package_is_exempt(self, tmp_path):
        script = tmp_path / "tools" / "calibrate.py"
        script.parent.mkdir()
        script.write_text('print("calibrating")\n')
        assert lint_file(script, select=["RL006"]) == []


class TestRL007StrayMultiprocessing:
    def test_fires_on_imports_and_attribute_use(self):
        found = findings_for("rl007_violation.py", "RL007")
        # import multiprocessing, from concurrent.futures import
        # ProcessPoolExecutor, from multiprocessing import Pool, and the
        # concurrent.futures.ProcessPoolExecutor attribute reference.
        assert len(found) == 4
        messages = " | ".join(f.message for f in found)
        assert "repro.sim.parallel" in messages

    def test_silent_under_pragma_and_on_run_jobs(self):
        assert findings_for("rl007_suppressed.py", "RL007") == []

    def test_sanctioned_runner_module_is_exempt(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "parallel.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "__all__ = []\nfrom concurrent.futures import ProcessPoolExecutor\n"
        )
        assert lint_file(mod, select=["RL007"]) == []


class TestRL008BareSleep:
    def test_fires_on_imports_and_calls(self):
        found = findings_for("rl008_violation.py", "RL008")
        # from time import sleep, time.sleep(), sleep()
        assert len(found) == 3
        messages = " | ".join(f.message for f in found)
        assert "repro.robust" in messages

    def test_silent_under_pragma_and_on_robust_sleep(self):
        assert findings_for("rl008_suppressed.py", "RL008") == []

    def test_sanctioned_resilience_package_is_exempt(self, tmp_path):
        mod = tmp_path / "repro" / "robust" / "faults.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("__all__ = []\nimport time\ntime.sleep(0.01)\n")
        assert lint_file(mod, select=["RL008"]) == []


class TestRL009AdHocExecSpan:
    def test_fires_on_dict_literal_and_dict_call(self):
        found = findings_for("repro/robust/rl009_violation.py", "RL009")
        # {"kind": ..., "job": ..., "attempt": ...} and dict(kind=, job=)
        assert len(found) == 2
        messages = " | ".join(f.message for f in found)
        assert "exec_telemetry" in messages

    def test_silent_under_pragma_and_on_unrelated_dicts(self):
        assert findings_for("repro/robust/rl009_suppressed.py", "RL009") == []

    def test_job_runner_module_is_in_scope(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "parallel.py"
        mod.parent.mkdir(parents=True)
        mod.write_text('__all__ = []\nspan = {"kind": "attempt", "job": 0}\n')
        assert len(lint_file(mod, select=["RL009"])) == 1

    def test_code_outside_the_execution_layer_is_exempt(self, tmp_path):
        mod = tmp_path / "repro" / "obs" / "exec_telemetry.py"
        mod.parent.mkdir(parents=True)
        mod.write_text('__all__ = []\nspan = {"kind": "attempt", "job": 0}\n')
        assert lint_file(mod, select=["RL009"]) == []


class TestRL010StrayLedgerEmission:
    def test_fires_on_each_ledger_call(self):
        found = findings_for("repro/rl010_violation.py", "RL010")
        # ledger_hit() and ledger_fault()
        assert len(found) == 2
        messages = " | ".join(f.message for f in found)
        assert "repro.enclave.driver" in messages

    def test_silent_under_pragma_and_on_non_ledger_attributes(self):
        assert findings_for("repro/rl010_suppressed.py", "RL010") == []

    @pytest.mark.parametrize(
        "relpath", ["repro/obs/paging.py", "repro/enclave/driver.py"]
    )
    def test_sanctioned_emitters_are_exempt(self, tmp_path, relpath):
        mod = tmp_path / relpath
        mod.parent.mkdir(parents=True, exist_ok=True)
        mod.write_text("__all__ = []\nself._profiler.ledger_hit(page, now)\n")
        assert lint_file(mod, select=["RL010"]) == []

    def test_code_outside_the_package_is_exempt(self, tmp_path):
        mod = tmp_path / "tools" / "poke.py"
        mod.parent.mkdir()
        mod.write_text("profiler.ledger_hit(0, 0)\n")
        assert lint_file(mod, select=["RL010"]) == []


class TestRL012StraySeriesEmission:
    def test_fires_on_each_series_call(self):
        found = findings_for("repro/rl012_violation.py", "RL012")
        # series_tick() and series_rebalance()
        assert len(found) == 2
        messages = " | ".join(f.message for f in found)
        assert "simulate_fleet" in messages

    def test_silent_under_pragma_and_on_non_series_attributes(self):
        assert findings_for("repro/rl012_suppressed.py", "RL012") == []

    @pytest.mark.parametrize(
        "relpath", ["repro/sim/fleet.py", "repro/obs/fleet_telemetry.py"]
    )
    def test_sanctioned_emitters_are_exempt(self, tmp_path, relpath):
        mod = tmp_path / relpath
        mod.parent.mkdir(parents=True, exist_ok=True)
        mod.write_text("__all__ = []\ntelemetry.series_tick(now)\n")
        assert lint_file(mod, select=["RL012"]) == []

    def test_other_library_modules_are_in_scope(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "sweep.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("__all__ = []\ntelemetry.series_tick(now)\n")
        assert len(lint_file(mod, select=["RL012"])) == 1

    def test_code_outside_the_package_is_exempt(self, tmp_path):
        mod = tmp_path / "tools" / "poke.py"
        mod.parent.mkdir()
        mod.write_text("telemetry.series_tick(0)\n")
        assert lint_file(mod, select=["RL012"]) == []


@pytest.mark.parametrize(
    "code",
    [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL009", "RL010", "RL012",
    ],
)
def test_clean_fixture_is_silent_under_every_rule(code):
    assert findings_for("clean.py", code) == []

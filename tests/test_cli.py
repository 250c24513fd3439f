"""CLI smoke/behaviour tests (fast: tiny scale, short workloads)."""

import pytest

from repro.cli import main

SCALE = ["--scale", "64"]


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("lbm", "deepsjeng", "SIFT", "microbenchmark"):
            assert name in out


class TestRun:
    def test_run_baseline(self, capsys):
        assert main(["run", "leela", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "leela" in out and "baseline" in out
        assert "time breakdown" in out

    def test_run_dfp(self, capsys):
        assert main(["run", "lbm", "--scheme", "dfp-stop", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "dfp-stop" in out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "doom", *SCALE])


class TestCompare:
    def test_compare_normalizes_to_baseline(self, capsys):
        assert main(
            ["compare", "lbm", "--schemes", "baseline,dfp-stop", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "vs baseline" in out
        assert "1.000" in out  # baseline row


class TestResilienceFlags:
    """The shared --jobs/--retries/--timeout/--checkpoint/--resume flags."""

    def test_run_with_retries_routes_through_the_runner(self, capsys):
        assert main(["run", "leela", "--retries", "2", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "time breakdown" in out

    def test_run_metrics_compose_with_resilience(self, capsys):
        # PR 5: resilient jobs ship their metric dumps back with the
        # result envelope, so --metrics works under any policy.
        assert main(["run", "leela", "--jobs", "2", "--metrics", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        assert "app.accesses" in out

    def test_run_manifest_composes_with_resilience(self, tmp_path, capsys):
        # An observed resilient run's manifest records the same metrics
        # section a serial observed run records, plus the execution-
        # telemetry block — 'repro report' renders both.
        import json

        manifest = tmp_path / "m.json"
        assert main(
            ["run", "leela", "--jobs", "2", "--retries", "1",
             "--manifest", str(manifest), *SCALE]
        ) == 0
        document = json.loads(manifest.read_text())
        assert document["metrics"]
        assert document["exec_telemetry"]["schema"] == "repro.exec-telemetry/1"

    def test_run_resilient_manifest_matches_serial_observed(
        self, tmp_path, capsys
    ):
        # Passivity across the process boundary: the run-defining
        # manifest sections of an observed resilient run are byte-
        # identical to a serial observed run's (the exec_telemetry
        # block is extra and digest-excluded).
        import json

        serial = tmp_path / "serial.json"
        resilient = tmp_path / "resilient.json"
        assert main(["run", "leela", "--manifest", str(serial), *SCALE]) == 0
        assert main(
            ["run", "leela", "--jobs", "2", "--retries", "1",
             "--manifest", str(resilient), *SCALE]
        ) == 0
        a = json.loads(serial.read_text())
        b = json.loads(resilient.read_text())
        b.pop("exec_telemetry")
        assert a == b

    def test_run_rejects_resume_with_observation(self, tmp_path, capsys):
        # The one genuinely unsupported combination: checkpoint-
        # restored jobs never re-execute, so they ship no telemetry
        # and the merged dump would silently cover a partial fleet.
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["run", "leela", "--checkpoint", ckpt, "--resume",
             "--metrics", *SCALE]
        ) == 2
        assert "--resume" in capsys.readouterr().err

    def test_sweep_rejects_resume_with_observation(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        manifest = str(tmp_path / "fleet.json")
        assert main(
            ["sweep", "leela", "--param", "load_length", "--values", "1,4",
             "--checkpoint", ckpt, "--resume", "--manifest", manifest, *SCALE]
        ) == 2
        assert "--resume" in capsys.readouterr().err
        assert not (tmp_path / "fleet.json").exists()

    def test_compare_rejects_resume_with_observation(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["compare", "lbm", "--schemes", "baseline,dfp-stop",
             "--checkpoint", ckpt, "--resume", "--metrics", *SCALE]
        ) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_checkpoint_rejected(self, capsys):
        assert main(["run", "leela", "--resume", *SCALE]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_compare_accepts_execution_flags(self, capsys):
        assert main(
            [
                "compare", "lbm", "--schemes", "baseline,dfp-stop",
                "--jobs", "2", "--retries", "1", "--timeout", "120", *SCALE,
            ]
        ) == 0
        assert "vs baseline" in capsys.readouterr().out

    def test_sweep_checkpoint_and_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        args = [
            "sweep", "leela", "--param", "load_length", "--values", "1,4",
            "--checkpoint", ckpt, *SCALE,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert len(list((tmp_path / "ckpt").glob("*.manifest.json"))) == 2
        # The resumed invocation serves both points from the records
        # and renders the identical table.
        assert main([*args, "--resume"]) == 0
        assert capsys.readouterr().out == first


class TestProfile:
    def test_profile_prints_plan(self, capsys):
        assert main(["profile", "MSER", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "instrumentation point" in out
        assert "union_find" in out

    def test_profile_custom_threshold(self, capsys):
        assert main(["profile", "MSER", "--threshold", "0.9", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "0 instrumentation point(s)" in out

    def test_profile_schemes_renders_profiles_and_diff(self, capsys):
        assert main(
            ["profile", "lbm", "--schemes", "dfp-stop,sip", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "paging profile — lbm / dfp-stop" in out
        assert "paging profile — lbm / sip" in out
        assert "effectiveness diff — dfp-stop vs sip" in out
        assert "preload ledger" in out
        assert "fault attribution" in out

    def test_profile_schemes_writes_validated_artifacts(self, tmp_path, capsys):
        import json

        artifacts = tmp_path / "artifacts"
        assert main(
            ["profile", "lbm", "--schemes", "dfp-stop,sip",
             "--artifacts", str(artifacts), *SCALE]
        ) == 0
        from repro.obs import load_paging_profile, validate_chrome_trace

        profiles = sorted(artifacts.glob("*.paging-profile.json"))
        assert [p.name for p in profiles] == [
            "lbm-dfp-stop.paging-profile.json",
            "lbm-sip.paging-profile.json",
        ]
        for path in profiles:
            load_paging_profile(path)  # validates the block
        traces = sorted(artifacts.glob("*.trace.json"))
        assert len(traces) == 2
        for path in traces:
            counts = validate_chrome_trace(json.loads(path.read_text()))
            assert counts["tracks"] >= 4  # app/channel/scan + residency
        assert sorted(p.name for p in artifacts.glob("*.heatmap.txt")) == [
            "lbm-dfp-stop.heatmap.txt",
            "lbm-sip.heatmap.txt",
        ]

    def test_profile_schemes_json_format(self, capsys):
        import json

        assert main(
            ["profile", "lbm", "--schemes", "dfp-stop,sip",
             "--format", "json", *SCALE]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document["profiles"]) == {"dfp-stop", "sip"}
        assert "sip" in document["diffs"]

    def test_profile_schemes_rejects_unknown_scheme(self, capsys):
        assert main(
            ["profile", "lbm", "--schemes", "dfp-stop,warp", *SCALE]
        ) == 2
        assert "warp" in capsys.readouterr().err


class TestPagingProfileRun:
    """--paging-profile on repro run, and its report rendering."""

    def test_run_writes_profile_and_embeds_manifest_block(
        self, tmp_path, capsys
    ):
        import json

        profile = tmp_path / "run.paging-profile.json"
        manifest = tmp_path / "run.manifest.json"
        assert main(
            ["run", "lbm", "--scheme", "dfp-stop",
             "--paging-profile", str(profile),
             "--manifest", str(manifest), *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "paging profile" in out
        assert "precision" in out
        from repro.obs import load_manifest, load_paging_profile

        block = load_paging_profile(profile)
        document = load_manifest(manifest)
        assert document["paging_profile"] == json.loads(
            json.dumps(block)
        )

    def test_profiled_manifest_bytes_match_blind_run(self, tmp_path, capsys):
        # Passivity through the CLI: everything but the embedded block
        # is byte-identical, and the digest ignores the block.
        import json

        blind = tmp_path / "blind.json"
        observed = tmp_path / "observed.json"
        assert main(["run", "lbm", "--manifest", str(blind), *SCALE]) == 0
        assert main(
            ["run", "lbm", "--manifest", str(observed),
             "--paging-profile", str(tmp_path / "p.json"), *SCALE]
        ) == 0
        a = json.loads(blind.read_text())
        b = json.loads(observed.read_text())
        b.pop("paging_profile")
        assert a == b

    def test_run_rejects_profiling_with_resilience(self, tmp_path, capsys):
        assert main(
            ["run", "lbm", "--jobs", "2",
             "--paging-profile", str(tmp_path / "p.json"), *SCALE]
        ) == 2
        assert "--paging-profile" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_report_diffs_two_profiled_manifests(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(
            ["run", "lbm", "--scheme", "dfp-stop", "--manifest", str(a),
             "--paging-profile", str(tmp_path / "pa.json"), *SCALE]
        ) == 0
        assert main(
            ["run", "lbm", "--scheme", "sip", "--manifest", str(b),
             "--paging-profile", str(tmp_path / "pb.json"), *SCALE]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "effectiveness diff — dfp-stop vs sip" in out

    def test_report_renders_single_profiled_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(
            ["run", "lbm", "--manifest", str(manifest),
             "--paging-profile", str(tmp_path / "p.json"), *SCALE]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "paging profile" in out
        assert "phase(s)" in out


class TestOpenMetrics:
    def test_run_metrics_openmetrics_format(self, capsys):
        assert main(
            ["run", "leela", "--metrics",
             "--metrics-format", "openmetrics", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_app_accesses gauge" in out
        assert out.rstrip().endswith("# EOF")

    def test_fleet_metrics_openmetrics_format(self, capsys):
        assert main(
            ["compare", "lbm", "--schemes", "baseline,dfp-stop",
             "--jobs", "2", "--metrics",
             "--metrics-format", "openmetrics", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_app_accesses gauge" in out
        assert "# EOF" in out


class TestTraceDropWarning:
    def test_overflowing_ring_buffer_warns_on_stderr(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(
            ["run", "lbm", "--scheme", "dfp-stop",
             "--trace", str(trace), "--trace-capacity", "64", *SCALE]
        ) == 0
        err = capsys.readouterr().err
        assert "dropped" in err
        assert "--trace-capacity" in err

    def test_no_warning_when_nothing_dropped(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["run", "leela", "--trace", str(trace), *SCALE]) == 0
        assert "dropped" not in capsys.readouterr().err


class TestClassify:
    def test_classify_selected(self, capsys):
        assert main(["classify", "lbm", "leela", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "regular" in out
        assert "small working set" in out


class TestSweep:
    def test_sweep_load_length(self, capsys):
        assert main(
            [
                "sweep",
                "leela",
                "--param",
                "load_length",
                "--values",
                "1,4",
                *SCALE,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "load_length sweep" in out

    def test_sweep_float_param(self, capsys):
        assert main(
            [
                "sweep",
                "leela",
                "--param",
                "valve_ratio",
                "--values",
                "0.5,0.8",
                *SCALE,
            ]
        ) == 0


class TestFleetObservation:
    """--metrics/--trace/--manifest on compare/sweep (PR 5)."""

    def test_compare_metrics_merged_across_schemes(self, capsys):
        assert main(
            ["compare", "lbm", "--schemes", "baseline,dfp-stop",
             "--jobs", "2", "--metrics", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "vs baseline" in out
        assert "metrics (merged across jobs)" in out

    def test_sweep_writes_fleet_manifest_and_exec_trace(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "fleet.json"
        trace = tmp_path / "exec.trace.json"
        assert main(
            ["sweep", "leela", "--param", "load_length", "--values", "1,4",
             "--jobs", "2", "--retries", "1", "--metrics",
             "--trace", str(trace), "--manifest", str(manifest), *SCALE]
        ) == 0
        from repro.obs import load_manifest, validate_chrome_trace

        document = load_manifest(manifest)  # validates both schemas
        assert document["run"]["runs"] == 2
        assert document["exec_telemetry"]["jobs"]["total"] == 2
        counts = validate_chrome_trace(json.loads(trace.read_text()))
        assert counts["tracks"] >= 5  # app/channel/scan + runner + worker(s)

    def test_report_renders_single_fleet_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "fleet.json"
        assert main(
            ["sweep", "leela", "--param", "load_length", "--values", "1,4",
             "--jobs", "2", "--manifest", str(manifest), *SCALE]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "execution telemetry (fleet)" in out
        assert "totals:" in out

    def test_sweep_fleet_manifest_deterministic(self, tmp_path, capsys):
        args = lambda name: [
            "sweep", "leela", "--param", "load_length", "--values", "1,4",
            "--jobs", "2", "--retries", "1", "--metrics",
            "--manifest", str(tmp_path / name), *SCALE,
        ]
        assert main(args("a.json")) == 0
        assert main(args("b.json")) == 0
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()


class TestFleet:
    def test_list_scenarios(self, capsys):
        assert main(["fleet", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "steady-8", "churn-50"):
            assert name in out

    def test_smoke_scenario_renders_qos_table(self, capsys):
        assert main(["fleet", "smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet scenario 'smoke'" in out
        assert "fault p99" in out
        assert "admitted" in out

    def test_policy_comparison_table(self, capsys):
        assert main(
            ["fleet", "smoke",
             "--policies", "shared-clock,static-partition,adaptive-quota"]
        ) == 0
        out = capsys.readouterr().out
        assert "under 3 EPC policies" in out
        for policy in ("shared-clock", "static-partition", "adaptive-quota"):
            assert policy in out

    def test_manifest_roundtrips_through_report(self, tmp_path, capsys):
        manifest = tmp_path / "fleet.json"
        assert main(
            ["fleet", "smoke", "--manifest", str(manifest)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "fleet scenario 'smoke'" in out

    def test_json_format_emits_the_manifest(self, capsys):
        import json

        assert main(["fleet", "smoke", "--format", "json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        fleet = manifest["extra"]["fleet"]
        assert fleet["schema"] == "repro.fleet-manifest/1"
        assert fleet["scenario"]["name"] == "smoke"

    def test_fleet_runs_are_byte_identical(self, tmp_path, capsys):
        for name in ("a.json", "b.json"):
            assert main(
                ["fleet", "smoke", "--seed", "9",
                 "--manifest", str(tmp_path / name)]
            ) == 0
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_scenario_name_required(self, capsys):
        assert main(["fleet"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["fleet", "warehouse-9000"]) == 2
        assert "warehouse-9000" in capsys.readouterr().err

    def test_policy_and_policies_conflict(self, capsys):
        assert main(
            ["fleet", "smoke", "--policy", "shared-clock",
             "--policies", "shared-clock,adaptive-quota"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_policies_with_manifest_rejected(self, capsys):
        assert main(
            ["fleet", "smoke", "--policies", "shared-clock,adaptive-quota",
             "--manifest", "out.json"]
        ) == 2
        assert "--manifest" in capsys.readouterr().err

    def test_timeseries_renders_sparklines_and_thrash(self, capsys):
        assert main(["fleet", "smoke", "--timeseries"]) == 0
        out = capsys.readouterr().out
        assert "fleet timeseries:" in out
        assert "faults/window" in out
        assert "thrash windows" in out

    def test_slo_implies_timeseries_and_renders_breaches(self, capsys):
        assert main(
            ["fleet", "smoke", "--slo", "fault_rate=0.01,wait_p99=1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet timeseries:" in out
        assert "SLO [" in out

    def test_bad_slo_spec_rejected(self, capsys):
        assert main(["fleet", "smoke", "--slo", "bogus=1"]) == 2
        assert "SLO" in capsys.readouterr().err

    def test_trace_and_openmetrics_artifacts(self, tmp_path, capsys):
        import json

        trace = tmp_path / "fleet.trace.json"
        metrics = tmp_path / "fleet.om"
        assert main(
            ["fleet", "smoke", "--trace", str(trace),
             "--openmetrics", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote chrome trace" in out
        assert "wrote openmetrics" in out
        document = json.loads(trace.read_text())
        assert any(e["ph"] == "C" for e in document["traceEvents"])
        text = metrics.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_tenant_faults{" in text

    def test_timeseries_manifest_matches_blind_manifest(self, tmp_path, capsys):
        import json

        blind = tmp_path / "blind.json"
        observed = tmp_path / "observed.json"
        assert main(["fleet", "smoke", "--manifest", str(blind)]) == 0
        assert main(
            ["fleet", "smoke", "--timeseries", "--manifest", str(observed)]
        ) == 0
        capsys.readouterr()
        a = json.loads(blind.read_text())
        b = json.loads(observed.read_text())
        block = b.pop("fleet_timeseries")
        assert block["schema"] == "repro.fleet-timeseries/1"
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_renders_embedded_timeseries(self, tmp_path, capsys):
        manifest = tmp_path / "fleet.json"
        assert main(
            ["fleet", "smoke", "--timeseries", "--manifest", str(manifest)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "fleet timeseries:" in out
        assert "thrash windows" in out

    def test_observation_flags_conflict_with_policies(self, capsys):
        assert main(
            ["fleet", "smoke", "--policies", "shared-clock,adaptive-quota",
             "--timeseries"]
        ) == 2
        assert "--timeseries" in capsys.readouterr().err

    def test_window_cycles_implies_timeseries(self, capsys):
        assert main(["fleet", "smoke", "--window-cycles", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "fleet timeseries:" in out

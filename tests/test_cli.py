"""Tests for the command-line interface."""

import io
import json
import pathlib

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def demo_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sample.docm"
    assert main(["demo", str(path), "--seed", "7"]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scan_classifier_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "x", "--classifier", "XGB"])


class TestDemo:
    def test_demo_writes_extractable_document(self, demo_document):
        from repro.ole.extractor import extract_macros_from_file

        result = extract_macros_from_file(demo_document)
        assert result.has_macros

    def test_demo_is_deterministic(self, tmp_path):
        a = tmp_path / "a.docm"
        b = tmp_path / "b.docm"
        main(["demo", str(a), "--seed", "3"])
        main(["demo", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestExtract:
    def test_extract_prints_sources(self, demo_document, capsys):
        assert main(["extract", str(demo_document)]) == 0
        out = capsys.readouterr().out
        assert "modules" in out
        assert "Sub " in out or "Function " in out

    def test_extract_missing_file(self, capsys):
        assert main(["extract", "/nonexistent/file.docm"]) == 1
        assert "file.docm" in capsys.readouterr().err

    def test_extract_non_document(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("hello")
        assert main(["extract", str(path)]) == 1


class TestDeobfuscate:
    def test_deobfuscate_recovers_keywords(self, demo_document, capsys):
        assert main(["deobfuscate", str(demo_document)]) == 0
        out = capsys.readouterr().out
        assert "deobfuscation:" in out
        # The demo payload hides a download/execute command.
        assert "powershell" in out.lower() or "http" in out.lower()


class TestScan:
    def test_scan_flags_demo_document(self, demo_document, capsys):
        # Exit status 2 = at least one obfuscated macro found.
        status = main(
            ["scan", str(demo_document), "--classifier", "RF", "--train-seed", "1"]
        )
        out = capsys.readouterr().out
        assert status == 2
        assert "OBFUSCATED" in out
        assert "AV aggregate" in out


@pytest.fixture(scope="module")
def scan_directory(tmp_path_factory, demo_document):
    """A directory mixing a real macro document with a corrupt one."""
    directory = tmp_path_factory.mktemp("scan_dir")
    (directory / "good.docm").write_bytes(demo_document.read_bytes())
    (directory / "corrupt.docm").write_bytes(b"PK\x07\x08 not a zip")
    return directory


def _scan_json(capsys, target, jobs):
    status = main(
        [
            "scan", str(target),
            "--classifier", "RF", "--train-seed", "1",
            "--format", "json", "--jobs", str(jobs),
        ]
    )
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return status, records


class TestScanJson:
    def test_one_record_per_file_and_partial_success(self, scan_directory, capsys):
        status, records = _scan_json(capsys, scan_directory, jobs=1)
        # Partial success (one corrupt file) still exits 0 in JSON mode.
        assert status == 0
        assert len(records) == 2
        by_name = {record["path"].rsplit("/", 1)[-1]: record for record in records}

        corrupt = by_name["corrupt.docm"]
        assert corrupt["ok"] is False
        assert "zip" in corrupt["error"]
        assert corrupt["macros"] == []

        good = by_name["good.docm"]
        assert good["ok"] is True
        assert good["error"] is None
        assert good["macros"][0]["verdict"] == "obfuscated"
        assert 0.0 <= good["macros"][0]["score"] <= 1.0
        assert good["av"]["total_vendors"] > 0

    def test_anti_analysis_lists_aa_rule_ids(self, tmp_path, capsys):
        from repro.corpus.documents import build_document_bytes

        source = (
            "Sub Document_Open()\n"
            '    cmd = ActiveDocument.Variables("k").Value()\n'
            "    Shell cmd, 0\n"
            "End Sub\n"
        )
        target = tmp_path / "hidden.docm"
        target.write_bytes(build_document_bytes([source], "docm"))
        _, records = _scan_json(capsys, target, jobs=1)
        (listed,) = records[0]["anti_analysis"].values()
        assert listed == ["aa-hidden-strings"]

    def test_jobs_parity(self, scan_directory, capsys):
        _, serial = _scan_json(capsys, scan_directory, jobs=1)
        _, parallel = _scan_json(capsys, scan_directory, jobs=2)
        assert serial == parallel

    def test_json_mode_keeps_stdout_clean(self, scan_directory, capsys):
        main(
            [
                "scan", str(scan_directory / "good.docm"),
                "--classifier", "RF", "--train-seed", "1", "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            json.loads(line)  # every stdout line is valid JSON
        assert "training" in captured.err


@pytest.fixture(scope="module")
def lint_directory(tmp_path_factory, demo_document):
    """Obfuscated document + clean .bas source + an unrelated text file."""
    directory = tmp_path_factory.mktemp("lint_dir")
    (directory / "evil.docm").write_bytes(demo_document.read_bytes())
    (directory / "clean.bas").write_text(
        "Sub FormatHeader()\n"
        "    Dim rowCount As Long\n"
        "    rowCount = 3\n"
        "    Rows(rowCount).Font.Bold = True\n"
        "End Sub\n"
    )
    (directory / "readme.txt").write_text("not VBA at all\n")
    return directory


class TestLint:
    def test_lint_reports_findings_with_locations(self, lint_directory, capsys):
        status = main(["lint", str(lint_directory / "evil.docm")])
        out = capsys.readouterr().out
        assert status == 2  # findings present
        assert "findings" in out
        # Per-finding lines carry line:col, rule id, class and severity.
        assert "[o1-gibberish-identifier/O1 medium]" in out

    def test_lint_clean_source_exits_zero(self, lint_directory, capsys):
        status = main(["lint", str(lint_directory / "clean.bas")])
        out = capsys.readouterr().out
        assert status == 0
        assert "0 findings" in out

    def test_lint_directory_skips_non_macro_files(self, lint_directory, capsys):
        status = main(["lint", str(lint_directory), "--format", "json"])
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert status == 0
        by_name = {r["path"].rsplit("/", 1)[-1]: r for r in records}
        assert by_name["readme.txt"]["macros"] == []
        assert by_name["clean.bas"]["container"] == "text"
        assert by_name["clean.bas"]["macros"][0]["findings"] == []
        evil = by_name["evil.docm"]["macros"][0]["findings"]
        assert evil and {"rule_id", "line", "span", "message"} <= set(evil[0])

    def test_lint_rule_subset_and_unknown_rule(self, lint_directory, capsys):
        status = main(
            [
                "lint", str(lint_directory / "evil.docm"),
                "--rules", "o3-chr-chain,o3-decode-loop", "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        record = json.loads(out.splitlines()[0])
        kinds = {
            f["rule_id"]
            for macro in record["macros"]
            for f in macro["findings"]
        }
        assert status == 0
        assert kinds <= {"o3-chr-chain", "o3-decode-loop"}
        assert main(["lint", "x.bas", "--rules", "bogus-rule"]) == 1

    def test_lint_jobs_parity(self, lint_directory, capsys):
        def run(jobs):
            main(["lint", str(lint_directory), "--format", "json",
                  "--jobs", str(jobs)])
            out = capsys.readouterr().out
            return [json.loads(line) for line in out.splitlines() if line.strip()]

        assert run(1) == run(2)


class TestScanExplain:
    def test_explain_adds_per_class_counts(self, demo_document, capsys):
        status = main(
            [
                "scan", str(demo_document), "--explain",
                "--classifier", "RF", "--train-seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert status == 2
        assert "[lint]" in out
        assert "O1" in out  # per-class summary next to the verdict

    def test_explain_findings_reach_json(self, demo_document, capsys):
        main(
            [
                "scan", str(demo_document), "--explain",
                "--classifier", "RF", "--train-seed", "1", "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        record = json.loads(out.splitlines()[0])
        assert record["macros"][0]["findings"]

    def test_without_explain_no_findings_collected(self, demo_document, capsys):
        main(
            [
                "scan", str(demo_document),
                "--classifier", "RF", "--train-seed", "1", "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        record = json.loads(out.splitlines()[0])
        assert record["macros"][0]["findings"] == []


class TestExtractJson:
    def test_extract_json_records(self, demo_document, tmp_path, capsys):
        bogus = tmp_path / "bogus.docm"
        bogus.write_bytes(b"\x00\x01\x02")
        status = main(
            ["extract", str(demo_document), str(bogus), "--format", "json"]
        )
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert status == 0
        assert [record["ok"] for record in records] == [True, False]
        assert records[0]["macros"][0]["chars"] > 0


class TestTelemetryCli:
    def test_lint_stats_prints_summary_to_stderr(self, lint_directory, capsys):
        main(["lint", str(lint_directory), "--stats"])
        captured = capsys.readouterr()
        assert "TELEMETRY" in captured.err
        for token in ("p50", "p95", "docs/s", "hit rate", "extract"):
            assert token in captured.err
        assert "TELEMETRY" not in captured.out

    def test_scan_stats_includes_cache_and_throughput(
        self, scan_directory, capsys
    ):
        main(
            [
                "scan", str(scan_directory), "--stats",
                "--classifier", "RF", "--train-seed", "1", "--jobs", "2",
            ]
        )
        err = capsys.readouterr().err
        assert "docs/s" in err
        assert "hit rate" in err
        assert "classify" in err

    def test_trace_out_writes_schema_valid_events(
        self, lint_directory, tmp_path, capsys
    ):
        from tests.obs import schema_validator

        trace = tmp_path / "events.jsonl"
        main(["lint", str(lint_directory), "--trace-out", str(trace)])
        capsys.readouterr()
        count = schema_validator.validate_lines(trace.read_text())
        assert count > 0

    def test_trace_out_jobs_parity_of_span_counts(
        self, lint_directory, tmp_path, capsys
    ):
        from repro.obs import read_events

        def span_counts(jobs):
            trace = tmp_path / f"events_{jobs}.jsonl"
            main(
                ["lint", str(lint_directory), "--trace-out", str(trace),
                 "--jobs", str(jobs)]
            )
            capsys.readouterr()
            counts = {}
            for event in read_events(trace):
                counts[event["name"]] = counts.get(event["name"], 0) + 1
            return counts

        assert span_counts(1) == span_counts(2)

    def test_telemetry_off_by_default(self, lint_directory, capsys):
        main(["lint", str(lint_directory)])
        captured = capsys.readouterr()
        assert "TELEMETRY" not in captured.err


class TestStatsCommand:
    @pytest.fixture()
    def trace_file(self, lint_directory, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main(["lint", str(lint_directory), "--trace-out", str(trace)])
        capsys.readouterr()
        return trace

    def test_stats_renders_table(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "TRACE" in out
        assert "p95" in out
        assert "max" in out
        assert "extract" in out

    def test_stats_json_aggregates(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--format", "json"]) == 0
        aggregated = json.loads(capsys.readouterr().out)
        assert "extract" in aggregated
        stats = aggregated["extract"]
        assert stats["count"] >= 1
        assert 0 <= stats["p50"] <= stats["p95"] <= stats["max"]

    def test_stats_missing_file_fails(self, capsys):
        assert main(["stats", "/nonexistent/events.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_stats_skips_corrupt_lines(self, trace_file, capsys):
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span"}\n')   # schema-invalid
            handle.write('{"truncated mid-wri')  # torn final line
        assert main(["stats", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 corrupt line" in captured.err
        assert "lines skipped: 2" in captured.out

    def test_stats_json_reports_skipped_lines(self, trace_file, capsys):
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        assert main(["stats", str(trace_file), "--format", "json"]) == 0
        aggregated = json.loads(capsys.readouterr().out)
        assert aggregated["lines_skipped"] == 1

    def test_stats_all_corrupt_trace_still_succeeds(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n!!!\n')
        assert main(["stats", str(bad)]) == 0
        captured = capsys.readouterr()
        assert "no events" in captured.out
        assert "skipped 2 corrupt line" in captured.err


class TestRecursiveWalk:
    @pytest.fixture()
    def nested_tree(self, tmp_path):
        root = tmp_path / "tree"
        deep = root / "a" / "b"
        deep.mkdir(parents=True)
        (root / "top.bas").write_text("Sub Top()\nEnd Sub\n")
        (root / "a" / "mid.bas").write_text("Sub Mid()\nEnd Sub\n")
        (deep / "deep.bas").write_text("Sub Deep()\nEnd Sub\n")
        return root

    def _linted_paths(self, capsys, argv):
        main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        return {
            json.loads(line)["path"].rsplit("/", 1)[-1]
            for line in out.splitlines()
            if line.strip()
        }

    def test_default_walk_stays_flat(self, nested_tree, capsys):
        paths = self._linted_paths(capsys, ["lint", str(nested_tree)])
        assert paths == {"top.bas"}

    def test_recursive_walk_finds_nested_files(self, nested_tree, capsys):
        paths = self._linted_paths(
            capsys, ["lint", str(nested_tree), "--recursive"]
        )
        assert paths == {"top.bas", "mid.bas", "deep.bas"}

    def test_max_depth_guard_skips_deep_subtrees(self, nested_tree, capsys):
        paths = self._linted_paths(
            capsys,
            ["lint", str(nested_tree), "--recursive", "--max-depth", "1"],
        )
        assert paths == {"top.bas", "mid.bas"}

    def test_skipped_inputs_reported_in_stats(self, nested_tree, capsys):
        main(
            ["lint", str(nested_tree), "--recursive", "--max-depth", "1",
             "--stats"]
        )
        err = capsys.readouterr().err
        assert "1 inputs skipped" in err

    def test_recursive_extract_matches_lint_walk(self, nested_tree, capsys):
        status = main(
            ["extract", str(nested_tree), "--recursive", "--format", "json"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert len(out.splitlines()) == 3


def _json_records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestArchiveExpansion:
    @pytest.fixture()
    def bundle(self, demo_document, tmp_path):
        import zipfile

        path = tmp_path / "bundle.zip"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.write(demo_document, "inner/sample.docm")
            archive.writestr("notes.txt", "not a document")
        return path

    def test_extract_expands_archive_members(self, bundle, capsys):
        assert main(["extract", str(bundle), "--format", "json"]) == 0
        records = _json_records(capsys)
        by_path = {record["path"]: record for record in records}
        docm = by_path[f"{bundle}!inner/sample.docm"]
        assert docm["ok"] and docm["macros"]
        assert f"{bundle}!notes.txt" in by_path  # error record, still present

    def test_docm_itself_is_never_expanded(self, demo_document, capsys):
        assert main(["extract", str(demo_document), "--format", "json"]) == 0
        [record] = _json_records(capsys)
        assert record["path"] == str(demo_document)
        assert record["ok"]

    def test_zip_bomb_becomes_one_degraded_record(self, tmp_path, capsys):
        import zipfile

        bomb = tmp_path / "bomb.zip"
        with zipfile.ZipFile(bomb, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("boom.bin", b"\x00" * (8 << 20))  # ~5000x ratio
        assert main(["extract", str(bomb), "--format", "json"]) == 0
        [record] = _json_records(capsys)
        assert record["path"] == str(bomb)
        assert record["degraded"] and not record["ok"]
        assert "archive refused" in record["error"]

    def test_no_archives_flag_disables_expansion(self, bundle, capsys):
        assert main(
            ["extract", str(bundle), "--no-archives", "--format", "json"]
        ) == 0
        [record] = _json_records(capsys)
        assert record["path"] == str(bundle)
        assert not record["ok"]  # fed to the extractor as-is, which refuses it

    def test_lint_walks_into_archives_too(self, bundle, capsys):
        assert main(["lint", str(bundle), "--format", "json"]) == 0
        paths = {record["path"] for record in _json_records(capsys)}
        assert f"{bundle}!inner/sample.docm" in paths

    @pytest.mark.parametrize("mode,suffix", [("w", "tar"), ("w:gz", "tar.gz")])
    def test_extract_expands_tar_feeds(
        self, demo_document, tmp_path, capsys, mode, suffix
    ):
        import tarfile

        path = tmp_path / f"feed.{suffix}"
        with tarfile.open(path, mode) as archive:
            archive.add(demo_document, arcname="inner/sample.docm")
        assert main(["extract", str(path), "--format", "json"]) == 0
        [record] = _json_records(capsys)
        assert record["path"] == f"{path}!inner/sample.docm"
        assert record["ok"] and record["macros"]

    def test_extract_expands_zip_in_zip_one_level(
        self, demo_document, tmp_path, capsys
    ):
        import zipfile

        inner = io.BytesIO()
        with zipfile.ZipFile(inner, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.write(demo_document, "deep/sample.docm")
        path = tmp_path / "outer.zip"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("inner.zip", inner.getvalue())
        assert main(["extract", str(path), "--format", "json"]) == 0
        [record] = _json_records(capsys)
        assert record["path"] == f"{path}!inner.zip!deep/sample.docm"
        assert record["ok"] and record["macros"]


class TestChaosAndQuarantine:
    def test_chaos_raise_degrades_without_killing_the_run(
        self, demo_document, capsys
    ):
        status = main(
            ["extract", str(demo_document), "--format", "json",
             "--chaos", "raise:sample"]
        )
        assert status == 0
        [record] = _json_records(capsys)
        assert record["degraded"] and not record["ok"]
        assert "ChaosError" in record["error"]

    def test_bad_chaos_spec_is_a_usage_error(self, demo_document, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", str(demo_document), "--chaos", "explode:sample"])
        assert excinfo.value.code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_quarantine_out_writes_report(self, demo_document, tmp_path, capsys):
        report_path = tmp_path / "quarantine.json"
        status = main(
            ["extract", str(demo_document), "--format", "json",
             "--chaos", "raise:sample", "--quarantine-out", str(report_path)]
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["total_records"] == 1
        assert report["degraded_count"] == 1
        assert report["quarantined_count"] == 0
        assert "quarantine report" in capsys.readouterr().err

    def test_timeout_flags_are_accepted(self, demo_document, capsys):
        status = main(
            ["extract", str(demo_document), "--format", "json",
             "--timeout", "30", "--stage-timeout", "10"]
        )
        assert status == 0
        [record] = _json_records(capsys)
        assert record["ok"]


class TestBudgetPresets:
    def _budget_for(self, argv):
        from repro.cli import _make_budget

        return _make_budget(build_parser().parse_args(argv))

    def test_default_preset_is_the_library_default(self):
        from repro.resilience import DEFAULT_BUDGET

        assert self._budget_for(["extract", "x"]) == DEFAULT_BUDGET

    def test_strict_preset_arms_the_watchdog(self):
        from repro.resilience import STRICT_BUDGET

        budget = self._budget_for(["extract", "x", "--budget", "strict"])
        assert budget == STRICT_BUDGET
        assert budget.stage_timeout_s is not None
        assert budget.wall_clock_s < 30.0

    def test_off_preset_disables_every_limit(self):
        import dataclasses

        from repro.resilience import UNLIMITED_BUDGET

        budget = self._budget_for(["extract", "x", "--budget", "off"])
        assert budget == UNLIMITED_BUDGET
        assert all(
            getattr(budget, field.name) is None
            for field in dataclasses.fields(budget)
        )

    def test_fine_grained_flags_override_the_preset(self):
        budget = self._budget_for(
            ["extract", "x", "--budget", "strict", "--timeout", "3"]
        )
        assert budget.wall_clock_s == 3.0
        assert budget.stage_timeout_s == 5.0  # rest of strict kept

    def test_unknown_preset_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["extract", "x", "--budget", "lenient"])

    def test_strict_preset_runs_a_batch(self, demo_document, capsys):
        status = main(
            ["extract", str(demo_document), "--format", "json",
             "--budget", "strict"]
        )
        assert status == 0
        [record] = _json_records(capsys)
        assert record["ok"]


class TestStreamingCli:
    def test_window_flag_bounds_the_batch(self, scan_directory, capsys):
        status = main(
            ["extract", str(scan_directory), "--format", "json",
             "--jobs", "2", "--window", "2"]
        )
        assert status == 0
        assert _json_records(capsys)


class TestReplay:
    @pytest.fixture()
    def quarantine_report(self, tmp_path, monkeypatch, capsys):
        """Poison one of two documents, quarantine it, return the report."""
        from repro.resilience import recovery as recovery_module

        monkeypatch.setattr(recovery_module, "_sleep", lambda delay: None)
        good = tmp_path / "good.docm"
        bad = tmp_path / "bad.docm"
        assert main(["demo", str(good), "--seed", "5"]) == 0
        assert main(["demo", str(bad), "--seed", "6"]) == 0
        report = tmp_path / "quarantine.json"
        status = main(
            ["extract", str(good), str(bad), "--format", "json",
             "--jobs", "2", "--chaos", "exit:bad.docm",
             "--quarantine-out", str(report)]
        )
        capsys.readouterr()
        assert status == 0
        payload = json.loads(report.read_text())
        assert payload["quarantined_count"] == 1
        assert payload["quarantined"][0]["path"] == str(bad)
        return report

    def test_replay_reanalyzes_quarantined_documents(
        self, quarantine_report, capsys
    ):
        status = main(
            ["extract", "--replay", str(quarantine_report), "--format", "json"]
        )
        assert status == 0
        [record] = _json_records(capsys)
        assert record["path"].endswith("bad.docm")
        assert record["ok"]  # no chaos this time: the document is fine

    def test_replay_refuses_changed_files(
        self, quarantine_report, tmp_path, capsys
    ):
        with open(tmp_path / "bad.docm", "ab") as handle:
            handle.write(b"tampered")
        status = main(
            ["extract", "--replay", str(quarantine_report), "--format", "json"]
        )
        assert status == 0
        [record] = _json_records(capsys)
        assert not record["ok"] and record["degraded"]
        assert "digest mismatch" in record["error"]

    def test_replay_of_non_report_fails(self, tmp_path, capsys):
        bogus = tmp_path / "not_a_report.json"
        bogus.write_text(json.dumps({"foo": "bar"}))
        assert main(["extract", "--replay", str(bogus)]) == 1
        assert "not a quarantine report" in capsys.readouterr().err

    def test_extract_without_inputs_or_replay_fails(self, capsys):
        assert main(["extract"]) == 1
        assert "no inputs" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Observability: baseline profiles, drift, SLOs, the /metrics endpoint


_CANNED_TRACE = (
    pathlib.Path(__file__).parent / "obs" / "data" / "canned_trace.jsonl"
)


def _synthetic_profile(path, scores=(), quarantined=0, documents=0):
    """Write a profile artifact from a hand-built registry."""
    from repro.obs import SCORE_BUCKETS, MetricsRegistry
    from repro.obs.drift import capture_profile, write_profile

    registry = MetricsRegistry()
    if scores:
        histogram = registry.histogram("score.probability", SCORE_BUCKETS)
        for value in scores:
            histogram.observe(value)
    for _ in range(documents):
        registry.histogram("span.document").observe(0.01)
    if quarantined:
        registry.counter("resilience.quarantined").inc(quarantined)
    write_profile(path, capture_profile(registry))
    return path


class TestDriftCommand:
    def test_self_comparison_exits_zero(self, tmp_path, capsys):
        profile = _synthetic_profile(
            tmp_path / "p.json", scores=[0.1 * (i % 9) for i in range(40)]
        )
        assert main(["drift", str(profile), str(profile)]) == 0
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "0 drifted" in out

    def test_shifted_scores_exit_two(self, tmp_path, capsys):
        baseline = _synthetic_profile(
            tmp_path / "base.json", scores=[0.05] * 40
        )
        live = _synthetic_profile(tmp_path / "live.json", scores=[0.9] * 40)
        assert main(["drift", str(baseline), str(live)]) == 2
        out = capsys.readouterr().out
        assert "score.probability" in out
        assert "drift" in out

    def test_json_format(self, tmp_path, capsys):
        baseline = _synthetic_profile(
            tmp_path / "base.json", scores=[0.05] * 40
        )
        live = _synthetic_profile(tmp_path / "live.json", scores=[0.9] * 40)
        assert main(
            ["drift", str(baseline), str(live), "--format", "json"]
        ) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["drifted"] == ["score.probability"]

    def test_min_count_floor_gates_small_samples(self, tmp_path, capsys):
        baseline = _synthetic_profile(
            tmp_path / "base.json", scores=[0.05] * 5
        )
        live = _synthetic_profile(tmp_path / "live.json", scores=[0.9] * 5)
        assert main(["drift", str(baseline), str(live)]) == 0
        assert "insufficient data" in capsys.readouterr().out
        assert main(
            ["drift", str(baseline), str(live), "--min-count", "5"]
        ) == 2
        capsys.readouterr()

    def test_unreadable_profile_is_usage_error(self, tmp_path, capsys):
        good = _synthetic_profile(tmp_path / "good.json", scores=[0.5] * 25)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["drift", str(bad), str(good)]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["drift", str(good), str(tmp_path / "missing.json")]) == 1
        capsys.readouterr()


class TestSloCommand:
    def test_clean_snapshot_passes(self, tmp_path, capsys):
        profile = _synthetic_profile(
            tmp_path / "p.json", quarantined=0, documents=100
        )
        assert main(["slo", "check", str(profile)]) == 0
        out = capsys.readouterr().out
        assert "SLO" in out
        assert "0 violated" in out

    def test_burned_budget_exits_two(self, tmp_path, capsys):
        profile = _synthetic_profile(
            tmp_path / "p.json", quarantined=10, documents=50
        )
        assert main(["slo", "check", str(profile)]) == 2
        out = capsys.readouterr().out
        assert "quarantine-rate" in out
        assert "VIOLATED" in out

    def test_json_format_reports_burn_rate(self, tmp_path, capsys):
        profile = _synthetic_profile(
            tmp_path / "p.json", quarantined=10, documents=50
        )
        main(["slo", "check", str(profile), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["violated"] == ["quarantine-rate"]
        burned = next(
            r for r in payload["results"] if r["name"] == "quarantine-rate"
        )
        assert burned["burn_rate"] == pytest.approx(10.0)

    def test_custom_config_and_bad_config(self, tmp_path, capsys):
        profile = _synthetic_profile(tmp_path / "p.json", documents=10)
        config = tmp_path / "slo.json"
        config.write_text(
            json.dumps(
                {
                    "schema": "repro.slo/1",
                    "slos": [
                        {
                            "name": "docs-p95",
                            "kind": "latency_p95",
                            "histogram": "span.document",
                            "target_s": 10.0,
                        }
                    ],
                }
            )
        )
        assert main(
            ["slo", "check", str(profile), "--slo", str(config)]
        ) == 0
        capsys.readouterr()
        config.write_text("broken")
        assert main(
            ["slo", "check", str(profile), "--slo", str(config)]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_show_prints_the_default_config(self, capsys):
        assert main(["slo", "show"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.slo/1"
        names = {slo["name"] for slo in payload["slos"]}
        assert "quarantine-rate" in names


class TestBatchObservabilityFlags:
    def test_baseline_out_writes_a_profile(
        self, lint_directory, tmp_path, capsys
    ):
        from repro.obs.drift import read_profile

        out_path = tmp_path / "baseline.json"
        main(
            ["lint", str(lint_directory), "--format", "json",
             "--baseline-out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert "wrote metrics profile" in captured.err
        profile = read_profile(out_path)
        assert profile["schema"] == "repro.baseline/1"
        assert profile["source"] == "repro lint"
        assert profile["documents"] >= 1
        assert "span.document" in profile["metrics"]["histograms"]
        assert "events" not in profile["metrics"]

    def test_baseline_flag_prints_drift_summary(
        self, lint_directory, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        main(
            ["lint", str(lint_directory), "--format", "json",
             "--baseline-out", str(baseline)]
        )
        capsys.readouterr()
        main(
            ["lint", str(lint_directory), "--format", "json",
             "--baseline", str(baseline)]
        )
        err = capsys.readouterr().err
        assert "DRIFT" in err

    def test_bad_baseline_is_a_usage_error(
        self, lint_directory, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(
            ["lint", str(lint_directory), "--baseline", str(bad)]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_metrics_port_announces_and_serves(
        self, lint_directory, tmp_path, capsys
    ):
        import re
        import urllib.request

        # Lingering keeps the endpoint alive only while the command runs;
        # scrape-after-run coverage lives in tests/obs/test_export.py.
        # Here: port 0 binds a free port and announces it on stderr.
        status = main(
            ["lint", str(lint_directory), "--format", "json",
             "--metrics-port", "0"]
        )
        err = capsys.readouterr().err
        assert status == 0
        match = re.search(r"metrics: http://127\.0\.0\.1:(\d+)/metrics", err)
        assert match is not None
        # The server is stopped after the batch: the scrape must fail.
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{match.group(1)}/metrics", timeout=1
            )


class TestStatsHint:
    def test_text_report_includes_hint_and_drift_line(self, capsys):
        assert main(["stats", str(_CANNED_TRACE)]) == 0
        out = capsys.readouterr().out
        # Slowest stage span is extract at 0.18s: doubled and rounded up
        # the 1-2-5 ladder that is 0.5 (the document span is excluded).
        assert "hint: --stage-timeout 0.5" in out
        assert "drift: 1 evaluations (1 drifted, 0 warning)" in out
        # The serve.* event family aggregates its own line and stays out
        # of the span count.
        assert (
            "serving: 6 events (admitted 1, breaker 1, connection 2, "
            "deadline_expired 1, shed 1)" in out
        )
        assert "TRACE — 6 spans" in out

    def test_json_report_includes_suggestion(self, capsys):
        assert main(["stats", str(_CANNED_TRACE), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suggested_stage_timeout_s"] == 0.5
        assert payload["extract"]["count"] == 2
        assert "document" in payload

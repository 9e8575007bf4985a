"""Tests for the command-line interface."""

import dataclasses
import json
import logging
import re

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, main


@pytest.fixture()
def restore_obs():
    """CLI runs may enable observability globally; restore it afterwards."""
    from repro.obs import metrics as obs_metrics

    previous_registry = obs.set_registry(obs.MetricsRegistry())
    previous_enabled = obs_metrics.ENABLED
    yield
    obs_metrics.ENABLED = previous_enabled
    obs.set_registry(previous_registry)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["warp-drive"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig4c_quick_prints_table(self, capsys):
        assert main(["fig4c", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(c)" in out
        assert "min_level" in out

    def test_space_table(self, capsys):
        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert "Section 5.1" in out
        assert out.splitlines()[-1] == "claim space-asr-below-dc [§5.1]: holds"

    def test_every_experiment_has_a_driver(self):
        expected = {
            "fig4a", "fig4c", "fig5", "fig6a", "fig6b",
            "fig9a", "fig9b", "fig9c", "fig10a", "fig10b", "space", "chaos",
            "recovery", "tracedemo", "govern",
        }
        assert set(EXPERIMENTS) == expected

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401


class TestStats:
    def test_stats_without_target_errors(self, capsys, restore_obs):
        assert main(["stats"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_stats_unknown_target_errors(self, capsys, restore_obs):
        assert main(["stats", "warp-drive"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_target_without_stats_errors(self, capsys, restore_obs):
        assert main(["fig4c", "fig4a"]) == 2
        assert "only valid with 'stats'" in capsys.readouterr().err

    def test_metrics_out_empty_path_errors(self, capsys, restore_obs):
        assert main(["fig4c", "--quick", "--metrics-out", ""]) == 2
        assert "empty path" in capsys.readouterr().err

    def test_metrics_out_missing_directory_fails_fast(self, capsys, restore_obs):
        assert main(["fig4c", "--quick", "--metrics-out", "/nonexistent-xyz/m.json"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_stats_runs_and_reports(self, capsys, restore_obs):
        assert main(["stats", "fig4c", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(c)" in out
        assert "== metrics: fig4c ==" in out
        assert "swat.arrivals" in out

    def test_metrics_out_writes_json_dump(self, tmp_path, capsys, restore_obs):
        path = tmp_path / "m.json"
        assert main(["fig4c", "--quick", "--metrics-out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["counters"]["swat.arrivals"] > 0
        assert data["histograms"]["swat.maintenance.latency"]["count"] > 0

    def test_verbose_flag_installs_stderr_handler(self, restore_obs):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            assert main(["list", "-vv"]) == 0
            added = [h for h in logger.handlers if h not in before]
            assert len(added) == 1
            assert logger.level == logging.DEBUG
        finally:
            for h in logger.handlers[:]:
                if h not in before:
                    logger.removeHandler(h)
            logger.setLevel(logging.NOTSET)


class TestTrace:
    @pytest.fixture()
    def restore_causal(self, restore_obs):
        """Trace runs install a process-wide causal tracer; detach it after."""
        from repro.obs.causal import disable_causal

        yield
        disable_causal()

    def test_trace_without_target_errors(self, capsys, restore_causal):
        assert main(["trace"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_trace_mode_prints_summary_and_writes_chrome_json(
        self, capsys, tmp_path, restore_causal
    ):
        from repro.obs.chrome import validate_chrome

        path = tmp_path / "trace.json"
        code = main(["trace", "tracedemo", "--quick", "--trace-out", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "== causal traces ==" in captured.out
        assert "critical path" in captured.out
        assert "orphans=0" in captured.out
        counts = validate_chrome(json.loads(path.read_text()))
        assert counts["complete"] > 0
        assert counts["traces"] > 0

    def test_trace_out_composes_with_plain_experiments(
        self, tmp_path, restore_causal
    ):
        from repro.obs.chrome import validate_chrome

        path = tmp_path / "trace.json"
        assert main(["tracedemo", "--quick", "--trace-out", str(path)]) == 0
        validate_chrome(json.loads(path.read_text()))

    def test_trace_out_empty_path_errors(self, capsys, restore_causal):
        assert main(["tracedemo", "--quick", "--trace-out", ""]) == 2
        assert "empty path" in capsys.readouterr().err

    def test_govern_prints_frontier_and_writes_report(
        self, capsys, tmp_path, restore_obs
    ):
        path = tmp_path / "govern.json"
        assert main(["govern", "--quick", "--report-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Capacity frontier" in out
        assert "bit-identical" in out
        report = json.loads(path.read_text())
        assert report["fingerprint_match"] is True
        assert report["rows"]
        assert all(row["budget_ok"] for row in report["rows"])

    def test_govern_report_out_bad_dir_errors(self, capsys, restore_obs):
        assert main(["govern", "--quick", "--report-out", "/nonexistent-xyz/r.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["govern", "shake"])
    def test_report_out_empty_path_fails_before_the_run(self, command, capsys, restore_obs):
        argv = [command, "--quick", "--permutations", "1", "--report-out", ""]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--report-out: empty path" in captured.err
        assert captured.out == ""  # nothing ran


class TestReport:
    def test_one_section_per_table_with_the_cli_rows(self, monkeypatch):
        """Each ``##`` section holds the rows ``repro <id> --quick`` prints."""
        from repro.experiments import report

        chosen = {name: EXPERIMENTS[name] for name in ("space", "fig10a", "govern")}
        monkeypatch.setattr(report, "EXPERIMENTS", chosen)  # a cheap subset
        text, ok = report.generate_report(quick=True)
        assert ok
        sections = text.split("\n## ")[1:]
        tables = [t for e in chosen.values() for t in e.execute(True).tables]
        assert len(sections) == len(tables)
        for section, table in zip(sections, tables):
            assert section.startswith(f"{table.title}\n\n{report._md_table(table.rows)}")
        assert "disabled-governor run bit-identical" in sections[-1]  # the footer

    def test_every_declared_title_is_printed(self):
        for name in ("space", "govern"):
            experiment = EXPERIMENTS[name]
            titles = [t.title for t in experiment.execute(True).tables]
            assert len(titles) == len(experiment.titles)
            for printed, declared in zip(titles, experiment.titles):
                assert printed.startswith(declared)

    def test_generate_report_structure(self):
        """The report generator produces a section per figure (tiny run)."""
        from repro.experiments.report import _md_table

        text = _md_table([{"a": 1, "b": 2.5}])
        assert text.startswith("| a | b |")
        assert "| 1 | 2.5 |" in text

    def test_md_table_empty(self):
        from repro.experiments.report import _md_table

        assert "(no rows)" in _md_table([])


class TestClaims:
    #: Registry experiments whose ``--quick`` run takes under ~3 s.
    FAST = ("space", "fig4a", "fig9a", "fig9b", "fig9c", "fig10a", "fig10b")

    @pytest.mark.parametrize("name", FAST)
    def test_quick_claims_hold(self, name):
        outcome = EXPERIMENTS[name].execute(True)
        assert outcome.verdicts
        assert [c.name for c, held in outcome.verdicts if not held] == []

    def test_claim_names_unique_and_cite_a_section(self):
        claims = [c for e in EXPERIMENTS.values() for c in e.claims]
        names = [c.name for c in claims]
        assert len(names) == len(set(names))
        for claim in claims:
            assert re.fullmatch(r"[a-z0-9][a-z0-9.-]*", claim.name), claim.name
            assert re.match(r"(Fig\. \d+\([a-f]\)|§\d)", claim.section), claim

    @pytest.fixture()
    def failing(self, monkeypatch, restore_obs):
        """A registry of one cheap experiment whose claim fails."""
        from repro.experiments import registry, report

        broken = dataclasses.replace(
            EXPERIMENTS["space"],
            id="broken",
            claims=(registry.Claim("broken-never-holds", "§5.1", lambda o: False),),
        )
        monkeypatch.setattr("repro.cli.EXPERIMENTS", {"broken": broken})
        monkeypatch.setattr(report, "EXPERIMENTS", {"broken": broken})
        return "claim broken-never-holds [§5.1]: FAILED"

    @pytest.mark.parametrize(
        "argv",
        [["broken"], ["stats", "broken"], ["all", "--quick"]],
        ids=["id", "stats", "all"],
    )
    def test_failed_claim_exits_1(self, argv, failing, capsys):
        assert main(argv) == 1
        assert failing in capsys.readouterr().out.splitlines()

    def test_report_is_written_and_exits_1(self, failing, tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", "--quick", "-o", str(path)]) == 1
        assert f"- {failing}" in path.read_text().splitlines()

"""Tests for the experiment CLI."""

from __future__ import annotations

import pytest

from repro.experiments.cli import DESCRIPTIONS, EXPERIMENTS, main


def test_every_experiment_has_a_description():
    assert set(EXPERIMENTS) == set(DESCRIPTIONS)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in EXPERIMENTS:
        assert exp_id in out


def test_run_single_experiment(capsys):
    assert main(["run", "an4"]) == 0
    out = capsys.readouterr().out
    assert "AN4" in out
    assert "regenerated" in out


def test_run_writes_output_files(tmp_path, capsys):
    assert main(["run", "fig4", "--out", str(tmp_path)]) == 0
    written = tmp_path / "fig4.txt"
    assert written.exists()
    assert "del-pref" in written.read_text()


def test_fig4_chart_does_not_depend_on_what_ran_before(tmp_path, capsys):
    # Request and proxy ids in the chart come from the world's engine, so
    # running fig3 first in the same process leaves fig4's text unchanged.
    assert main(["run", "fig4", "--out", str(tmp_path / "alone")]) == 0
    assert main(["run", "fig3", "fig4", "--out", str(tmp_path / "after")]) == 0
    alone = (tmp_path / "alone" / "fig4.txt").read_text()
    assert "-r1)" in alone
    assert (tmp_path / "after" / "fig4.txt").read_text() == alone


def test_unknown_id_fails(capsys):
    assert main(["run", "an99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "mini.md"
    assert main(["report", "fig3", "an4", "--out", str(out)]) == 0
    body = out.read_text()
    assert body.startswith("# RDP reproduction report")
    assert "## fig3" in body and "## an4" in body
    assert "FIG3" in body and "AN4" in body


def test_report_of_a_subset_splices_into_an_existing_file(tmp_path, capsys):
    out = tmp_path / "mini.md"
    assert main(["report", "fig3", "an4", "an2", "--out", str(out)]) == 0
    # Make the kept sections recognisable: a regeneration would undo this.
    marked = out.read_text().replace("FIG3", "FIG3-kept").replace(
        "AN2:", "AN2-kept:")
    out.write_text(marked)
    head, fig3, an4, an2 = marked.split("## ")

    assert main(["report", "an4", "--out", str(out)]) == 0
    after = out.read_text().split("## ")
    assert len(after) == 4                      # nothing was dropped
    assert [after[0], after[1], after[3]] == [head, fig3, an2]
    assert after[2].split("_regenerated")[0] == an4.split("_regenerated")[0]
    # An id the file lacks is appended; the rest still stands.
    assert main(["report", "fig4", "--out", str(out)]) == 0
    grown = out.read_text().split("## ")
    assert grown[:2] + [grown[3]] == [head, fig3, an2 + "\n"]  # + separator
    assert grown[4].startswith("fig4 ") and len(grown) == 5
    assert out.read_text().endswith("s_\n")


def test_bench_smoke_writes_schema_and_is_deterministic(tmp_path, capsys):
    import json

    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(["bench", "--preset", "smoke", "--out", str(first)]) == 0
    summary = capsys.readouterr().out
    assert "bench[smoke]" in summary and str(first) in summary
    assert main(["bench", "--preset", "smoke", "--out", str(second),
                 "--quiet"]) == 0
    one = json.loads(first.read_text())
    two = json.loads(second.read_text())
    assert set(one) == {"schema", "scenario", "determinism", "timing"}
    det = one["determinism"]
    assert det["events"] > 0 and det["messages"] > 0
    assert det["answered"] == det["queries"] > 0
    for key in ("wall_seconds", "events_per_second", "messages_per_second",
                "peak_rss_kb"):
        assert key in one["timing"]
    one.pop("timing")
    two.pop("timing")
    assert one == two  # the non-timing sections must be reproducible

"""Tests for the ``observe`` subcommand."""

from __future__ import annotations

import json

from repro.experiments.cli import main


def test_observe_smoke_accounts_and_exports_prometheus(tmp_path, capsys):
    out = tmp_path / "metrics.prom"
    assert main(["observe", "--preset", "smoke",
                 "--export", "prom", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "observe[smoke]" in printed
    assert "100% accounted" in printed
    assert str(out) in printed

    text = out.read_text()
    families = [line for line in text.splitlines()
                if line.startswith("# TYPE ")]
    assert len(families) >= 10
    assert any("rdp_request_completion_time histogram" in line
               for line in families)
    assert any("rdp_net_messages_sent_total counter" in line
               for line in families)


def test_observe_json_export(tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["observe", "--preset", "smoke", "--quiet",
                 "--export", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "sim_time" in doc
    sent = doc["families"]["rdp_net_messages_sent_total"]
    assert sent["type"] == "counter"
    assert sent["label_names"] == ["net", "kind"]
    assert sent["samples"]


def test_observe_accounting_fails_when_spans_and_requests_differ():
    from repro.experiments.bench import PRESETS
    from repro.experiments.observe import ObserveResult
    from repro.obs.spans import DeliverySpan, SpanReport

    spans = [DeliverySpan(request_id=f"mh1#{n}", mh="mh1", requested=True)
             for n in (1, 2)]
    result = ObserveResult(preset=PRESETS["smoke"], world=None,
                           report=SpanReport(spans), queries=2, wall=0.0)
    assert result.accounted()
    result.queries = 3
    assert not result.accounted()

"""Tests for the trace/metrics exporters (repro.instrument.export):
Chrome trace-event JSON, Prometheus text exposition, JSONL event logs,
and the `repro trace convert` / `repro report` CLI surface over them."""

import json

import numpy as np
import pytest

from repro.instrument import Recorder, recording
from repro.instrument.export import (
    EXPORT_FORMATS,
    chrome_trace,
    convert_trace,
    jsonl_events,
    prometheus_text,
)
from repro.instrument.metrics import MetricsRegistry


def _sample_recorder() -> Recorder:
    rec = Recorder(meta={"command": "spectrum"})
    with rec.activate():
        with rec.span("solve"):
            with rec.span("sweep"):
                rec.add("flops", 100)
            with rec.span("sweep"):
                rec.add("flops", 100)
        rec.gauge("starts", 16)
    return rec


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("runs_total", "total runs", labelnames=("solver",)) \
        .labels(solver="sshopm").inc(2)
    reg.gauge("width").set(3.5)
    h = reg.histogram("t_seconds", buckets=(0.1, 1.0, 10.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


class TestChromeTrace:
    def test_structure_and_durations(self):
        doc = chrome_trace(_sample_recorder())
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata first
        spans = [e for e in events if e["ph"] == "X"]
        by_name = {e["name"]: e for e in spans}
        assert set(by_name) == {"solve", "sweep"}
        assert by_name["sweep"]["args"]["count"] == 2
        assert by_name["sweep"]["args"]["flops"] == 200  # aggregated re-entry
        # child laid out inside its parent on the synthesized timeline
        assert by_name["sweep"]["ts"] >= by_name["solve"]["ts"]
        assert by_name["sweep"]["dur"] <= by_name["solve"]["dur"] + 1e-3

    def test_worker_subtrees_get_own_tids(self):
        parent = _sample_recorder()
        for wid in range(2):
            worker = Recorder()
            with worker.activate():
                with worker.span("chunk"):
                    pass
            parent.absorb(worker, under=f"worker{wid}")
        spans = [e for e in chrome_trace(parent)["traceEvents"]
                 if e["ph"] == "X"]
        worker_tids = {e["tid"] for e in spans
                       if e["name"].startswith("worker")}
        main_tids = {e["tid"] for e in spans
                     if e["name"] in ("solve", "sweep")}
        assert len(worker_tids) == 2
        assert worker_tids.isdisjoint(main_tids)
        # workers overlap their parent: both start at the parent's start
        wstarts = {e["ts"] for e in spans if e["name"].startswith("worker")}
        assert len(wstarts) == 1

    def test_accepts_plain_dict(self):
        doc = chrome_trace(_sample_recorder().to_dict())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestPrometheusText:
    def test_counter_gauge_lines(self):
        text = prometheus_text(metrics=_sample_registry())
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{solver="sshopm"} 2' in text
        assert "# TYPE width gauge" in text
        assert "width 3.5" in text

    def test_histogram_cumulative_buckets(self):
        text = prometheus_text(metrics=_sample_registry())
        lines = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
            if line.startswith("t_seconds")
        )
        # cumulative le-buckets: 1 obs <= 0.1, 2 <= 1.0, 3 <= 10 and +Inf
        assert lines['t_seconds_bucket{le="0.1"}'] == "1"
        assert lines['t_seconds_bucket{le="1"}'] == "2"
        assert lines['t_seconds_bucket{le="10"}'] == "3"
        assert lines['t_seconds_bucket{le="+Inf"}'] == "3"
        assert lines["t_seconds_count"] == "3"
        assert float(lines["t_seconds_sum"]) == pytest.approx(5.55)

    def test_trace_derived_series(self):
        text = prometheus_text(trace=_sample_recorder())
        assert 'repro_trace_span_seconds_total{path="solve"}' in text
        assert 'repro_trace_span_calls_total{path="solve/sweep"} 2' in text
        assert 'repro_trace_gauge{gauge="starts"} 16' in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("k",)).labels(k='a"b\\c').inc()
        text = prometheus_text(metrics=reg)
        assert 'x_total{k="a\\"b\\\\c"} 1' in text


class TestJsonlEvents:
    def test_every_line_parses_and_header_first(self):
        lines = jsonl_events(trace=_sample_recorder(),
                             metrics=_sample_registry())
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "header"
        assert parsed[0]["schema"] == "repro-events/1"
        kinds = {p["event"] for p in parsed}
        assert {"header", "span", "gauge", "metric"} <= kinds

    def test_span_paths_and_counters(self):
        parsed = [json.loads(line)
                  for line in jsonl_events(trace=_sample_recorder())]
        spans = {p["path"]: p for p in parsed if p["event"] == "span"}
        assert spans["solve/sweep"]["count"] == 2
        assert spans["solve/sweep"]["counters"]["flops"] == 200

    def test_telemetry_rows_exported(self):
        from repro.core import sshopm
        from repro.symtensor import random_symmetric_tensor

        with recording() as rec:
            sshopm(random_symmetric_tensor(3, 4, rng=0), alpha=2.0,
                   max_iters=100, rng=1)
        parsed = [json.loads(line) for line in jsonl_events(trace=rec)]
        tel_rows = [p for p in parsed if p["event"] == "telemetry"]
        assert tel_rows and all(r["stream"] == "sshopm" for r in tel_rows)
        assert {"k", "lam"} <= set(tel_rows[0])


class TestConvertTrace:
    @pytest.mark.parametrize("fmt", EXPORT_FORMATS)
    def test_all_formats_return_text(self, fmt):
        text = convert_trace(_sample_recorder(), fmt)
        assert isinstance(text, str) and text

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown export format"):
            convert_trace(_sample_recorder(), "flamegraph")


class TestCliSurface:
    def _make_trace(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "run.json"
        assert main(["spectrum", "--m", "3", "--n", "3", "--starts", "8",
                     "--max-iter", "200", "--trace", str(path)]) == 0
        return path

    def test_trace_convert_chrome_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._make_trace(tmp_path)
        capsys.readouterr()
        out = tmp_path / "run.chrome.json"
        assert main(["trace", "convert", str(trace), "--to", "chrome",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e.get("name") == "repro spectrum"
                   for e in doc["traceEvents"])

    def test_trace_convert_stdout(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._make_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "convert", str(trace), "--to",
                     "prometheus"]) == 0
        assert "repro_trace_span_seconds_total" in capsys.readouterr().out

    def test_trace_convert_missing_input(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "convert", str(tmp_path / "nope.json"),
                     "--to", "jsonl"]) == 2
        assert "cannot load trace" in capsys.readouterr().err

    def test_report_renders_curves(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._make_trace(tmp_path)
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out                      # span summary
        assert "fleet_solve" in out                # telemetry stream header
        assert "y=lambda" in out                   # convergence curve
        assert "y=residual" in out                 # residual curve

    def test_report_trace_without_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        rec = _sample_recorder()
        path = tmp_path / "bare.json"
        rec.save_trace(path)
        assert main(["report", str(path)]) == 0
        assert "no convergence telemetry" in capsys.readouterr().out

    def test_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "cannot load trace" in capsys.readouterr().err

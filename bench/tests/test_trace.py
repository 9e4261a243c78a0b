"""Tests of the span recorder, the metric tables and BENCHMARK.json."""

import json
from pathlib import Path

import numpy as np
import pytest

from bench import layers, run, trace
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_union_lengths_merge_overlaps_per_group():
    groups = np.array([0, 0, 0, 1, 1])
    t0 = np.array([0.0, 1.0, 5.0, 0.0, 2.0])
    t1 = np.array([2.0, 3.0, 6.0, 1.0, 3.0])
    assert trace._union_lengths(groups, t0, t1, 2).tolist() == [4.0, 2.0]


def test_job_tail_is_a_fixed_percentile():
    assert run.job_tail([3.0]) == 3.0
    assert run.job_tail([float(i) for i in range(11)]) == pytest.approx(9.0)
    assert run.job_tail([1.0, 2.0]) == pytest.approx(1.9)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.RESULT_METRICS
    assert [m["name"] for m in spec["per_layer"]] == [
        m.name for m in [*layers.LAYER_METRICS, layers.OVERHEAD]
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_wrappers_are_removed_after_a_traced_pass():
    import equator_forge.analysis as analysis
    import equator_forge.correspondence as correspondence
    import equator_forge.parallel as parallel

    before = (analysis.tmap, parallel.tmap, correspondence.CurvatureMetric.chart_jet)
    recorder = trace.SpanRecorder()
    recorder.install()
    assert analysis.tmap is not before[0]
    recorder.uninstall()
    after = (analysis.tmap, parallel.tmap, correspondence.CurvatureMetric.chart_jet)
    assert after == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_named_counts_repeat_across_traced_passes(name, tmp_path):
    """Two traced passes with the same seed give the same named counts."""
    program = run.load_program()
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        jobs = WORKLOADS[name].build(program, np.random.default_rng([7, 0]), str(workdir))
        _, recorder = run.traced_pass(jobs)
        values = layers.layer_values(trace.family_stats(recorder), len(jobs))
        counts.append({key: values[key] for key in layers.REPEATABLE})
    assert counts[0] == counts[1]

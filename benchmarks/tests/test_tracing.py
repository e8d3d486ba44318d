"""Span arithmetic on synthetic traces, and the wrappers on the real package."""

import json
from pathlib import Path

import pytest

from tracing import PER_LAYER, Span, Tracer, covered, pass_metrics, self_times
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, 0, attrs)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    children = [span("a", 1, 5), span("b", 4, 6), span("c", 8, 12)]
    assert covered((0, 10), children) == pytest.approx(5 + 2)
    assert covered((0, 10), []) == 0


def test_self_time_is_span_minus_children():
    spans = [
        span("cli.run", 0.0, 10.0),
        span("single_fa.exact_probability", 1.0, 4.0, parent=0),
        span("quadrature.normal_upper_tail", 2.0, 2.5, parent=1, elements=10),
        span("quadrature.normal_upper_tail", 3.0, 3.5, parent=1, elements=20),
        span("mc_oracle.simulate_single_fa", 5.0, 9.0, parent=0,
             trials=100, normals=1000, stream=[1, 100, 40, False]),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 0.5, 0.5, 4.0])
    m = pass_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["cli.run.busy_s"] == pytest.approx(10.0)
    assert m["single_fa.exact_probability.busy_s"] == pytest.approx(3.0)
    assert m["single_fa.exact_probability.self_s"] == pytest.approx(2.0)
    assert m["single_fa.polar_passes_per_exact"] == 2.0
    assert m["quadrature.normal_upper_tail.elements"] == 30
    assert m["mc_oracle.ns_per_normal"] == pytest.approx(4.0 * 1e9 / 1000)


def test_nested_spans_of_one_group_count_once_and_streams_repeat():
    stream = [42, 100, 40, False]
    spans = [
        span("dtmc.reach_probability", 0.0, 4.0),
        span("dtmc.stationary", 1.0, 2.0, parent=0),
        span("mc_oracle.simulate_single_fa", 5.0, 6.0, trials=100, normals=8200, stream=stream),
        span("mc_oracle.simulate_single_fa", 6.0, 7.0, trials=100, normals=8200, stream=stream),
        span("mc_oracle.simulate_multi_fa", 7.0, 8.0, trials=100, normals=8200,
             stream=[42, 100, 41, False]),
    ]
    m = pass_metrics(spans, cache_hits=3, cache_misses=1)
    assert m["dtmc.busy_s"] == pytest.approx(4.0)
    assert m["dtmc.calls"] == 2
    assert m["mc_oracle.shared_noise_share"] == pytest.approx(1 / 3)
    assert m["mc_oracle.trials"] == 300
    assert m["geometry.projector_cache_hit_ratio"] == 0.75


def test_pass_metrics_names_match_per_layer_table():
    names = set(pass_metrics([])) | {"trace.overhead_s"}
    assert names == {name for name, _, _, _ in PER_LAYER}


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]


def test_wrappers_see_calls_where_they_are_made_and_come_off():
    from trackassoc import geometry, mc_oracle, multi_fa, quadrature, single_fa

    original = quadrature.normal_upper_tail
    tracer = Tracer()
    patches = tracer.install()
    try:
        assert single_fa.normal_upper_tail is multi_fa.normal_upper_tail
        assert single_fa.normal_upper_tail is not original
        assert mc_oracle.build_projector is geometry.build_projector
        single_fa.exact_probability(40, geometry.ScanConfig(n_scans=40, lam=2.0))
    finally:
        Tracer.uninstall(patches)
    assert single_fa.normal_upper_tail is original
    assert multi_fa.normal_upper_tail is original
    m = pass_metrics(tracer.spans)
    assert m["single_fa.exact_probability.calls"] == 1
    assert m["single_fa.polar_passes_per_exact"] == 2.0
    assert m["quadrature.normal_upper_tail.elements"] == 192 ** 2 + 384 ** 2


def test_a_raising_call_is_a_failed_span():
    tracer = Tracer()

    def diverges(*args):
        raise RuntimeError("no convergence")

    wrapped = tracer.wrap("quadrature.adaptive_integrate", diverges)
    with pytest.raises(RuntimeError):
        wrapped(None, 0.0, 1.0)
    assert tracer.spans[0].end is not None
    m = pass_metrics(tracer.spans)
    assert (m["quadrature.adaptive_integrate.calls"], m["quadrature.adaptive_integrate.failures"]) == (1, 1)

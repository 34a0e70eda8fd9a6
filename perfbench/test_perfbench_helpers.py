"""Tests of the benchmark's pure helpers (no program import, no server).

Run with ``python -m pytest perfbench -q``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import compare  # noqa: E402
import gen  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert common.percentile(values, 0.5) == 50
        assert common.percentile(values, 0.9) == 90
        assert common.percentile(values, 1.0) == 100
        assert common.percentile([7.0], 0.9) == 7.0

    def test_order_does_not_matter(self):
        assert common.percentile([5, 1, 4, 2, 3], 0.5) == 3

    def test_rejects_empty_and_bad_quantile(self):
        with pytest.raises(ValueError):
            common.percentile([], 0.5)
        with pytest.raises(ValueError):
            common.percentile([1.0], 0.0)

    def test_tail_counts(self):
        assert common.samples_beyond(100, 0.9) == 10
        assert common.tail_supported(100, 0.9)
        assert common.samples_beyond(99, 0.9) == 9
        assert not common.tail_supported(99, 0.9)
        assert common.samples_beyond(0, 0.9) == 0
        # Exactly the values above the p90 point are counted.
        values = list(range(137))
        p90 = common.percentile(values, 0.9)
        assert sum(v > p90 for v in values) == common.samples_beyond(len(values), 0.9)

    def test_quartiles_match_statistics(self):
        import statistics

        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        assert common.quartiles(values) == tuple(statistics.quantiles(values, n=4))
        q1, q2, q3 = common.quartiles(values)
        assert common.relative_spread(values) == pytest.approx((q3 - q1) / q2)


class TestSchedule:
    def test_reproducible_and_seed_dependent(self):
        a = common.open_loop_schedule(7, 3.6, 35)
        assert a == common.open_loop_schedule(7, 3.6, 35)
        assert a != common.open_loop_schedule(8, 3.6, 35)

    def test_count_spacing_and_phase(self):
        offsets = common.open_loop_schedule(1, 4.0, 10.0)
        assert len(offsets) == 40
        assert 0.0 <= offsets[0] < 0.25
        for a, b in zip(offsets, offsets[1:]):
            assert b - a == pytest.approx(0.25)

    def test_bursts(self):
        offsets = common.open_loop_schedule(3, 12.5, 24.0, burst=3, burst_gap_s=0.005)
        assert len(offsets) == 300
        assert offsets == common.open_loop_schedule(3, 12.5, 24.0, burst=3, burst_gap_s=0.005)
        for start in range(0, 300, 3):
            a, b, c = offsets[start:start + 3]
            assert b - a == pytest.approx(0.005) and c - b == pytest.approx(0.005)
        starts = offsets[::3]
        for a, b in zip(starts, starts[1:]):
            assert b - a == pytest.approx(0.24)

    def test_stratified_draw_is_exact_and_reproducible(self):
        draw = common.stratified_draw("s", [3, 1], 8)
        assert sorted(draw) == [0] * 6 + [1] * 2
        assert draw == common.stratified_draw("s", [3, 1], 8)
        assert len(common.stratified_draw(1, [40, 10, 6, 4], 126)) == 126


class TestZipf:
    def test_reproducible(self):
        a = common.zipf_keys(3, 500, 48, 1.1, 0.05)
        assert a == common.zipf_keys(3, 500, 48, 1.1, 0.05)
        assert a != common.zipf_keys(4, 500, 48, 1.1, 0.05)

    def test_skew_range_and_fresh_numbering(self):
        keys = common.zipf_keys(5, 4000, 48, 1.1, 0.05)
        hot = [rank for kind, rank in keys if kind == "hot"]
        fresh = [k for kind, k in keys if kind == "fresh"]
        assert all(0 <= rank < 48 for rank in hot)
        assert fresh == list(range(len(fresh)))
        assert len(fresh) == round(0.05 * 4000)
        assert hot.count(0) > hot.count(1) > hot.count(10)

    def test_hot_requests_repeat_hot_keys_only(self):
        requests, keys = gen.hot_requests(2, 300, 48, 1.1, 0.05)
        assert requests == gen.hot_requests(2, 300, 48, 1.1, 0.05)[0]
        by_key = {}
        for request, key in zip(requests, keys):
            by_key.setdefault(key, request)
            assert by_key[key] == request
        fresh = [json.dumps(r, sort_keys=True) for r, k in zip(requests, keys) if k[0] == "fresh"]
        assert len(set(fresh)) == len(fresh)

    def test_unique_requests_are_distinct(self):
        requests = gen.unique_requests(9, 200)
        assert requests == gen.unique_requests(9, 200)
        keys = {json.dumps(r["problem"], sort_keys=True) for r in requests}
        assert len(keys) == 200


class TestSelfTime:
    def test_nested_and_parallel_children(self):
        spans = [
            {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps 2
            {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
            {"id": 5, "parent": 1, "start": 9.0, "end": 12.0},  # runs past the parent
        ]
        own = common.self_times(spans)
        assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
        assert own[2] == pytest.approx(3.0 - 0.5)
        assert own[3] == pytest.approx(3.0)
        assert own[4] == pytest.approx(0.5)
        assert own[5] == pytest.approx(3.0)

    def test_layer_totals(self):
        import spans as spanlib

        spans = [
            {"id": 1, "parent": None, "name": "execute_plans", "start": 0.0, "end": 1.0},
            {"id": 2, "parent": 1, "name": "Backend.run", "start": 0.1, "end": 0.7},
            {"id": 3, "parent": 1, "name": "ResultCache.put", "start": 0.8, "end": 0.9},
        ]
        totals = spanlib.layer_self_times(spans)
        assert totals["engine.runner"] == pytest.approx(0.3)
        assert totals["sampler"] == pytest.approx(0.6)
        assert totals["engine.cache"] == pytest.approx(0.1)
        assert set(totals) == set(spanlib.LAYERS)


class TestHostScales:
    def test_window_mean_and_fallback(self):
        ref = common.REFERENCE_PROBE_S
        probes = [(0.0, ref), (1.0, 3 * ref), (10.0, 2 * ref)]
        near_start, far, late = common.host_scales([0.5, 100.0, 10.0], probes, window_s=1.0)
        assert near_start == pytest.approx(0.5)  # mean of ref and 3 ref
        assert far == pytest.approx(0.5)  # no probe within 1 s: mean of all
        assert late == pytest.approx(0.5)
        assert common.host_scales([0.0], [(0.0, ref)]) == [pytest.approx(1.0)]

    def test_needs_probes(self):
        with pytest.raises(ValueError):
            common.host_scales([0.0], [])


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "cache.hit_ratio", "self.engine.plan_s_per_op",
                                      "0-x", "a" * 64])
    def test_valid(self, name):
        assert common.valid_metric_name(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "p/s", "a" * 65, "x:y", None])
    def test_invalid(self, name):
        assert not common.valid_metric_name(name)

    def test_every_defined_metric_name_is_valid_and_unique(self):
        spec = json.loads((HERE / "workloads.json").read_text())
        names = list(spec["end_to_end"]) + list(spec["per_layer"]) + list(spec["workloads"])
        assert all(common.valid_metric_name(n) for n in names)
        bench_path = HERE.parent / "BENCHMARK.json"
        if bench_path.exists():
            bench = json.loads(bench_path.read_text())
            listed = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
                      + [w["name"] for w in bench["workloads"]])
            assert len(listed) == len(set(listed))
            assert all(common.valid_metric_name(n) for n in listed)
            assert [m["name"] for m in bench["end_to_end"]] == list(spec["end_to_end"])
            assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])
            assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])


class TestVerdict:
    def test_better_worse_within_unresolved(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
        faster = [v * 0.8 for v in base]
        pairs = list(zip(base, faster))
        assert compare.verdict(base, faster, pairs, "lower", 0.1) == "better"
        slower = [v * 1.2 for v in base]
        assert compare.verdict(base, slower, list(zip(base, slower)), "lower", 0.1) == "worse"
        same = [v * 1.01 for v in base]
        assert compare.verdict(base, same, list(zip(base, same)), "lower", 0.1) == "within bound"
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 10.0]
        assert compare.verdict(noisy, same, list(zip(noisy, same)), "lower", 0.1) == "unresolved"
        assert compare.verdict(base, same, list(zip(base, same)), "higher", None) == "no bound"

    def test_higher_is_better(self):
        base = [100.0 + i * 0.1 for i in range(10)]
        more = [v * 1.3 for v in base]
        assert compare.verdict(base, more, list(zip(base, more)), "higher", 0.1) == "better"
        assert math.isclose(common.median(base), 100.45)

"""PR 8 — latency histograms, rolling windows, and their exposition.

Four contracts pinned here:

1. **Merge algebra.**  ``LatencyHistogram.merge`` is associative and
   commutative on quantiles (property-tested): however worker snapshots
   regroup on their way back from a process pool, the aggregate
   distribution is identical.  The jobs=1 vs jobs=4 parity test drives
   the same invariant through a real ``ScanMetrics`` split.
2. **Prometheus exposition conformance.**  Bucket series are cumulative,
   ``le`` bounds strictly increase, the mandatory ``+Inf`` bucket equals
   ``_count``, and label values survive newline/backslash/quote escaping.
3. **Rolling windows.**  Slots rotate in O(1) under an injectable clock,
   stale slots fall out of the snapshot, and rates honour the horizon.
4. **The /statusz renderer** produces a self-contained HTML document
   from a live server object.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.collector import ScanMetrics
from repro.observability.exporters import histogram_families, to_prometheus
from repro.observability.histogram import (
    BUCKET_BOUNDS,
    INF_BUCKET,
    LatencyHistogram,
    RollingWindow,
    bucket_index,
)

durations = st.floats(
    min_value=0.0, max_value=500.0, allow_nan=False, allow_infinity=False
)


def _hist(values):
    h = LatencyHistogram()
    for v in values:
        h.observe(v)
    return h


class TestBucketLayout:
    def test_bounds_strictly_increase(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert len(set(BUCKET_BOUNDS)) == len(BUCKET_BOUNDS)

    def test_bucket_index_le_semantics(self):
        # a value exactly on a bound lands in that bound's bucket
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(BUCKET_BOUNDS[-1] * 2) == INF_BUCKET

    def test_spans_microseconds_to_minutes(self):
        assert BUCKET_BOUNDS[0] <= 1e-4
        assert BUCKET_BOUNDS[-1] >= 60.0


class TestHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.mean() is None
        assert h.cumulative_buckets() == [("+Inf", 0)]

    def test_observe_accumulates(self):
        h = _hist([0.001, 0.002, 0.004])
        assert h.count == 3
        assert h.sum_s == pytest.approx(0.007)
        assert h.max_s == pytest.approx(0.004)

    def test_quantile_monotone(self):
        h = _hist([0.0005 * i for i in range(1, 200)])
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)

    def test_quantile_within_relative_error(self):
        # fixed √2 buckets promise ~±50% worst-case relative error;
        # check a known distribution lands in the right neighbourhood
        h = _hist([0.010] * 90 + [0.100] * 10)
        p50 = h.quantile(0.5)
        p99 = h.quantile(0.99)
        assert 0.005 < p50 < 0.020
        assert 0.050 < p99 <= 0.150

    def test_inf_bucket_interpolates_to_max(self):
        huge = BUCKET_BOUNDS[-1] * 3
        h = _hist([huge])
        assert h.quantile(1.0) <= huge
        assert h.quantile(0.5) <= huge

    def test_serialization_roundtrip(self):
        h = _hist([0.0001, 0.5, 300.0])
        clone = LatencyHistogram.from_dict(h.to_dict())
        assert clone == h

    def test_json_roundtrip_via_scanmetrics(self):
        import json

        m = ScanMetrics()
        m.observe("phase_seconds/detect", 0.010)
        m.observe("file_seconds", 0.020)
        wire = json.loads(json.dumps(m.to_dict()))
        back = ScanMetrics.from_dict(wire)
        assert back.durations.keys() == m.durations.keys()
        assert back.durations["file_seconds"] == m.durations["file_seconds"]

    @given(st.lists(durations, max_size=60), st.lists(durations, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes(self, a, b):
        ab = _hist(a).merge(_hist(b))
        ba = _hist(b).merge(_hist(a))
        assert ab.buckets == ba.buckets
        assert ab.count == ba.count
        assert ab.max_s == ba.max_s
        for q in (0.5, 0.95, 0.99):
            assert ab.quantile(q) == ba.quantile(q)

    @given(
        st.lists(durations, max_size=40),
        st.lists(durations, max_size=40),
        st.lists(durations, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_associates(self, a, b, c):
        left = _hist(a).merge(_hist(b)).merge(_hist(c))
        right = _hist(a).merge(_hist(b).merge(_hist(c)))
        assert left.buckets == right.buckets
        assert left.count == right.count
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == right.quantile(q)

    @given(st.lists(durations, min_size=1, max_size=80), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_jobs_split_quantile_parity(self, values, jobs):
        # the jobs=1 vs jobs=4 claim: shard observations across N worker
        # collectors, fold the snapshots back, get identical quantiles
        whole = ScanMetrics()
        for v in values:
            whole.observe("file_seconds", v)
        shards = [ScanMetrics() for _ in range(jobs)]
        for i, v in enumerate(values):
            shards[i % jobs].observe("file_seconds", v)
        merged = ScanMetrics()
        for shard in shards:
            merged.merge(ScanMetrics.from_dict(shard.to_dict()))
        h_whole = whole.durations["file_seconds"]
        h_merged = merged.durations["file_seconds"]
        assert h_merged.buckets == h_whole.buckets
        assert h_merged.quantiles() == h_whole.quantiles()

    def test_time_file_records_both_tables(self):
        m = ScanMetrics()
        m.time_file("a.py", 0.030)
        assert m.files["a.py"] == pytest.approx(0.030)
        assert m.durations["file_seconds"].count == 1

    def test_merge_does_not_double_count_durations(self):
        a = ScanMetrics()
        a.time_file("a.py", 0.010)
        b = ScanMetrics()
        b.time_file("b.py", 0.020)
        a.merge(b)
        assert a.durations["file_seconds"].count == 2
        assert len(a.files) == 2


class TestExposition:
    def test_cumulative_and_inf_equals_count(self):
        h = _hist([0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 200.0])
        pairs = h.cumulative_buckets()
        counts = [n for _, n in pairs]
        assert counts == sorted(counts)  # cumulative, never decreasing
        assert pairs[-1] == ("+Inf", h.count)
        les = [le for le, _ in pairs[:-1]]
        assert [float(le) for le in les] == sorted(float(le) for le in les)

    def test_family_lines_shape(self):
        m = ScanMetrics()
        m.observe("server_request_seconds//v1/analyze", 0.005)
        m.observe("server_request_seconds//v1/analyze", 0.009)
        lines = histogram_families(m.durations)
        text = "\n".join(lines)
        assert "# TYPE patchitpy_server_request_seconds histogram" in text
        assert 'endpoint="/v1/analyze"' in text
        bucket_lines = [l for l in lines if "_bucket{" in l]
        assert bucket_lines[-1].endswith("2")
        assert 'le="+Inf"' in bucket_lines[-1]
        assert 'patchitpy_server_request_seconds_count{endpoint="/v1/analyze"} 2' in lines

    def test_inf_bucket_equals_count_in_exposition(self):
        m = ScanMetrics()
        for v in (0.001, 0.5, 400.0):
            m.observe("file_seconds", v)
        text = "\n".join(histogram_families(m.durations))
        inf_line = [
            l for l in text.splitlines() if l.startswith("patchitpy_file_seconds_bucket") and "+Inf" in l
        ]
        count_line = [
            l for l in text.splitlines() if l.startswith("patchitpy_file_seconds_count")
        ]
        assert inf_line[0].rsplit(" ", 1)[1] == count_line[0].rsplit(" ", 1)[1] == "3"

    @pytest.mark.parametrize(
        "label,escaped",
        [
            ('quo"te', 'quo\\"te'),
            ("back\\slash", "back\\\\slash"),
            ("new\nline", "new\\nline"),
            ('all\\"\n', 'all\\\\\\"\\n'),
        ],
    )
    def test_label_escaping(self, label, escaped):
        m = ScanMetrics()
        m.observe("phase_seconds/" + label, 0.001)
        text = "\n".join(histogram_families(m.durations))
        assert f'phase="{escaped}"' in text
        # escaping keeps every sample on exactly one exposition line
        for line in text.splitlines():
            assert line.startswith("#") or len(line.split()) == 2

    def test_rule_verdict_labels_escaped_in_to_prometheus(self):
        m = ScanMetrics()
        m.health_for('R"1\n\\').note_verdict("regressed", "detail", ok=False)
        text = to_prometheus(m)
        assert 'rule="R\\"1\\n\\\\"' in text
        assert "patchitpy_rule_patch_verdicts" in text

    def test_to_prometheus_includes_histograms_only_when_present(self):
        assert "patchitpy_file_seconds_bucket" not in to_prometheus(ScanMetrics())
        m = ScanMetrics()
        m.observe("file_seconds", 0.001)
        assert "patchitpy_file_seconds_bucket" in to_prometheus(m)


class TestRollingWindow:
    def _window(self, start=1000.0, interval=5.0, slots=12):
        state = {"now": start}
        window = RollingWindow(
            interval_s=interval, slots=slots, clock=lambda: state["now"]
        )
        return window, state

    def test_observe_and_rate(self):
        window, state = self._window()
        for _ in range(10):
            window.count("requests//v1/analyze")
            window.observe("latency//v1/analyze", 0.002)
        snap = window.window(60.0)
        assert snap.total("requests//v1/analyze") == 10
        assert snap.rate("requests//v1/analyze") == pytest.approx(10 / 60.0)
        assert 0.001 < snap.quantile("latency//v1/analyze", 0.5) < 0.004

    def test_slots_rotate_and_expire(self):
        window, state = self._window(interval=5.0, slots=12)  # 60s capacity
        window.count("requests/x")
        state["now"] += 30.0
        window.count("requests/x")
        assert window.window(60.0).total("requests/x") == 2
        # the first event is now outside a 15s horizon
        assert window.window(15.0).total("requests/x") == 1
        # lap the whole ring: the stale slot must not resurface
        state["now"] += 61.0
        assert window.window(60.0).total("requests/x") == 0

    def test_lapped_slot_resets_on_write(self):
        window, state = self._window(interval=1.0, slots=2)
        window.count("requests/x")
        state["now"] += 2.0  # same ring position, new epoch
        window.count("requests/x")
        assert window.window(1.0).total("requests/x") == 1

    def test_horizon_capped_at_capacity(self):
        window, state = self._window(interval=5.0, slots=12)
        window.count("requests/x")
        snap = window.window(10_000.0)
        assert snap.horizon_s == pytest.approx(60.0)

    def test_names_lists_live_histograms(self):
        window, state = self._window()
        window.observe("latency/a", 0.001)
        window.observe("latency/b", 0.002)
        assert list(window.names()) == ["latency/a", "latency/b"]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(interval_s=0.0)
        with pytest.raises(ValueError):
            RollingWindow(slots=0)


class TestStatusz:
    def test_renders_from_live_server(self):
        from repro.server.app import BackgroundServer, PatchitPyServer, ServerConfig
        from repro.server.client import ServerClient

        config = ServerConfig(port=0)
        with BackgroundServer(PatchitPyServer(config=config)) as handle:
            with ServerClient(port=handle.port) as client:
                client.analyze("import pickle\npickle.loads(b)\n", patch=True)
                html = client.statusz()
        assert html.startswith("<!doctype html>")
        assert "/v1/analyze" in html
        assert "p95" in html
        assert "Rule health" in html

    def test_escapes_rule_ids(self):
        from repro.server.statusz import render_statusz

        class _Stub:
            class config:
                jobs = 1
                queue_depth = 8

            metrics = ScanMetrics()
            window = RollingWindow(interval_s=5.0, slots=12)
            _started_at = 0.0
            _pool_kind = "thread"
            inline = False
            _pending = 0
            _inflight = 0
            _caches = {}

        _Stub.metrics.health_for("<script>alert(1)</script>").note("f.py", 100.0)
        html = render_statusz(_Stub())
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

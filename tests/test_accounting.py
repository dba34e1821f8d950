"""Rule accounting: tallied offer counts equal the eager per-rule loop.

A measured detect records its offer of the catalog as one tally
(:meth:`ScanMetrics.tally_rules`), folded into ``calls`` and
``prefilter_skips`` when ``ScanMetrics.rules`` is read.  The eager loop
below, which touched every rule of the catalog on every detect, is kept
as the oracle: any grouping of tallied collectors — merged directly,
pickled, or sent through ``to_dict``/``from_dict`` — must read exactly
what it reads, time aside.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.matching import _match_candidate, run_rules
from repro.core.rules import default_ruleset
from repro.observability.collector import ScanMetrics, clock
from repro.server.app import BackgroundServer, PatchitPyServer, ServerConfig
from repro.server.client import ServerClient
from repro.types import Finding, LineIndex

RULES = default_ruleset()
INDEX = RULES.candidate_index()


def eager_measured(source: str, metrics: ScanMetrics) -> List[Finding]:
    """The oracle: the per-detect loop over every rule of the catalog."""
    lines = LineIndex(source)
    lookup = INDEX.lookup(source)
    metrics.count("index_candidates", len(lookup.candidates))
    metrics.count("index_skips", len(lookup.skipped))
    live = {id(rule) for rule in lookup.candidates}
    for rule in INDEX.rules:
        if id(rule) not in live:
            stats = metrics.rule_stats(rule.rule_id)
            stats.calls += 1
            stats.prefilter_skips += 1
    findings: List[Finding] = []
    memo: Dict[Tuple[str, int], bool] = {}
    for rule in lookup.candidates:
        start = clock()
        stats = metrics.rule_stats(rule.rule_id)
        stats.calls += 1
        result = _match_candidate(rule, source, memo, lines)
        if result is None:
            stats.prereq_skips += 1
        else:
            findings.extend(result[0])
            stats.matches += len(result[0])
            stats.guard_vetoes += result[1]
        stats.time_s += clock() - start
    return findings


def timeless(snapshot: dict) -> dict:
    """A ``to_dict`` snapshot without its wall-time fields."""
    return {
        "rules": {
            rule_id: {k: v for k, v in stats.items() if k != "time_s"}
            for rule_id, stats in snapshot["rules"].items()
        },
        "counters": snapshot["counters"],
    }


@pytest.fixture(scope="module")
def pool(flat_samples):
    """Distinct sources with varied candidate masks, mutations included."""
    sources = list(dict.fromkeys(s.source for s in flat_samples))[:120]
    mutated = [
        sources[0].replace("\n", "\r\n"),
        sources[1][: len(sources[1]) // 2],
        sources[2] + "\n# ſ K\n",
        "",
        "# nosec\n",
    ]
    return sources + mutated


def _transport(metrics: ScanMetrics, how: str) -> ScanMetrics:
    if how == "pickle":
        return pickle.loads(pickle.dumps(metrics))
    if how == "dict":
        return ScanMetrics.from_dict(metrics.to_dict())
    if how == "read":
        metrics.rules  # fold now; later merges mix folded and pending
    return metrics


class TestTallyParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_grouping_equals_the_eager_oracle(self, pool, data):
        picks = data.draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12)
        )
        groups = data.draw(
            st.lists(st.integers(0, 3), min_size=len(picks), max_size=len(picks))
        )
        transports = data.draw(
            st.lists(
                st.sampled_from(["ref", "pickle", "dict", "read"]),
                min_size=4,
                max_size=4,
            )
        )
        order = data.draw(st.permutations(range(4)))

        oracle = ScanMetrics()
        merged = [ScanMetrics() for _ in range(4)]
        for pick, group in zip(picks, groups):
            source = pool[pick]
            eager_measured(source, oracle)
            own = ScanMetrics()
            run_rules(RULES, source, own)
            merged[group].merge(_transport(own, transports[group]))
        total = ScanMetrics()
        for group in order:
            total.merge(_transport(merged[group], transports[group]))
        assert timeless(total.to_dict()) == timeless(oracle.to_dict())

    def test_catalog_offer_counts_every_rule_once_per_detect(self, pool):
        metrics = ScanMetrics()
        for source in pool[:20]:
            run_rules(RULES, source, metrics)
        assert {stats.calls for stats in metrics.rules.values()} == {20}
        assert len(metrics.rules) == len(RULES)

    def test_pending_tallies_stay_bounded(self):
        metrics = ScanMetrics()
        for mask in range(3000):
            metrics.tally_rules(("A", "B"), mask)
        assert len(metrics._tallies) <= 1024
        rules = metrics.rules
        assert (rules["A"].calls, rules["A"].prefilter_skips) == (3000, 1500)
        assert (rules["B"].calls, rules["B"].prefilter_skips) == (3000, 1500)


def test_thread_and_process_pools_account_alike(flat_samples):
    """``jobs=1`` merges the worker's collector by reference, ``jobs=2``
    unpickles it from a worker process; /v1/metrics.json reads the same."""
    sources = [s.source for s in flat_samples[:40]]
    tables = []
    for jobs, kind in ((1, "thread"), (2, "process")):
        config = ServerConfig(port=0, jobs=jobs)
        with BackgroundServer(PatchitPyServer(config=config)) as handle:
            with ServerClient(port=handle.port) as client:
                assert client.healthz()["pool"] == kind
                for source in sources:
                    client.analyze(source, patch=False)
                client.batch(sources[:8])
                tables.append(timeless(client.metrics_json()["metrics"]))
    thread, process = tables
    assert thread["counters"]["detect_calls"] == len(sources) + 8
    assert len(thread["rules"]) == len(RULES)
    assert thread == process

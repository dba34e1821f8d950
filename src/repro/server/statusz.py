"""The ``/statusz`` operator dashboards — one self-contained HTML page.

Site-reliability tooling scrapes ``/metrics``; a human debugging a
misbehaving daemon or fleet wants one page they can open in a browser
with no Grafana between them and the process.  Both front ends render
the same frame from state they already hold — the rolling SLO windows
(request rates, error rates, and latency percentiles over the last
minute and five minutes) and the lifetime cache hit ratio — plus their
own sections:

- :func:`render_statusz` (one daemon) adds worker-pool and queue
  saturation and the rule-health table with patch-verdict counts;
- :func:`render_fleet_statusz` (the fleet front door) adds the worker
  table (state, port, pid, restarts, requests served) and per-tenant
  quota rejections, and takes its cache ratio from the exact-merged
  worker collectors.

Everything is inlined: no external CSS, no JavaScript beyond a
``<meta http-equiv="refresh">`` tag, so the page renders from ``curl``
output, behind an SSH tunnel, or in an air-gapped environment.  The
renderers only read state; they never mutate the collector or the
windows, so hitting ``/statusz`` in a loop cannot skew the numbers it
reports (beyond the request accounting every endpoint shares).  They
are duck-typed against the server and the router so tests can render
from a stub.
"""

from __future__ import annotations

import html
import time
from typing import List, Optional

__all__ = ["render_fleet_statusz", "render_statusz"]

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 1.5em; color: #1a1a2e; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
table { border-collapse: collapse; margin-top: 0.5em; }
th, td { border: 1px solid #c8c8d4; padding: 0.25em 0.7em; text-align: right; }
th { background: #eef0f6; } td.name, th.name { text-align: left; }
td.bad { color: #b00020; font-weight: 600; }
td.ok { color: #00691c; font-weight: 600; }
.muted { color: #6b6b7b; font-size: 0.9em; }
"""


def _fmt_ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1000.0:.1f}"


def _fmt_rate(per_second: float) -> str:
    return f"{per_second:.2f}"


def _page(
    role: str,
    facts: str,
    started_at: float,
    window,
    metrics,
    before: List[str],
    after: List[str],
) -> str:
    """The frame both dashboards share.

    Header (``facts`` joins the version and uptime line), then the
    role's ``before`` sections, per-endpoint rates and tails, the error
    table, the lifetime cache line from ``metrics``, the role's
    ``after`` sections, and the footer.
    """
    one_minute = window.window(60.0)
    five_minutes = window.window(300.0)
    uptime_s = time.monotonic() - started_at if started_at else 0.0

    from repro import __version__

    out: List[str] = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta http-equiv="refresh" content="5">',
        f"<title>patchitpy {role} /statusz</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>patchitpy {role} &mdash; statusz</h1>",
        '<p class="muted">'
        f"version {html.escape(__version__)} &middot; "
        f"uptime {uptime_s:.0f}s &middot; {facts} "
        "&middot; auto-refreshes every 5s</p>",
    ]
    out.extend(before)

    # ---- request rates and latency percentiles per endpoint -------------
    endpoints = sorted(
        {
            name.partition("/")[2]
            for name in set(one_minute.counters) | set(five_minutes.counters)
            if name.startswith("requests/")
        }
        | {
            name.partition("/")[2]
            for name in set(one_minute.histograms) | set(five_minutes.histograms)
            if name.startswith("latency/")
        }
    )
    out.append("<h2>Endpoints (rolling windows)</h2><table>")
    out.append(
        "<tr><th class=name>endpoint</th><th>req/s 1m</th><th>req/s 5m</th>"
        "<th>p50 ms 5m</th><th>p95 ms 5m</th><th>p99 ms 5m</th></tr>"
    )
    if not endpoints:
        out.append(
            '<tr><td class=name colspan="6">no requests in the window yet</td></tr>'
        )
    for endpoint in endpoints:
        latency = five_minutes.histograms.get("latency/" + endpoint)
        p50 = latency.quantile(0.5) if latency else None
        p95 = latency.quantile(0.95) if latency else None
        p99 = latency.quantile(0.99) if latency else None
        out.append(
            f"<tr><td class=name>{html.escape(endpoint)}</td>"
            f"<td>{_fmt_rate(one_minute.rate('requests/' + endpoint))}</td>"
            f"<td>{_fmt_rate(five_minutes.rate('requests/' + endpoint))}</td>"
            f"<td>{_fmt_ms(p50)}</td><td>{_fmt_ms(p95)}</td>"
            f"<td>{_fmt_ms(p99)}</td></tr>"
        )
    out.append("</table>")

    # ---- SLO counters: error / shed-load / deadline rates ---------------
    out.append("<h2>Errors and shed load (rolling windows)</h2><table>")
    out.append(
        "<tr><th class=name>class</th><th>per s, 1m</th><th>per s, 5m</th>"
        "<th>total 5m</th></tr>"
    )
    for label, key in (
        ("5xx responses", "responses/5xx"),
        ("4xx responses", "responses/4xx"),
        ("429 backpressure or quota", "responses/429"),
        ("503 draining or no workers", "responses/503"),
        ("504 deadline missed", "responses/504"),
    ):
        total = five_minutes.total(key)
        cells = "bad" if total and key in ("responses/5xx", "responses/503") else ""
        out.append(
            f"<tr><td class=name>{label}</td>"
            f"<td>{_fmt_rate(one_minute.rate(key))}</td>"
            f"<td>{_fmt_rate(five_minutes.rate(key))}</td>"
            f'<td class="{cells}">{total}</td></tr>'
        )
    out.append("</table>")

    # ---- lifetime cache efficiency --------------------------------------
    out.append("<h2>Cache (lifetime)</h2>")
    rate = metrics.cache_hit_rate()
    hits = metrics.counters.get("cache_hits", 0)
    misses = metrics.counters.get("cache_misses", 0)
    shared_hits = metrics.counters.get("snippet_cache_hits", 0)
    shared_misses = metrics.counters.get("snippet_cache_misses", 0)
    if rate is None:
        out.append('<p class="muted">no cache traffic yet</p>')
    else:
        shared = (
            f" &middot; {shared_hits} served from the shared snippet tier"
            if shared_hits or shared_misses
            else ""
        )
        out.append(
            f"<p>{hits} hit(s) / {misses} miss(es) &mdash; "
            f"hit ratio <b>{rate:.1%}</b>{shared}</p>"
        )
    out.extend(after)

    out.append(
        '<p class="muted">machine-readable twins: '
        '<a href="/metrics">/metrics</a> (Prometheus) and '
        '<a href="/healthz">/healthz</a> (JSON)</p>'
    )
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def render_statusz(server) -> str:
    """The dashboard HTML for one :class:`PatchitPyServer` instance.

    Reads ``config``, ``metrics``, ``window`` and the liveness gauges
    (``_started_at``, ``_pool_kind``, ``_pending``, ``_inflight``,
    ``_caches``).
    """
    cfg = server.config
    window = server.window
    facts = (
        f"pool {html.escape(server._pool_kind)}&times;{max(1, cfg.jobs)} &middot; "
        f"rolling windows {window.slots}&times;{window.interval_s:g}s"
    )

    # ---- saturation: queue + in-flight against capacity -----------------
    depth = max(1, cfg.queue_depth)
    saturation = server._pending / depth
    cells = "bad" if saturation >= 0.8 else ""
    before = [
        "<h2>Saturation</h2><table>",
        "<tr><th class=name>gauge</th><th>value</th><th>capacity</th></tr>",
        f'<tr><td class=name>analysis queue</td><td class="{cells}">'
        f"{server._pending}</td><td>{depth}</td></tr>",
        f"<tr><td class=name>in-flight requests</td>"
        f"<td>{server._inflight}</td><td>&mdash;</td></tr>",
        f"<tr><td class=name>open caches</td>"
        f"<td>{len(server._caches)}</td><td>&mdash;</td></tr>",
        "</table>",
    ]

    # ---- rule health: watchdog breaches + patch verdicts ----------------
    after = ["<h2>Rule health (lifetime)</h2>"]
    health = server.metrics.rule_health
    if not health:
        after.append('<p class="muted">no slow rules or patch verdicts recorded</p>')
    else:
        after.append("<table>")
        after.append(
            "<tr><th class=name>rule</th><th>breaches</th><th>worst ms</th>"
            "<th>verified</th><th>unverified</th><th class=name>exemplar</th></tr>"
        )
        for rule_id in sorted(health):
            entry = health[rule_id]
            unverified = entry.unverified()
            cells = "bad" if unverified else ""
            after.append(
                f"<tr><td class=name>{html.escape(rule_id)}</td>"
                f"<td>{entry.breaches}</td><td>{entry.worst_ms:.1f}</td>"
                f"<td>{entry.verdicts.get('verified', 0)}</td>"
                f'<td class="{cells}">{unverified}</td>'
                f"<td class=name>{html.escape(entry.failing_exemplar or entry.worst_file or '')}</td></tr>"
            )
        after.append("</table>")

    return _page(
        "server", facts, server._started_at, window, server.metrics, before, after
    )


def render_fleet_statusz(router, merged_metrics) -> str:
    """The dashboard HTML for one :class:`FleetRouter` instance.

    ``merged_metrics`` is the fleet-wide :class:`ScanMetrics` (worker
    collectors exact-merged with the router's own) the caller already
    gathered — the renderer never talks to workers itself.  Reads
    ``config``, ``window``, ``_started_at``, ``worker_table()`` and
    ``quotas``.
    """
    cfg = router.config
    rows = router.worker_table()
    up = sum(1 for row in rows if row["state"] == "up")
    facts = (
        f"{up}/{len(rows)} workers up &middot; "
        f"jobs per worker {max(1, cfg.jobs)} &middot; "
        f"ring replicas {cfg.replicas}"
    )

    # ---- worker table ----------------------------------------------------
    before = [
        "<h2>Workers</h2><table>",
        "<tr><th class=name>worker</th><th class=name>state</th><th>port</th>"
        "<th>pid</th><th>restarts</th><th>requests served</th>"
        "<th class=name>last failure</th></tr>",
    ]
    for row in rows:
        state = str(row["state"])
        cells = "ok" if state == "up" else "bad"
        before.append(
            f"<tr><td class=name>{html.escape(str(row['id']))}</td>"
            f'<td class="name {cells}">{html.escape(state)}</td>'
            f"<td>{row['port'] if row['port'] is not None else '-'}</td>"
            f"<td>{row['pid'] if row['pid'] is not None else '-'}</td>"
            f"<td>{row['restarts']}</td><td>{row['proxied']}</td>"
            f"<td class=name>{html.escape(str(row['reason'] or ''))}</td></tr>"
        )
    before.append("</table>")

    # ---- shed load: quota rejections by tenant ---------------------------
    after = ["<h2>Quota rejections by tenant (lifetime)</h2>"]
    rejections = router.quotas.snapshot_rejections()
    if not rejections:
        after.append('<p class="muted">no requests shed by quota yet</p>')
    else:
        after.append("<table>")
        after.append("<tr><th class=name>tenant</th><th>rejections</th></tr>")
        for tenant in sorted(rejections):
            after.append(
                f"<tr><td class=name>{html.escape(tenant)}</td>"
                f"<td class=bad>{rejections[tenant]}</td></tr>"
            )
        after.append("</table>")

    return _page(
        "fleet",
        facts,
        router._started_at,
        router.window,
        merged_metrics,
        before,
        after,
    )

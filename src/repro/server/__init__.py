"""The persistent scan server (``patchitpy serve``) and its client.

Layering:

- :mod:`repro.server.http11` — minimal HTTP/1.1 framing over asyncio
  streams (limits, timeouts, keep-alive);
- :mod:`repro.server.pipeline` — the request pipeline both front ends
  build on: listener binding, the keep-alive connection loop, trace ids,
  dispatch, accounting and the access log, drain, the shared body
  checks, the thread harness behind :class:`BackgroundServer` and
  :class:`BackgroundFleet`, and the foreground runner;
- :mod:`repro.server.app` — :class:`PatchitPyServer`: the warm engine,
  open caches, worker pool, endpoints, backpressure and deadlines;
- :mod:`repro.server.daemon` — the ``patchitpy serve`` argument parser
  and entry point;
- :mod:`repro.server.client` — a stdlib keep-alive JSON client
  (:class:`ServerClient`), over TCP or a unix socket;
- :mod:`repro.server.router` — fleet routing primitives: the
  consistent-hash ring and per-tenant token-bucket quotas;
- :mod:`repro.server.fleet` — ``patchitpy fleet``:
  :class:`FleetRouter`, the sharded front door that supervises N daemon
  workers behind one port;
- :mod:`repro.server.statusz` — the ``/statusz`` pages of the daemon
  and the fleet: one frame, plus each role's own sections.

See ``docs/server.md`` (single daemon) and ``docs/fleet.md`` (sharded
fleet) for the operational guides.
"""

from repro._lazy import lazy_exports as _lazy_exports

# Name -> defining module, resolved on first access (see repro._lazy), so a
# daemon or fleet worker loads only the layers it runs.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "BackgroundFleet": "repro.server.fleet",
        "BackgroundServer": "repro.server.app",
        "FleetConfig": "repro.server.fleet",
        "FleetRouter": "repro.server.fleet",
        "HashRing": "repro.server.router",
        "PatchitPyServer": "repro.server.app",
        "ServerClient": "repro.server.client",
        "ServerConfig": "repro.server.app",
        "ServerError": "repro.server.client",
        "TenantQuotas": "repro.server.router",
        "TokenBucket": "repro.server.router",
        # submodules
        "app": "repro.server.app",
        "client": "repro.server.client",
        "fleet": "repro.server.fleet",
        "http11": "repro.server.http11",
        "pipeline": "repro.server.pipeline",
        "router": "repro.server.router",
        "statusz": "repro.server.statusz",
    },
)

__all__ = [
    "BackgroundFleet",
    "BackgroundServer",
    "FleetConfig",
    "FleetRouter",
    "HashRing",
    "PatchitPyServer",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "TenantQuotas",
    "TokenBucket",
]

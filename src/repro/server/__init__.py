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

from repro.server.app import BackgroundServer, PatchitPyServer, ServerConfig
from repro.server.client import ServerClient, ServerError
from repro.server.fleet import BackgroundFleet, FleetConfig, FleetRouter
from repro.server.router import HashRing, TenantQuotas, TokenBucket

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

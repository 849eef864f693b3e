"""``repro.service`` — the live monitoring query service.

The paper's end state is environmental data operators actually *query*
(Mira's EnvDB feeds tools, not people reading flat files).  This
package puts the versioned API behind an HTTP face: a pure-stdlib WSGI
app fronting one :class:`~repro.store.ShardedStore` and the obs
registry, in the shape of CEEMS's resource-manager-agnostic API server.

* :mod:`repro.service.app` — the WSGI :class:`ServiceApp`, the
  in-process :class:`ServiceClient`, and ``serve()``;
* :mod:`repro.service.routes` — endpoint handlers: planned
  ``/v2/query/{range,prefix,latest,aggregate}``, cursor-paged
  ``/v2/tail``, ``/ready`` / ``/health`` / ``/metrics``, and the
  credentialed ``/v2/mech/<name>/read``;
* :mod:`repro.service.auth` — tenants bound to the host layer's POSIX
  :class:`~repro.host.permissions.Credentials` (one permission model
  end to end: a root-gated mechanism denies an unprivileged tenant at
  the chardev, rendered as a structured 403);
* :mod:`repro.service.errors` — the JSON error envelope
  (status/title/detail/origin);
* :mod:`repro.service.streaming` — the chunked NDJSON tail with
  shard-dark gap markers (chaos-aware degradation);
* :mod:`repro.service.loadgen` — the 64-shard load generator behind
  the ``service`` entries of ``repro bench perf``.

See ``docs/service.md`` for the endpoint reference.
"""

from __future__ import annotations

from repro.service.app import (
    ClientResponse,
    ServiceApp,
    ServiceClient,
    serve,
    service_for_fleet,
    service_for_machine,
)
from repro.service.auth import Tenant, TenantRegistry, default_tenants
from repro.service.errors import (
    BadRequest,
    Forbidden,
    MethodNotAllowed,
    NotFound,
    ServiceError,
    Unauthorized,
    Unavailable,
)
from repro.service.loadgen import bench_service, build_rig
from repro.service.streaming import STORE_CHANNEL, dark_shards, tail_stream

__all__ = [
    "BadRequest",
    "ClientResponse",
    "Forbidden",
    "MethodNotAllowed",
    "NotFound",
    "STORE_CHANNEL",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "Tenant",
    "TenantRegistry",
    "Unauthorized",
    "Unavailable",
    "bench_service",
    "build_rig",
    "dark_shards",
    "default_tenants",
    "serve",
    "service_for_fleet",
    "service_for_machine",
    "tail_stream",
]

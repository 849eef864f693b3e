"""``repro.api.service`` — the live monitoring query service.

The WSGI app and its in-process client, tenancy, the structured error
envelope classes, and the load generator behind the ``service`` entries
of ``repro bench perf``.
"""

from __future__ import annotations

from repro.service import (
    BadRequest,
    ClientResponse,
    Forbidden,
    MethodNotAllowed,
    NotFound,
    ServiceApp,
    ServiceClient,
    ServiceError,
    Tenant,
    TenantRegistry,
    Unauthorized,
    Unavailable,
    bench_service,
    build_rig,
    default_tenants,
    serve,
    service_for_machine,
)

__all__ = [
    "BadRequest",
    "ClientResponse",
    "Forbidden",
    "MethodNotAllowed",
    "NotFound",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "Tenant",
    "TenantRegistry",
    "Unauthorized",
    "Unavailable",
    "bench_service",
    "build_rig",
    "default_tenants",
    "serve",
    "service_for_machine",
]

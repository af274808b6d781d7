"""Residue GEMM as a service: ``repro serve`` and its client.

The service layer puts a long-lived :class:`~repro.session.Session` behind
a socket.  Conversion is the expensive, cacheable part of Ozaki scheme II;
a server that remembers prepared operands across requests — keyed by
content fingerprint, bounded by an LRU byte budget — turns the paper's
convert-once/multiply-many amortisation into an inter-process,
inter-client property.  Everything is standard library: the transport is
HTTP/1.1 keep-alive (:mod:`http.server` / :mod:`http.client`), the frames
are JSON headers plus raw array bytes (:mod:`repro.service.protocol`).

Pieces
------
* :class:`~repro.service.server.ReproServer` — the host: HTTP endpoints,
  operand resolution, request coalescing, ``/v1/stats`` observability.
* :class:`~repro.service.client.ServiceClient` — the caller side, with
  transparent fingerprint negotiation (upload once, reference thereafter,
  automatic inline retry after eviction).
* :class:`~repro.service.cache.OperandCache` — the bounded LRU of prepared
  operands shared by :class:`~repro.session.Session` and the server.
* :class:`~repro.service.coalescer.RequestCoalescer` — concurrent GEMM
  requests queued and drained on one worker, each through
  :meth:`Session.gemm <repro.session.Session.gemm>`.

Start a server from the CLI (``repro serve --port 7723``), query it with
``repro serve --stats``, or embed both ends::

    from repro.service import ReproServer, ServiceClient

    with ReproServer(port=0).start() as server:
        client = ServiceClient(port=server.port)
        result = client.gemm(a, b)      # cold: uploads + converts
        result = client.gemm(a, b)      # warm: fingerprint-only, cache hit
"""

from __future__ import annotations

from .cache import DEFAULT_CAPACITY_BYTES, OperandCache, cache_key
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_OPERAND_MISSING,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)

# The socket layer (server/client/coalescer) imports repro.session, which in
# turn imports this package for the cache — so those names load lazily
# (PEP 562) to keep the import graph acyclic.  ``from repro.service import
# ReproServer`` works exactly as if the import were eager.
_LAZY = {
    "ReproServer": ("repro.service.server", "ReproServer"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "ServiceError": ("repro.service.client", "ServiceError"),
    "RemoteResult": ("repro.service.client", "RemoteResult"),
    "RequestCoalescer": ("repro.service.coalescer", "RequestCoalescer"),
}


def __getattr__(name: str) -> object:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "RemoteResult",
    "OperandCache",
    "RequestCoalescer",
    "cache_key",
    "DEFAULT_CAPACITY_BYTES",
    "PROTOCOL_VERSION",
    "ERROR_BAD_REQUEST",
    "ERROR_INTERNAL",
    "ERROR_OPERAND_MISSING",
    "encode_frame",
    "decode_frame",
]

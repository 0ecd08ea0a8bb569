"""One machine-readable statistics schema for every serving surface.

``serve-batch --stats-json``, ``serve-stream --stats-json`` and the
daemon's ``{"op": "stats"}`` response all emit the same JSON object shape,
so dashboards and the CI smoke checks parse one schema regardless of which
front-end served the traffic:

.. code-block:: json

    {
      "command": "serve-stream",
      "records": 100000,
      "chunks": 13,
      "budget": {"alpha_target": 0.5, "alpha_spent": 0.81,
                 "alpha_remaining": 0.617, "releases": 2,
                 "budget_refusals": 0},
      "cache": {"hits": 0, "misses": 1, "hit_rate": 0.0, "disk_hits": 0,
                "evictions": 0, "size": 1, "disk_errors": 0,
                "warm_attempts": 0, "warm_hits": 0, "warm_fallbacks": 0,
                "corrupt_rows": 0, "imported_legacy": 0,
                "tiers": {"memory": 0, "registry": 0, "solve": 1}},
      "lp_solves": 0,
      "lp_build_seconds": 0.0,
      "lp_solve_seconds": 0.0,
      "plans_compiled": 1,
      "densifications": 0
    }

The ``cache`` sub-object's registry keys: ``warm_attempts`` /
``warm_hits`` / ``warm_fallbacks`` are reserved for an LP warm start
and read 0, since no solve is warm-started; ``corrupt_rows``
counts registry rows dropped on checksum/shape failure (each became a
re-solve); ``imported_legacy`` counts loose ``design-*.json`` entries
migrated on first open; ``tiers`` breaks requests down by serving tier
(in-process ``memory``, persistent ``registry``, fresh LP ``solve``).
The top-level ``lp_build_seconds`` / ``lp_solve_seconds`` are cumulative
process-wide LP wall-times from :func:`repro.core.design.lp_timing_totals`.

``budget`` fields are ``null`` on unmetered sessions (except
``budget_refusals``, which is always a number); ``cache`` is ``null`` when
no design cache was involved.  Extra per-surface counters (``batches``,
``coalesced_requests``, ``tenants``, ``overloaded``, ``replays`` …) appear
as additional top-level keys — consumers must ignore keys they do not
know.

The daemon's ``{"op": "health"}`` answer uses the sibling
:func:`health_payload` schema — the small, fast object a supervisor polls
between ``drain`` and SIGKILL.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.privacy import PrivacyAccountant
from repro.serving.cache import CacheStats


def cache_payload(stats: Optional[CacheStats]) -> Optional[Dict[str, Any]]:
    """The ``cache`` sub-object from a :class:`~repro.serving.cache.CacheStats`."""
    if stats is None:
        return None
    return {
        "hits": int(stats.hits),
        "misses": int(stats.misses),
        "hit_rate": round(float(stats.hit_rate), 6),
        "disk_hits": int(stats.disk_hits),
        "evictions": int(stats.evictions),
        "size": int(stats.size),
        "disk_errors": int(stats.disk_errors),
        "warm_attempts": int(stats.warm_attempts),
        "warm_hits": int(stats.warm_hits),
        "warm_fallbacks": int(stats.warm_fallbacks),
        "corrupt_rows": int(stats.corrupt_rows),
        "imported_legacy": int(stats.imported_legacy),
        "tiers": {key: int(value) for key, value in stats.tiers.items()},
    }


def budget_payload(
    accountant: Optional[PrivacyAccountant], budget_refusals: int = 0
) -> Dict[str, Any]:
    """The ``budget`` sub-object; ``null`` fields on unmetered sessions."""
    if accountant is None:
        return {
            "alpha_target": None,
            "alpha_spent": None,
            "alpha_remaining": None,
            "releases": None,
            "budget_refusals": int(budget_refusals),
        }
    return {
        "alpha_target": float(accountant.alpha_target),
        "alpha_spent": float(accountant.spent_alpha()),
        "alpha_remaining": float(accountant.remaining_alpha()),
        "releases": len(accountant.history()),
        "budget_refusals": int(budget_refusals),
    }


def health_payload(
    *,
    draining: bool,
    pending: int,
    inflight: int,
    connections: int,
    tenants: int,
    durable: bool,
    **extras: Any,
) -> Dict[str, Any]:
    """The daemon ``health`` op's answer: cheap liveness/readiness state.

    Deliberately tiny and allocation-light — a supervisor polls it between
    ``drain`` and SIGKILL, and a load balancer may poll it per second.
    ``extras`` lands as additional sorted keys (shed counters, durability
    recovery totals …); consumers must ignore keys they do not know.
    """
    payload: Dict[str, Any] = {
        "status": "draining" if draining else "ok",
        "draining": bool(draining),
        "pending": int(pending),
        "inflight": int(inflight),
        "connections": int(connections),
        "tenants": int(tenants),
        "durable": bool(durable),
    }
    for key in sorted(extras):
        payload[key] = extras[key]
    return payload


def stats_payload(
    command: str,
    *,
    records: int,
    cache: Optional[CacheStats] = None,
    accountant: Optional[PrivacyAccountant] = None,
    budget_refusals: int = 0,
    lp_solves: Optional[int] = None,
    lp_build_seconds: Optional[float] = None,
    lp_solve_seconds: Optional[float] = None,
    plans_compiled: Optional[int] = None,
    densifications: Optional[int] = None,
    **counters: Any,
) -> Dict[str, Any]:
    """Assemble the shared stats object for one serving surface.

    ``counters`` lands as extra top-level keys (sorted, for stable output);
    pass surface-specific totals such as ``chunks=`` or ``batches=`` there.

    ``lp_build_seconds`` / ``lp_solve_seconds`` default to the process-wide
    accumulators from :func:`repro.core.design.lp_timing_totals`; pass
    explicit values to report a delta instead.
    """
    from repro.core.design import lp_timing_totals  # deferred: avoids import cycle

    totals = lp_timing_totals()
    if lp_build_seconds is None:
        lp_build_seconds = totals["lp_build_seconds"]
    if lp_solve_seconds is None:
        lp_solve_seconds = totals["lp_solve_seconds"]
    payload: Dict[str, Any] = {"command": command, "records": int(records)}
    for key in sorted(counters):
        payload[key] = counters[key]
    payload["budget"] = budget_payload(accountant, budget_refusals)
    payload["cache"] = cache_payload(cache)
    payload["lp_solves"] = None if lp_solves is None else int(lp_solves)
    payload["lp_build_seconds"] = round(float(lp_build_seconds), 6)
    payload["lp_solve_seconds"] = round(float(lp_solve_seconds), 6)
    payload["plans_compiled"] = (
        None if plans_compiled is None else int(plans_compiled)
    )
    payload["densifications"] = (
        None if densifications is None else int(densifications)
    )
    return payload

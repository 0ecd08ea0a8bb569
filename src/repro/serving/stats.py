"""One statistics schema for every serving surface.

``serve-batch``, ``serve-stream`` and the daemon each build one JSON object
with :func:`stats_payload`.  ``--stats-json`` and the daemon's
``{"op": "stats"}`` response emit that object; the ``--stats`` line is a
rendering of the same object by :func:`stats_line`, so the two forms cannot
disagree.  An abridged ``serve-stream`` object:

.. code-block:: json

    {
      "command": "serve-stream",
      "records": 100000,
      "chunk_size": 8192,
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

renders as ``serve-stream: records=100000 chunk_size=8192 chunks=13
budget.alpha_target=0.5 … cache.tiers.solve=1 lp_solves=0 …``: nested
objects flatten into dotted keys and each value is its JSON text.

``records`` counts the counts this surface released itself; counts a
resumed ``serve-stream`` run found already served in its ledger are
``resumed_records``.  The last five keys are the surface's share of the
process-wide work counters: their growth since the
:func:`counter_snapshot` the surface took when it started.

The ``cache`` sub-object's registry keys: ``warm_attempts`` /
``warm_hits`` / ``warm_fallbacks`` are reserved for an LP warm start
and read 0, since no solve is warm-started; ``corrupt_rows``
counts registry rows dropped on checksum/shape failure (each became a
re-solve); ``imported_legacy`` counts loose ``design-*.json`` entries
migrated on first open; ``tiers`` breaks requests down by serving tier
(in-process ``memory``, persistent ``registry``, fresh LP ``solve``).

``budget`` fields are ``null`` on unmetered sessions (except
``budget_refusals``, which is always a number); ``cache`` is ``null`` when
no design cache was involved.  Extra per-surface counters (``batches``,
``chunks``, ``plan``, ``tenants``, ``overloaded``, ``replays`` …) appear
as additional top-level keys — consumers must ignore keys they do not
know.

The daemon's ``{"op": "health"}`` answer uses the sibling
:func:`health_payload` schema — the small, fast object a supervisor polls
between ``drain`` and SIGKILL.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.mechanism import Mechanism
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
        "releases": accountant.release_count(),
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




def counter_snapshot() -> Dict[str, float]:
    """The process-wide work counters, read once when a surface starts.

    LP solves, LP build and solve wall-time, :attr:`ReleasePlan.compilations
    <repro.engine.plan.ReleasePlan.compilations>` and
    :attr:`Mechanism.densifications
    <repro.core.mechanism.Mechanism.densifications>`; :func:`stats_payload`
    reports each as its growth since this snapshot.
    """
    # Deferred: the engine and design layers import the serving layer.
    from repro.core.design import lp_timing_totals
    from repro.engine.plan import ReleasePlan
    from repro.lp.solver import solve_call_count

    return {
        "lp_solves": solve_call_count(),
        **lp_timing_totals(),
        "plans_compiled": ReleasePlan.compilations,
        "densifications": Mechanism.densifications,
    }


def stats_payload(
    command: str,
    *,
    records: int,
    since: Dict[str, float],
    cache: Optional[CacheStats] = None,
    accountant: Optional[PrivacyAccountant] = None,
    budget_refusals: int = 0,
    **counters: Any,
) -> Dict[str, Any]:
    """Assemble the shared stats object for one serving surface.

    ``counters`` lands as extra top-level keys (sorted, for stable output);
    pass surface-specific totals such as ``chunks=`` or ``batches=`` there.
    ``since`` is the surface's :func:`counter_snapshot`; the work counters
    at the end of the object are the deltas from it.
    """
    payload: Dict[str, Any] = {"command": command, "records": int(records)}
    for key in sorted(counters):
        payload[key] = counters[key]
    payload["budget"] = budget_payload(accountant, budget_refusals)
    payload["cache"] = cache_payload(cache)
    for key, value in counter_snapshot().items():
        payload[key] = round(value - since[key], 6)
    return payload


def flatten_payload(payload: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """``payload`` with every nested object spread into dotted keys."""
    flat: Dict[str, Any] = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(flatten_payload(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def stats_line(payload: Dict[str, Any]) -> str:
    """The ``--stats`` line: ``command: key=value …``, each value as JSON text."""
    flat = flatten_payload(payload)
    command = flat.pop("command")
    fields = " ".join(f"{key}={json.dumps(value)}" for key, value in flat.items())
    return f"{command}: {fields}"

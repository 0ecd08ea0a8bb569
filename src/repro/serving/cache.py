"""Memoising designed mechanisms so repeated requests skip the LP solver.

A mechanism design is fully determined by the tuple ``(n, alpha, properties,
objective)``; nothing about the data enters the design.  Serving
workloads therefore see a tiny set of distinct designs under a huge stream of
requests, and the LP solve — milliseconds to seconds per design — is the
entire marginal cost.  :class:`DesignCache` keys designs by the canonical
request string (:func:`design_key`), keeps the most recently used ones in
memory (LRU), and can mirror every design to a directory of JSON files so
later processes skip the solver too.

Entries store each mechanism's *representation descriptor* — a closed-form
factory call for the Figure-5 GM/EM branches, CSC arrays for LP-designed
mechanisms — rather than a dense matrix blob, so cached designs stay small
at any group size.  The persistent tier is a
:class:`~repro.serving.registry.PlanRegistry` (one WAL-mode sqlite file per
cache directory, safe for concurrent multi-process readers and a writer); a
corrupt row (killed writer, bad disk) is treated as a cache miss: the
design is re-solved and the bad row overwritten.  Legacy loose
``design-*.json`` directories are imported into the registry on first open.

>>> from repro.serving import DesignCache
>>> cache = DesignCache(capacity=64)
>>> mech, decision = cache.get_or_design(8, 0.9, properties="WH+CM")
>>> _ = cache.get_or_design(8, 0.9, properties="WH+CM")  # no LP solve
>>> cache.stats().hits
1
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import StructuralProperty, parse_properties
from repro.core.selector import SelectorDecision
from repro.serving.registry import KEY_BACKEND, PlanRegistry

PropertiesLike = Union[None, str, Iterable[Union[str, StructuralProperty]]]


def _objective_key(objective: Optional[Objective]) -> str:
    """Canonical string for an objective, including the prior weights."""
    if objective is None:
        return "L0-default"
    weights = "uniform"
    if objective.weights is not None:
        weights = ",".join(repr(float(w)) for w in objective.weights)
    return f"p={objective.p:g};d={objective.d};agg={objective.aggregator};w={weights}"


def design_key(
    n: int,
    alpha: float,
    properties: PropertiesLike = (),
    objective: Optional[Objective] = None,
) -> str:
    """Canonical cache key for a design request.

    Property sets are parsed and sorted so ``"WH+CM"``, ``"CM+WH"`` and the
    equivalent enum collections all map to the same key.  The key ends in
    the fixed solver tag :data:`~repro.serving.registry.KEY_BACKEND`.
    """
    props = "+".join(sorted(p.value for p in parse_properties(properties))) or "none"
    return (
        f"n={int(n)}|alpha={repr(float(alpha))}|props={props}"
        f"|obj={_objective_key(objective)}|backend={KEY_BACKEND}"
    )


@dataclass(frozen=True)
class CacheStats:
    """Counters describing how a :class:`DesignCache` has been used."""

    hits: int
    misses: int
    evictions: int
    disk_hits: int
    size: int
    #: Registry stores that failed (I/O error) and were swallowed; the
    #: in-memory tier keeps serving, so these are observability, not errors.
    disk_errors: int = 0
    #: LP warm-start counters (attempts, accepted, fell back to cold).  No
    #: solve is warm-started yet, so they read 0; they stay in the stats
    #: schema for an LP warm start from :meth:`PlanRegistry.nearest`.
    warm_attempts: int = 0
    warm_hits: int = 0
    warm_fallbacks: int = 0
    #: Registry rows that failed checksum/shape verification and were
    #: dropped (each one became a miss and a re-solve).
    corrupt_rows: int = 0
    #: Legacy loose ``design-*.json`` entries imported on registry open.
    imported_legacy: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0

    @property
    def tiers(self) -> Dict[str, int]:
        """Requests served per tier: in-process memory, registry, LP solve."""
        return {
            "memory": self.hits - self.disk_hits,
            "registry": self.disk_hits,
            "solve": self.misses,
        }


class DesignCache:
    """LRU + optional on-disk memo of :func:`~repro.core.selector.choose_mechanism`.

    Parameters
    ----------
    capacity:
        Maximum number of designs held in memory; the least recently used
        entry is evicted beyond this.  Must be at least 1.
    directory:
        Optional directory for the persistent tier.  Every design (fresh or
        loaded) is mirrored into the directory's
        :class:`~repro.serving.registry.PlanRegistry` (``registry.sqlite``),
        so a new process pointed at the same directory serves every
        previously seen request without an LP solve.  A directory holding
        legacy loose ``design-*.json`` files is imported once on open, the
        loose files left untouched.

    Notes
    -----
    Cache hits return a *fresh* :class:`~repro.core.mechanism.Mechanism`
    rebuilt from the stored payload, so callers may mutate metadata freely
    without polluting the cache.  ``metadata["design_cache"]`` records
    whether the instance came from ``"solve"``, ``"memory"`` or ``"disk"``.

    The cache is thread-safe: one re-entrant lock guards the LRU order,
    the counters and the design resolution itself, so concurrent tenants
    sharing a cache (the serving daemon, a thread-pool client) can never
    corrupt the ``OrderedDict`` — and concurrent misses on the same key
    serialise into exactly one LP solve process-wide.
    """

    def __init__(self, capacity: int = 128, directory: Optional[Union[str, Path]] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = int(capacity)
        self.directory = Path(directory) if directory is not None else None
        self.registry: Optional[PlanRegistry] = (
            PlanRegistry(self.directory) if self.directory is not None else None
        )
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._disk_errors = 0
        #: Whether the registry tier is in use (cleared by :meth:`close`).
        self._disk_open = self.registry is not None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters (a consistent snapshot)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                disk_hits=self._disk_hits,
                size=len(self._entries),
                disk_errors=self._disk_errors,
                corrupt_rows=0 if self.registry is None else self.registry.corrupt_rows,
                imported_legacy=(
                    0 if self.registry is None else self.registry.imported_legacy
                ),
            )

    def clear(self, disk: bool = False) -> None:
        """Drop every in-memory entry (and the open registry tier when ``disk``)."""
        with self._lock:
            self._entries.clear()
            if disk and self._disk_open:
                self.registry.clear()

    def close(self) -> None:
        """Release the registry connection.

        The cache keeps serving from memory: a later miss runs the selector
        and keeps the design in memory only, and nothing is read from or
        written to the registry again.  :meth:`stats` keeps its registry
        counters.
        """
        with self._lock:
            if self.registry is not None:
                self.registry.close()
            self._disk_open = False

    # ------------------------------------------------------------------ #
    # The main entry point
    # ------------------------------------------------------------------ #
    def get_or_design(
        self,
        n: int,
        alpha: float,
        properties: PropertiesLike = (),
        objective: Optional[Objective] = None,
    ) -> Tuple[Mechanism, SelectorDecision]:
        """The cached equivalent of :func:`~repro.core.selector.choose_mechanism`.

        On a miss the Figure-5 selector runs (solving the LP only on the WM
        branches) and the result is stored in memory and, when configured,
        on disk.  On a hit no selector or solver work happens at all.

        The whole lookup-or-solve runs under the cache lock, so two threads
        missing on the same key cannot race into two LP solves: the second
        thread blocks until the first has stored the entry, then hits it.
        """
        key = design_key(n, alpha, properties, objective)
        with self._lock:
            entry = self._entries.get(key)
            source = "memory"
            if entry is None:
                entry = self._load_from_disk(key)
                if entry is not None:
                    source = "disk"
            if entry is not None:
                # A stored payload that no longer materialises (corrupt disk
                # write, schema from an incompatible version) is treated as a
                # miss: drop it, re-solve below and overwrite the bad entry.
                try:
                    materialised = self._materialise(entry, key, source)
                except Exception:
                    self._entries.pop(key, None)
                    self._remove_from_disk(key)
                else:
                    self._hits += 1
                    if source == "disk":
                        self._disk_hits += 1
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    self._evict()
                    return materialised

            self._misses += 1
            from repro.core.selector import choose_mechanism  # deferred: avoids import cycle

            mechanism, decision = choose_mechanism(
                n, alpha, properties=properties, objective=objective
            )
            entry = {
                "key": key,
                "mechanism": mechanism.to_dict(),
                "decision": _decision_to_dict(decision),
            }
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._evict()
            self._store_to_disk(key, entry)
            mechanism.metadata["design_cache"] = "solve"
            mechanism.metadata["design_cache_key"] = key
            return mechanism, decision

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def _materialise(
        self, entry: Dict[str, Any], key: str, source: str
    ) -> Tuple[Mechanism, SelectorDecision]:
        mechanism = Mechanism.from_dict(entry["mechanism"])
        mechanism.metadata["design_cache"] = source
        mechanism.metadata["design_cache_key"] = key
        return mechanism, _decision_from_dict(entry["decision"])

    def _load_from_disk(self, key: str) -> Optional[Dict[str, Any]]:
        """Read a registry entry; a corrupt row is dropped and is a miss.

        The registry verifies checksum, JSON shape and recorded key before
        returning anything, so a killed writer or bit-rotted row surfaces
        here as ``None`` and the caller re-solves and overwrites it.
        """
        if not self._disk_open:
            return None
        return self.registry.get(key)

    def _remove_from_disk(self, key: str) -> None:
        if self._disk_open:
            self.registry.delete(key)

    def _store_to_disk(self, key: str, entry: Dict[str, Any]) -> None:
        """Mirror one entry into the registry (one atomic transaction).

        Registry failures (I/O errors, full disk) are counted and
        swallowed: the cache result itself is already in memory, and a
        cache that cannot persist must not fail the design it memoises.
        An injected crash (``torn_cache``) propagates — it models process
        death, and the rolled-back transaction guarantees a restart sees
        a clean miss, never a partial row.
        """
        if not self._disk_open:
            return
        try:
            self.registry.put(key, entry)
        except OSError:
            self._disk_errors += 1


def _decision_to_dict(decision: SelectorDecision) -> Dict[str, Any]:
    return {
        "branch": decision.branch,
        "requested": sorted(p.value for p in decision.requested),
        "closure": sorted(p.value for p in decision.closure),
        "n": decision.n,
        "alpha": decision.alpha,
        "reason": decision.reason,
    }


def _decision_from_dict(payload: Dict[str, Any]) -> SelectorDecision:
    return SelectorDecision(
        branch=str(payload["branch"]),
        requested=parse_properties(payload["requested"]),
        closure=parse_properties(payload["closure"]),
        n=int(payload["n"]),
        alpha=float(payload["alpha"]),
        reason=str(payload["reason"]),
    )

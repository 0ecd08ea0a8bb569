"""The release engine: compiled plans + streaming executors.

The paper's workflow is two-phase — design a constrained mechanism once,
then apply it to many counts — and every layer of this repository used to
re-implement the second phase for itself.  This package is the shared
implementation:

* :class:`~repro.engine.plan.ReleasePlan` — a compiled, reusable release
  recipe: resolved mechanism + eagerly-prepared sampling state + privacy
  cost + optional post-processing hooks.  Built by
  :meth:`~repro.engine.plan.ReleasePlan.compile` (design request, optionally
  through a :class:`~repro.serving.cache.DesignCache`) or
  :meth:`~repro.engine.plan.ReleasePlan.from_mechanism`.
* :class:`~repro.engine.executor.StreamExecutor` — runs a plan over an
  arbitrary count stream in fixed-size chunks with bounded memory,
  bit-identical to the one-shot path in its serial discipline, with
  optional process fan-out in its seeded discipline, and charging every
  chunk against a :class:`~repro.privacy.PrivacyAccountant` *before*
  sampling.

The serving session, histogram releaser, empirical evaluator and the
experiment sweeps are all thin adapters over these two classes; see
``docs/architecture.md`` for the plan lifecycle diagram.
"""

# Import order matters: ``faults`` (stdlib-only) must initialise before
# ``durability`` (which uses it), which must initialise before ``executor``
# and ``stream_io`` (which use both) — otherwise a direct
# ``import repro.engine.durability`` would re-enter this package mid-import
# and find a partially initialised module.
from repro.engine.faults import FaultInjector, InjectedCrash
from repro.engine.durability import (
    AccountantLedger,
    LedgerConfigError,
    LedgerCorruptionError,
    LedgerError,
    ResumeState,
)
from repro.engine.executor import (
    DEFAULT_CHUNK_SIZE,
    ExecutorStats,
    StreamExecutor,
    iter_count_chunks,
)
from repro.engine.plan import ReleasePlan, charge_release
from repro.engine.stream_io import NpyCountWriter, open_npy_counts

#: Convenience alias: ``compile_plan(...)`` reads naturally at call sites.
compile_plan = ReleasePlan.compile

__all__ = [
    "AccountantLedger",
    "DEFAULT_CHUNK_SIZE",
    "ExecutorStats",
    "FaultInjector",
    "InjectedCrash",
    "LedgerConfigError",
    "LedgerCorruptionError",
    "LedgerError",
    "NpyCountWriter",
    "ReleasePlan",
    "ResumeState",
    "StreamExecutor",
    "charge_release",
    "compile_plan",
    "iter_count_chunks",
    "open_npy_counts",
]

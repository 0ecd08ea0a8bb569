"""Command-line interface for designing, inspecting and applying mechanisms.

The CLI covers the operations a practitioner needs without writing Python:

``repro-mechanisms design``
    Solve for (or construct) the optimal mechanism for a group size, privacy
    level and property set; print its scores, properties and matrix, and
    optionally save it as JSON for later use.

``repro-mechanisms compare``
    Print the Figure-6-style comparison table of GM / WM / EM / UM for a
    given (n, α), with an optional heatmap per mechanism.

``repro-mechanisms release``
    Apply a mechanism (by name, or a previously saved JSON file) to a list
    of true counts — from the command line or a single-column CSV — and
    print or save the released counts.

``repro-mechanisms serve-batch``
    The serving layer as a command: route a large batch of count-release
    requests — homogeneous (one design, many counts) or mixed (a CSV of
    per-group design requests) — through the design cache and the
    vectorised batch sampler.  ``--cache-dir`` persists designs across
    invocations so repeat traffic never re-solves the LP;
    ``--budget-alpha`` guards the whole session with a
    :class:`~repro.privacy.PrivacyAccountant`.

``repro-mechanisms serve-stream``
    The engine as a command: compile one
    :class:`~repro.engine.plan.ReleasePlan` and stream counts through a
    :class:`~repro.engine.executor.StreamExecutor` in fixed-size chunks —
    from a file or stdin, with bounded memory, optional ``--budget-alpha``
    enforcement (refusing an over-budget chunk before sampling it) and
    optional ``--max-workers`` process fan-out.

``repro-mechanisms serve``
    The long-lived multi-tenant daemon: per-tenant privacy budgets over one
    shared design cache, with a coalescing batcher that merges same-plan
    requests from different tenants into single vectorised draws
    (bit-identical to per-request serving).  Speaks line-delimited JSON
    over TCP or a unix socket; see :mod:`repro.serving.daemon`.

``repro-mechanisms experiments``
    Thin wrapper around :mod:`repro.experiments.runner`.

Examples
--------
::

    repro-mechanisms design --n 8 --alpha 0.9 --properties F --heatmap
    repro-mechanisms compare --n 4 --alpha 0.9
    repro-mechanisms release --mechanism EM --n 8 --alpha 0.9 --counts 3 5 2 8
    repro-mechanisms serve-batch --n 16 --alpha 0.9 --properties WH+CM \
        --counts-file counts.txt --seed 7 --cache-dir ~/.cache/repro-designs
    seq 0 99999 | shuf | repro-mechanisms serve-stream --n 100000 --alpha 0.9 \
        --chunk-size 8192 --budget-alpha 0.5 --seed 7 --stats
    repro-mechanisms experiments --fast --only figure-9
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core.design import design_mechanism
from repro.core.losses import l0_score, l1_score, mechanism_rmse, truth_probability
from repro.core.mechanism import Mechanism
from repro.core.properties import check_all_properties
from repro.core.selector import choose_mechanism
from repro.eval.reporting import ascii_heatmap, describe_mechanism, format_table
from repro.experiments import runner
from repro.mechanisms.registry import available_mechanisms, create_mechanism


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-mechanisms",
        description="Constrained differentially private mechanisms for count data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    design = subparsers.add_parser(
        "design", help="design the optimal mechanism for a property set"
    )
    design.add_argument("--n", type=int, required=True, help="group size (outputs are 0..n)")
    design.add_argument("--alpha", type=float, required=True, help="privacy parameter in [0, 1]")
    design.add_argument(
        "--properties",
        default="",
        help="property set, e.g. 'F', 'WH+CM', 'all' (empty = unconstrained)",
    )
    design.add_argument(
        "--use-selector",
        action="store_true",
        help="use the Figure-5 flowchart (explicit GM/EM where possible) instead of always solving the LP",
    )
    design.add_argument("--output-alpha", type=float, default=None,
                        help="also enforce output-side DP at this level (Section VI extension)")
    design.add_argument("--representation", choices=("dense", "sparse"), default="dense",
                        help="how to store an LP-designed mechanism (sparse = CSC non-zeros only)")
    design.add_argument("--heatmap", action="store_true", help="print an ASCII heatmap")
    design.add_argument("--matrix", action="store_true", help="print the full probability matrix")
    design.add_argument("--save", type=Path, default=None, help="write the mechanism to a JSON file")

    compare = subparsers.add_parser(
        "compare", help="compare the paper's named mechanisms (GM, WM, EM, UM)"
    )
    compare.add_argument("--n", type=int, required=True)
    compare.add_argument("--alpha", type=float, required=True)
    compare.add_argument("--heatmap", action="store_true")

    release = subparsers.add_parser(
        "release", help="apply a mechanism to true counts and print the noisy counts"
    )
    release.add_argument("--mechanism", default="EM",
                         help=f"mechanism name ({', '.join(available_mechanisms())}) — ignored with --load")
    release.add_argument("--load", type=Path, default=None,
                         help="load a mechanism JSON previously written by 'design --save'")
    release.add_argument("--n", type=int, default=None, help="group size (required unless --load)")
    release.add_argument("--alpha", type=float, default=None, help="privacy level (required unless --load)")
    release.add_argument("--counts", type=int, nargs="*", default=None, help="true counts")
    release.add_argument("--counts-file", type=Path, default=None,
                         help="file with one true count per line")
    release.add_argument("--seed", type=int, default=None, help="random seed")
    release.add_argument("--output", type=Path, default=None,
                         help="write released counts to this file (one per line)")

    serve = subparsers.add_parser(
        "serve-batch",
        help="serve a batch of release requests through the design cache + vectorised sampler",
        epilog="exit status: 0 — all requests released; 1 — refused (privacy "
               "budget exhausted before sampling, or invalid request): nothing "
               "was released, rerun with a fresh --budget-alpha or fewer "
               "requests.",
    )
    serve.add_argument("--n", type=int, default=None,
                       help="group size for homogeneous batches (ignored with --requests-file)")
    serve.add_argument("--alpha", type=float, default=None,
                       help="privacy level for homogeneous batches")
    serve.add_argument("--properties", default="",
                       help="property set for homogeneous batches, e.g. 'WH+CM' or 'F'")
    serve.add_argument("--counts", type=int, nargs="*", default=None, help="true counts")
    serve.add_argument("--counts-file", type=Path, default=None,
                       help="file with one true count per line")
    serve.add_argument("--random-counts", type=int, default=None, metavar="K",
                       help="serve K uniformly random true counts in [0, n] "
                            "(seeded by --seed; handy for load tests at large n)")
    serve.add_argument("--requests-file", type=Path, default=None,
                       help="CSV of mixed requests: group,count,n,alpha[,properties]")
    serve.add_argument("--seed", type=int, default=None,
                       help="seed for a shared generator (reproducible releases)")
    serve.add_argument("--cache-dir", type=Path, default=None,
                       help="directory for the on-disk design cache (shared across runs)")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="in-memory LRU capacity of the design cache")
    serve.add_argument("--budget-alpha", type=float, default=None,
                       help="guard the session with a privacy budget: refuse any "
                            "request that would push the composed guarantee below "
                            "this alpha (refused before sampling)")
    serve.add_argument("--output", type=Path, default=None,
                       help="write results to this file instead of stdout")
    serve.add_argument("--stats", action="store_true",
                       help="print cache/solver/budget statistics after serving")
    serve.add_argument("--stats-json", action="store_true",
                       help="emit one machine-readable JSON statistics object "
                            "to stderr after serving (alpha spent/remaining, "
                            "refusals, cache hit rate, plans compiled — the "
                            "same schema the daemon's 'stats' op returns)")

    stream = subparsers.add_parser(
        "serve-stream",
        help="stream counts through a compiled release plan in fixed-size chunks",
        epilog="exit status: 0 — stream fully released; 1 — privacy budget "
               "exhausted mid-stream (the output holds every chunk released "
               "before the refusal and the ledger, if any, stays consistent); "
               "2 — durable-ledger error (corrupt ledger, resume parameters "
               "that do not match the recorded run, or an existing ledger "
               "without --resume): inspect the message, then either resume "
               "with the original parameters or delete the ledger to start "
               "over.",
    )
    stream.add_argument("--n", type=int, required=True, help="group size (counts in 0..n)")
    stream.add_argument("--alpha", type=float, required=True, help="privacy level in [0, 1]")
    stream.add_argument("--properties", default="",
                        help="property set, e.g. 'WH+CM' or 'F' (empty = unconstrained)")
    stream.add_argument("--counts-file", type=Path, default=None,
                        help="file with one true count per line, or a binary .npy "
                             "array of counts (memory-mapped, zero parse cost); "
                             "default: read stdin")
    stream.add_argument("--chunk-size", type=int, default=8192,
                        help="counts released per chunk; peak memory is O(chunk-size)")
    stream.add_argument("--seed", type=int, default=None,
                        help="seed for the release stream (reproducible runs)")
    stream.add_argument("--budget-alpha", type=float, default=None,
                        help="privacy budget: every chunk is charged alpha before "
                             "sampling; an over-budget chunk is refused with nothing drawn")
    stream.add_argument("--max-workers", type=int, default=None,
                        help="sample chunks in this many worker processes (switches to "
                             "per-chunk seed substreams: output is identical for every "
                             "worker count, but differs from the serial shared-stream "
                             "default)")
    stream.add_argument("--ledger", type=Path, default=None,
                        help="durable accountant ledger (append-only, fsync'd, "
                             "checksummed WAL): every chunk's budget charge is "
                             "persisted before sampling and every served chunk "
                             "is checkpointed, so a crashed run can be resumed "
                             "exactly; requires --budget-alpha and --output, "
                             "and switches to the per-chunk seed-substream "
                             "discipline (as --max-workers does)")
    stream.add_argument("--resume", action="store_true",
                        help="continue the run recorded in --ledger: chunks "
                             "already served are skipped (input verified "
                             "against the charged checksums), the output file "
                             "is truncated to the last durable checkpoint, and "
                             "the final output is byte-identical to an "
                             "uninterrupted run")
    stream.add_argument("--chunk-timeout", type=float, default=None,
                        help="seconds to wait for a worker chunk before "
                             "declaring the worker hung and requeueing "
                             "(seeded pool only; default: wait forever)")
    stream.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the on-disk design cache (shared across runs)")
    stream.add_argument("--cache-size", type=int, default=128,
                        help="in-memory LRU capacity of the design cache")
    stream.add_argument("--output", type=Path, default=None,
                        help="write released counts to this file instead of stdout "
                             "(chunk by chunk, so memory stays bounded); a .npy "
                             "suffix selects the binary protocol — the released "
                             "counts of the same seed are identical either way")
    stream.add_argument("--stats", action="store_true",
                        help="print plan/executor/budget statistics after serving")
    stream.add_argument("--stats-json", action="store_true",
                        help="emit one machine-readable JSON statistics object "
                             "to stderr after serving (same schema as "
                             "serve-batch --stats-json and the daemon)")

    daemon = subparsers.add_parser(
        "serve",
        help="run the long-lived multi-tenant serving daemon (request coalescing)",
        epilog="protocol: line-delimited JSON over TCP or a unix socket; "
               "response codes mirror serve-stream exit statuses (0 served, "
               "1 refused over budget — nothing drawn, 2 error, 3 overloaded "
               "— shed for capacity or deadline, retriable, nothing charged). "
               "With --state-dir every tenant's budget is journaled durably "
               "and a restarted daemon resumes exact spend, refusals and "
               "substream positions. See examples/daemon_client.py for a "
               "complete client.",
    )
    daemon.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    daemon.add_argument("--port", type=int, default=None,
                        help="TCP port (0 or omitted = pick a free port; the "
                             "bound address is printed on startup)")
    daemon.add_argument("--unix-socket", type=Path, default=None,
                        help="serve on a unix socket at this path instead of TCP")
    daemon.add_argument("--max-tenants", type=int, default=64,
                        help="refuse hello for new tenants beyond this many sessions")
    daemon.add_argument("--batch-window-ms", type=float, default=2.0,
                        help="coalescing window: hold the first pending request "
                             "this long to merge same-plan requests from other "
                             "tenants into one draw (0 = serve each request "
                             "immediately; outputs are bit-identical either way)")
    daemon.add_argument("--max-batch", type=int, default=256,
                        help="flush the batcher once this many requests are pending")
    daemon.add_argument("--budget-alpha", type=float, default=None,
                        help="default per-tenant privacy budget: each new tenant "
                             "gets its own accountant with this target (a "
                             "tenant's hello may override); over-budget requests "
                             "are shed from the batch with a code-1 refusal, "
                             "never blocking other tenants")
    daemon.add_argument("--seed", type=int, default=None,
                        help="server seed: fixes every tenant's substream root "
                             "(absent per-tenant hello seeds) so a whole "
                             "serving run is reproducible")
    daemon.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the on-disk design cache (shared across runs)")
    daemon.add_argument("--cache-size", type=int, default=128,
                        help="in-memory LRU capacity of the shared design cache "
                             "(also bounds the compiled-plans LRU)")
    daemon.add_argument("--state-dir", type=Path, default=None,
                        help="durable mode: journal every tenant's budget "
                             "charges (and refusals) to per-tenant ledgers "
                             "under this directory, fsync'd before each "
                             "batch's samples; on restart the ledgers are "
                             "replayed so tenants resume with exact spend and "
                             "bit-identical substreams (requires a budget: "
                             "--budget-alpha or per-hello budget_alpha)")
    daemon.add_argument("--no-fsync", action="store_true",
                        help="skip fsync on tenant-ledger appends (faster, "
                             "but a power loss may forget recent charges; "
                             "process crashes are still covered)")
    daemon.add_argument("--request-timeout", type=float, default=None,
                        help="seconds from admission after which an unserved "
                             "request is shed with a retriable code-3 "
                             "response, consuming no budget and no substream")
    daemon.add_argument("--client-timeout", type=float, default=None,
                        help="seconds one response write may take before the "
                             "stalled client's connection is dropped (the "
                             "batcher and other tenants never wait on a slow "
                             "reader)")
    daemon.add_argument("--max-pending", type=int, default=None,
                        help="admission cap on the batcher queue: past this "
                             "many pending requests, new ones are shed with a "
                             "retriable code-3 'overloaded' response")
    daemon.add_argument("--max-inflight", type=int, default=None,
                        help="per-tenant cap on unanswered requests; past it, "
                             "that tenant's requests shed with code 3 while "
                             "other tenants are unaffected")
    daemon.add_argument("--max-line-bytes", type=int, default=None,
                        help="bound on one request line (default 1 MiB); an "
                             "oversized request gets a clean code-2 error and "
                             "the connection is closed")
    daemon.add_argument("--stats", action="store_true",
                        help="print serving statistics on shutdown")
    daemon.add_argument("--stats-json", action="store_true",
                        help="emit the machine-readable JSON statistics object "
                             "to stderr on shutdown")

    warm = subparsers.add_parser(
        "warm",
        help="precompile a design grid into a cache directory's plan registry",
        epilog="example: repro-mechanisms warm --cache-dir ~/.cache/repro-designs "
               "--grid n=8,16,32 alpha=0.9,0.95,0.99 props=WH+CM --workers 4 "
               "-- a daemon later started with the same --cache-dir serves the "
               "whole grid with zero LP solves",
    )
    warm.add_argument("--cache-dir", type=Path, required=True,
                      help="cache directory whose plan registry to fill "
                           "(the daemon's --cache-dir)")
    warm.add_argument("--grid", nargs="+", required=True, metavar="AXIS=V1,V2,...",
                      help="grid axes as key=value tokens: n=8,16 alpha=0.9,0.95 "
                           "[props=WH+CM,...] (props defaults to WH+CM; 'none' "
                           "for the unconstrained LP)")
    warm.add_argument("--workers", type=int, default=None,
                      help="fan (n, props) groups out across this many worker "
                           "processes (default: in-process)")
    warm.add_argument("--stats-json", action="store_true",
                      help="emit the warm-run summary as one JSON object to stderr")

    experiments = subparsers.add_parser(
        "experiments", help="run the paper-figure reproduction experiments"
    )
    experiments.add_argument("--fast", action="store_true")
    experiments.add_argument("--only", nargs="*", default=None)
    experiments.add_argument("--csv-dir", type=Path, default=None)
    experiments.add_argument(
        "--max-workers", type=int, default=None,
        help="fan the sweeps' design and evaluation stages out across this "
             "many worker processes (results are bit-identical)")

    return parser


def _print_mechanism(mechanism: Mechanism, show_heatmap: bool, show_matrix: bool) -> None:
    print(describe_mechanism(mechanism))
    if show_matrix:
        print()
        print(mechanism.render())
    if show_heatmap:
        print()
        print(ascii_heatmap(mechanism))


def _command_design(args: argparse.Namespace) -> int:
    try:
        if args.use_selector and args.output_alpha is None:
            mechanism, decision = choose_mechanism(args.n, args.alpha, properties=args.properties)
            print(decision.describe())
        else:
            mechanism = design_mechanism(
                args.n,
                args.alpha,
                properties=args.properties,
                output_alpha=args.output_alpha,
                representation=args.representation,
            )
    except ValueError as error:  # e.g. an unknown property code or bad alpha
        raise SystemExit(str(error))
    _print_mechanism(mechanism, args.heatmap, args.matrix)
    if args.save is not None:
        args.save.write_text(mechanism.to_json())
        print(f"\nsaved mechanism to {args.save}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.mechanisms.registry import paper_mechanisms

    try:
        mechanisms = paper_mechanisms(args.n, args.alpha)
    except ValueError as error:  # e.g. n < 1 or alpha outside [0, 1]
        raise SystemExit(str(error))
    rows = []
    for mechanism in mechanisms:
        properties = check_all_properties(mechanism)
        row = {
            "mechanism": mechanism.name,
            "L0": l0_score(mechanism),
            "L1": l1_score(mechanism),
            "RMSE": mechanism_rmse(mechanism),
            "truth prob": truth_probability(mechanism),
        }
        row.update({prop.value: value for prop, value in properties.items()})
        rows.append(row)
    print(format_table(rows, title=f"named mechanisms at n={args.n}, alpha={args.alpha}"))
    if args.heatmap:
        for mechanism in mechanisms:
            print()
            print(ascii_heatmap(mechanism))
    return 0


def _load_counts(args: argparse.Namespace) -> np.ndarray:
    if args.counts is not None and args.counts_file is not None:
        raise SystemExit("pass either --counts or --counts-file, not both")
    if args.counts is not None:
        return np.asarray(args.counts, dtype=int)
    if args.counts_file is not None:
        lines = [line.strip() for line in args.counts_file.read_text().splitlines()]
        return np.asarray([int(line) for line in lines if line], dtype=int)
    raise SystemExit("one of --counts or --counts-file is required")


def _command_release(args: argparse.Namespace) -> int:
    if args.load is not None:
        mechanism = Mechanism.from_json(args.load.read_text())
    else:
        if args.n is None or args.alpha is None:
            raise SystemExit("--n and --alpha are required unless --load is given")
        try:
            mechanism = create_mechanism(args.mechanism, n=args.n, alpha=args.alpha)
        except KeyError as error:  # unknown mechanism name
            raise SystemExit(error.args[0])
        except ValueError as error:  # e.g. n < 1 or alpha outside [0, 1]
            raise SystemExit(str(error))
    counts = _load_counts(args)
    if counts.size == 0:
        raise SystemExit("no counts supplied")
    if counts.min() < 0 or counts.max() > mechanism.n:
        raise SystemExit(
            f"counts must lie in [0, {mechanism.n}] for this mechanism; got "
            f"[{counts.min()}, {counts.max()}]"
        )
    rng = np.random.default_rng(args.seed)
    released = mechanism.apply(counts, rng=rng)
    released = np.atleast_1d(released)
    if args.output is not None:
        args.output.write_text("\n".join(str(int(v)) for v in released) + "\n")
        print(f"wrote {released.size} released counts to {args.output}")
    else:
        print(" ".join(str(int(v)) for v in released))
    return 0


def _parse_request_rows(path: Path) -> List["ReleaseRequest"]:
    """Parse a ``group,count,n,alpha[,properties]`` CSV into release requests."""
    import csv

    from repro.serving import ReleaseRequest

    requests: List[ReleaseRequest] = []
    with path.open(newline="") as handle:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            cells = [cell.strip() for cell in row]
            if not cells or not any(cells):
                continue
            if row_number == 1 and cells[0].lower() in ("group", "#group"):
                continue  # header line
            if len(cells) < 4:
                raise SystemExit(
                    f"{path}:{row_number}: expected group,count,n,alpha[,properties], got {row!r}"
                )
            properties = cells[4] if len(cells) > 4 else ""
            try:
                requests.append(
                    ReleaseRequest(
                        group=cells[0],
                        count=int(cells[1]),
                        n=int(cells[2]),
                        alpha=float(cells[3]),
                        properties=properties,
                    )
                )
            except ValueError as error:
                raise SystemExit(f"{path}:{row_number}: {error}")
    if not requests:
        raise SystemExit(f"{path}: no requests found")
    return requests


def _command_serve_batch(args: argparse.Namespace) -> int:
    from repro.engine.plan import ReleasePlan
    from repro.lp.solver import solve_call_count
    from repro.privacy import BudgetExceededError
    from repro.serving import BatchReleaseSession, DesignCache

    solves_before = solve_call_count()
    densifications_before = Mechanism.densifications
    compilations_before = ReleasePlan.compilations
    cache = DesignCache(capacity=args.cache_size, directory=args.cache_dir)
    rng = np.random.default_rng(args.seed)
    session = BatchReleaseSession(cache=cache, rng=rng, budget_alpha=args.budget_alpha)

    if args.requests_file is not None:
        if args.counts is not None or args.counts_file is not None or args.random_counts is not None:
            raise SystemExit(
                "--requests-file cannot be combined with --counts/--counts-file/--random-counts"
            )
        requests = _parse_request_rows(args.requests_file)
        try:
            results = session.release(requests)
        except BudgetExceededError as error:
            raise SystemExit(f"privacy budget exhausted (nothing released): {error}")
        except ValueError as error:  # e.g. an unknown property code in a row
            raise SystemExit(str(error))
        lines = [
            f"{result.group},{result.released},{result.mechanism},{result.branch}"
            for result in results
        ]
    else:
        if args.n is None or args.alpha is None:
            raise SystemExit("--n and --alpha are required unless --requests-file is given")
        if args.random_counts is not None:
            if args.counts is not None or args.counts_file is not None:
                raise SystemExit("--random-counts cannot be combined with --counts/--counts-file")
            if args.random_counts < 1:
                raise SystemExit("--random-counts must be positive")
            # Drawn from the same seeded generator the session samples with,
            # so a (seed, n, alpha, K) tuple fully determines the output.
            counts = rng.integers(0, args.n + 1, size=args.random_counts)
        else:
            counts = _load_counts(args)
        if counts.size == 0:
            raise SystemExit("no counts supplied")
        try:
            released = session.release_counts(
                counts, n=args.n, alpha=args.alpha, properties=args.properties
            )
        except BudgetExceededError as error:
            raise SystemExit(f"privacy budget exhausted (nothing released): {error}")
        except ValueError as error:  # e.g. an unknown property code or bad alpha
            raise SystemExit(str(error))
        lines = [str(int(value)) for value in released]

    if args.output is not None:
        args.output.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} released counts to {args.output}")
    else:
        print("\n".join(lines))
    if args.stats:
        print(f"serve-batch: {session.describe()} "
              f"lp_solves={solve_call_count() - solves_before} "
              f"densifications={Mechanism.densifications - densifications_before}")
    if args.stats_json:
        # Stderr, like serve-stream's --stats: the released counts (or the
        # summary line) own stdout, and a machine consumer wants the JSON
        # object on its own clean channel.
        from repro.serving.stats import stats_payload

        print(
            json.dumps(
                stats_payload(
                    "serve-batch",
                    records=session.stats.records,
                    batches=session.stats.batches,
                    distinct_designs=session.stats.distinct_designs,
                    cache=cache.stats(),
                    accountant=session.accountant,
                    budget_refusals=session.stats.budget_refusals,
                    lp_solves=solve_call_count() - solves_before,
                    plans_compiled=ReleasePlan.compilations - compilations_before,
                    densifications=Mechanism.densifications - densifications_before,
                )
            ),
            file=sys.stderr,
        )
    return 0


def _iter_count_lines(args: argparse.Namespace):
    """Lazily yield integer counts from --counts-file (or stdin), line by line."""
    handle = args.counts_file.open() if args.counts_file is not None else sys.stdin
    try:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                yield int(text)
            except ValueError:
                source = args.counts_file if args.counts_file is not None else "<stdin>"
                raise SystemExit(f"{source}:{line_number}: expected an integer count, got {text!r}")
    finally:
        if args.counts_file is not None:
            handle.close()


def _serve_stream_ledger(args: argparse.Namespace, run_config: dict):
    """Open (or resume) the durable ledger; returns (ledger, root, resume).

    Raises :class:`~repro.engine.durability.LedgerError` subclasses for the
    caller to map to exit status 2.  The root seed is the recorded entropy
    on resume — a resumed run re-derives exactly the substreams the crashed
    run would have used, whether or not ``--seed`` was given.
    """
    from repro.engine.durability import AccountantLedger, LedgerError, ResumeState

    path = Path(args.ledger)
    exists = path.exists() and path.stat().st_size > 0
    if exists and not args.resume:
        raise LedgerError(
            f"{path}: ledger already exists; pass --resume to continue the "
            "recorded run, or delete the ledger file to start over"
        )
    if exists:
        ledger = AccountantLedger.open(
            path, alpha_target=args.budget_alpha, config=run_config
        )
        root = np.random.SeedSequence(int(ledger.config["entropy"]))
        return ledger, root, ledger.resume_state()
    root = np.random.SeedSequence(args.seed)
    config = dict(run_config)
    config["entropy"] = int(root.entropy)
    ledger = AccountantLedger.open(path, alpha_target=args.budget_alpha, config=config)
    return ledger, root, ResumeState(next_chunk=0, records=0, offset=None)


def _command_serve_stream(args: argparse.Namespace) -> int:
    import os

    from repro.core.properties import parse_properties
    from repro.engine import ReleasePlan, StreamExecutor
    from repro.engine.durability import LedgerError
    from repro.engine.stream_io import NpyCountWriter, is_npy_path, open_npy_counts
    from repro.lp.solver import solve_call_count
    from repro.privacy import BudgetExceededError, PrivacyAccountant
    from repro.serving import DesignCache

    if args.chunk_size < 1:
        raise SystemExit("--chunk-size must be positive")
    if args.ledger is not None:
        if args.budget_alpha is None:
            raise SystemExit(
                "--ledger requires --budget-alpha: the ledger exists to make "
                "the privacy budget durable, so it must know the target"
            )
        if args.output is None:
            raise SystemExit(
                "--ledger requires --output: checkpointed resume needs a "
                "seekable output file, not a pipe"
            )
    if args.resume and args.ledger is None:
        raise SystemExit("--resume requires --ledger (there is nothing to resume from)")
    solves_before = solve_call_count()
    densifications_before = Mechanism.densifications
    cache = DesignCache(capacity=args.cache_size, directory=args.cache_dir)
    try:
        plan = ReleasePlan.compile(args.n, args.alpha, properties=args.properties, cache=cache)
    except ValueError as error:  # e.g. an unknown property code or bad alpha
        raise SystemExit(str(error))

    ledger = None
    root = None
    resume_records = 0
    resume_offset = None
    if args.ledger is not None:
        # The pinned run configuration: a resume with different parameters
        # would splice two unrelated streams, so it is refused (exit 2).
        run_config = {
            "n": int(args.n),
            "alpha": float(args.alpha),
            "properties": "+".join(
                sorted(p.value for p in parse_properties(args.properties))
            ) or "none",
            "chunk_size": int(args.chunk_size),
            "seed": args.seed,
            "output_format": "npy" if is_npy_path(args.output) else "text",
        }
        try:
            ledger, root, resume = _serve_stream_ledger(args, run_config)
        except LedgerError as error:
            print(f"ledger error: {error}", file=sys.stderr)
            return 2
        resume_records = resume.records
        resume_offset = resume.offset

    accountant = (
        PrivacyAccountant(alpha_target=args.budget_alpha)
        if args.budget_alpha is not None and ledger is None
        else None
    )
    executor = StreamExecutor(
        plan,
        chunk_size=args.chunk_size,
        accountant=accountant,
        max_workers=args.max_workers,
        ledger=ledger,
        chunk_timeout=args.chunk_timeout,
    )
    if is_npy_path(args.counts_file):
        # Binary input: memory-map the array and let the executor slice it
        # without copying — no per-line parsing at all.
        try:
            counts = open_npy_counts(args.counts_file)
        except (ValueError, OSError) as error:
            raise SystemExit(str(error))
    else:
        counts = _iter_count_lines(args)

    # --ledger and --max-workers both select the per-chunk seed-substream
    # discipline (the only one whose chunks are independent enough to skip
    # on resume or fan out); otherwise the serial shared-stream default.
    if ledger is not None:
        chunks = executor.stream_durable(counts, seed=root)
    elif args.max_workers is not None:
        chunks = executor.stream_durable(counts, seed=args.seed)
    else:
        chunks = enumerate(executor.stream(counts, rng=np.random.default_rng(args.seed)))

    text_records = resume_records
    if is_npy_path(args.output):
        try:
            out = NpyCountWriter(
                args.output,
                resume_records=resume_records if resume_records else None,
            )
        except ValueError as error:
            print(f"ledger error: {error}", file=sys.stderr)
            return 2
        write_chunk = out.write
    else:
        if resume_records and resume_offset is not None:
            # Truncate the text output back to the last durable checkpoint
            # (bytes past it belong to a chunk the crashed run never marked
            # done) and append from there.
            if not args.output.exists() or args.output.stat().st_size < resume_offset:
                print(
                    f"ledger error: {args.output}: output file is shorter than "
                    f"the ledger's checkpoint ({resume_offset} bytes); it does "
                    "not match the recorded run",
                    file=sys.stderr,
                )
                return 2
            out = args.output.open("r+")
            out.truncate(resume_offset)
            out.seek(resume_offset)
        else:
            out = args.output.open("w") if args.output is not None else sys.stdout

        def write_chunk(chunk):
            out.write("\n".join(str(int(value)) for value in chunk) + "\n")

    status = 0
    try:
        for index, chunk in chunks:
            write_chunk(chunk)
            if ledger is None:
                continue
            # Checkpoint barrier: the chunk's bytes must be durable
            # before the ledger may promise they are.
            if isinstance(out, NpyCountWriter):
                out.sync()
                total, offset = out.records, out.offset
            else:
                out.flush()
                os.fsync(out.fileno())
                text_records += int(np.size(chunk))
                total, offset = text_records, out.tell()
            ledger.mark_done(index, int(np.size(chunk)), total, offset)
    except BudgetExceededError as error:
        print(
            f"privacy budget exhausted after {executor.stats.records} released "
            f"counts; refusing the next chunk before sampling it: {error}"
            + (
                " (the ledger records every charge: resuming with a larger "
                "budget is not possible — start a fresh ledger)"
                if ledger is not None
                else ""
            ),
            file=sys.stderr,
        )
        status = 1
    except LedgerError as error:
        print(f"ledger error: {error}", file=sys.stderr)
        status = 2
    except ValueError as error:  # e.g. counts outside [0, n]
        raise SystemExit(str(error))
    finally:
        if args.output is not None:
            out.close()
        if ledger is not None:
            ledger.close()
    served = executor.stats.records + executor.stats.resumed_records
    if args.output is not None:
        if status == 0:
            resumed = (
                f" ({executor.stats.resumed_chunks} chunks resumed from the ledger)"
                if executor.stats.resumed_chunks
                else ""
            )
            print(f"wrote {served} released counts to {args.output}{resumed}")
        else:
            print(
                f"wrote only {served} released counts to "
                f"{args.output} before the refusal (PARTIAL output)",
                file=sys.stderr,
            )
    if args.stats:
        # Stats go to stderr: without --output the released counts own
        # stdout, and a stats line interleaved there would corrupt a
        # downstream pipe consumer.
        print(f"serve-stream: {executor.describe()} "
              f"lp_solves={solve_call_count() - solves_before} "
              f"densifications={Mechanism.densifications - densifications_before}",
              file=sys.stderr)
    if args.stats_json:
        from repro.serving.stats import stats_payload

        print(
            json.dumps(
                stats_payload(
                    "serve-stream",
                    records=served,
                    chunks=executor.stats.chunks,
                    resumed_chunks=executor.stats.resumed_chunks,
                    cache=cache.stats(),
                    accountant=executor.accountant,
                    budget_refusals=1 if status == 1 else 0,
                    lp_solves=solve_call_count() - solves_before,
                    plans_compiled=1,
                    densifications=Mechanism.densifications - densifications_before,
                )
            ),
            file=sys.stderr,
        )
    return status


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serving.daemon import DEFAULT_MAX_LINE_BYTES, ServingDaemon

    if args.batch_window_ms < 0:
        raise SystemExit("--batch-window-ms must be non-negative")
    if args.max_batch < 1:
        raise SystemExit("--max-batch must be positive")
    if args.max_tenants < 1:
        raise SystemExit("--max-tenants must be positive")
    for flag, value in (
        ("--request-timeout", args.request_timeout),
        ("--client-timeout", args.client_timeout),
    ):
        if value is not None and not value > 0:
            raise SystemExit(f"{flag} must be positive")
    for flag, value in (
        ("--max-pending", args.max_pending),
        ("--max-inflight", args.max_inflight),
    ):
        if value is not None and value < 1:
            raise SystemExit(f"{flag} must be positive")
    if args.max_line_bytes is not None and args.max_line_bytes < 1024:
        raise SystemExit("--max-line-bytes must be at least 1024")

    async def _serve() -> ServingDaemon:
        daemon = ServingDaemon(
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            max_tenants=args.max_tenants,
            budget_alpha=args.budget_alpha,
            seed=args.seed,
            cache_dir=args.cache_dir,
            cache_size=args.cache_size,
            state_dir=args.state_dir,
            request_timeout=args.request_timeout,
            client_timeout=args.client_timeout,
            max_pending=args.max_pending,
            max_inflight=args.max_inflight,
            max_line_bytes=(
                DEFAULT_MAX_LINE_BYTES
                if args.max_line_bytes is None
                else args.max_line_bytes
            ),
            fsync=not args.no_fsync,
        )
        await daemon.start(
            host=args.host, port=args.port, unix_path=args.unix_socket
        )
        # The bound address line is the startup handshake: with --port 0 a
        # harness parses the picked port from it, so flush immediately.
        print(f"serving on {daemon.address}", flush=True)
        if args.state_dir is not None:
            # The recovery summary, after the handshake, so supervisors can
            # log how many tenants resumed and how many were quarantined.
            print(f"recovered {daemon.health_payload()['recovered_tenants']} "
                  f"tenant(s), "
                  f"{daemon.health_payload()['quarantined_tenants']} "
                  f"quarantined, "
                  f"{daemon.health_payload()['config_rejected_tenants']} "
                  "config-rejected", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(daemon.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loop: rely on the shutdown op
        await daemon.wait_closed()
        return daemon

    daemon = asyncio.run(_serve())
    if args.unix_socket is not None:
        try:
            Path(args.unix_socket).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    if args.stats:
        print(f"serve: {daemon.describe()}")
    if args.stats_json:
        print(json.dumps(daemon.stats_payload()), file=sys.stderr)
    return 0


def _command_warm(args: argparse.Namespace) -> int:
    from repro.serving.warm import GridError, parse_grid, warm_grid

    try:
        axes = parse_grid(args.grid)
    except GridError as error:
        raise SystemExit(f"warm: {error}")
    summary = warm_grid(
        args.cache_dir,
        ns=axes["n"],
        alphas=axes["alpha"],
        props_list=axes["props"],
        max_workers=args.workers,
    )
    print(
        f"warm: {summary['solved']} solved, "
        f"{summary['skipped']} already present, "
        f"{summary['registry_entries']} registry entries "
        f"in {summary['seconds']:.2f}s -> {args.cache_dir}"
    )
    if args.stats_json:
        print(json.dumps({"command": "warm", **summary}), file=sys.stderr)
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    runner.run_experiments(
        names=args.only, fast=args.fast, csv_dir=args.csv_dir, max_workers=args.max_workers
    )
    return 0


_COMMANDS = {
    "design": _command_design,
    "compare": _command_compare,
    "release": _command_release,
    "serve-batch": _command_serve_batch,
    "serve-stream": _command_serve_stream,
    "serve": _command_serve,
    "warm": _command_warm,
    "experiments": _command_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

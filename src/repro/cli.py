"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``extract <file...>``   — dump VBA macro sources from Office documents;
* ``scan <file...>``      — obfuscation verdict per macro + anti-analysis
  findings + simulated multi-vendor AV aggregate (``--explain`` adds
  line-level lint findings next to each verdict);
* ``lint <file...>``      — rule-based obfuscation findings only: every
  O1–O4/AA rule hit with line, column, severity and message;
* ``deobfuscate <file>``  — statically simplify every macro and print the
  recovered source;
* ``demo <out.docm>``     — write a synthetic obfuscated-downloader document
  (for trying the other commands);
* ``stats <events.jsonl>`` — aggregate a saved ``--trace-out`` trace into
  per-stage p50/p95 latencies and throughput (plus a ``--stage-timeout``
  sizing hint with 2x headroom over the slowest observed stage);
* ``drift <base> <live>`` — compare two saved metrics profiles: PSI over
  the score/lint-rule distributions, standardized mean shift over feature
  columns; exit 2 when any dimension drifted;
* ``slo check <profile>`` — evaluate the declarative latency/error-budget
  objectives (``repro slo show`` prints them; ``--slo FILE`` overrides)
  against a saved profile; exit 2 on any violated objective;
* ``reproduce``           — run the paper's Section V evaluation.

``extract``, ``scan``, and ``lint`` accept files *and directories*
(``--recursive`` walks subdirectories with a ``--max-depth`` guard), run
through the shared staged :class:`~repro.engine.AnalysisEngine`
(``--jobs N`` fans the batch out over a process pool), and support
``--format json`` emitting one JSON record per input file — including
structured error records, so a corrupt document never aborts the batch
(exit code stays 0 for partial success).  ``scan`` and ``lint`` take
``--recover``, inserting the budgeted static string-recovery pass
(:mod:`repro.sa`): decoded strings show up in text output, in the JSON
records (``recovered_strings`` / ``recovery``, schema version 2), in the
``SA`` lint findings and in the ``R`` feature set; ``--sa-budget
strict|default|deep`` picks how hard the folder tries.  ``--stats``
prints a post-run
telemetry summary (per-stage p50/p95, throughput, cache hit rate — merged
across worker processes) to stderr and ``--trace-out FILE`` saves one
JSON-lines event per pipeline span for offline analysis.  The fleet
observability layer rides the same registry: ``--baseline-out FILE``
freezes the run's metric distributions into a profile, ``--baseline
FILE`` scores live traffic against a saved profile as the batch runs
(drift gauges, drift trace events, a summary on stderr), and
``--metrics-port N`` serves Prometheus ``/metrics`` + ``/healthz`` for
the duration of the batch (``--metrics-linger S`` keeps the endpoint up
afterwards for a final scrape).

The batch commands are *resilient* (see :mod:`repro.resilience`): every
document runs under a budget (``--budget strict|default|off`` picks the
preset; ``--timeout`` wall clock per document and ``--stage-timeout``
hard per-stage watchdog override it), a crashed worker indicts exactly
the task it was holding (per-task blame, survivors stay warm) and that
document is retried with capped backoff then quarantined
(``--quarantine-out FILE`` saves the report;
``repro extract --replay REPORT`` re-analyzes exactly those documents
after verifying their digests), and plain archives in the input — zip,
tar, ``tar.gz``, nested one level (zip-in-zip and friends) — expand into
their member documents behind archive-bomb guards (``--no-archives``
disables expansion).  With ``--jobs N`` the batch
streams through a warm worker pool under a bounded admission window
(``--window``).  A hidden ``--chaos`` flag injects faults for drills:
``--chaos hang:doc_007,exit:doc_013``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Obfuscated VBA macro detection (DSN 2018 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_batch_options(subparser) -> None:
        subparser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for batch analysis (default 1)",
        )
        subparser.add_argument(
            "--window", type=int, default=None, metavar="N",
            help="streaming backpressure window: at most N documents "
            "admitted past the pool at once (default max(8, 4*jobs); "
            "only meaningful with --jobs > 1)",
        )
        subparser.add_argument(
            "--format", default="text", choices=("text", "json"),
            help="text report or one JSON record per input file",
        )
        subparser.add_argument(
            "--recursive", "-r", action="store_true",
            help="walk directory arguments recursively",
        )
        subparser.add_argument(
            "--max-depth", type=int, default=8,
            help="recursion depth guard for --recursive (default 8); "
            "deeper subtrees are skipped and counted",
        )
        subparser.add_argument(
            "--stats", action="store_true",
            help="print a post-run telemetry summary (per-stage p50/p95, "
            "throughput, cache hit rate) to stderr",
        )
        subparser.add_argument(
            "--trace-out", metavar="FILE", default=None,
            help="write one JSON-lines event per pipeline span to FILE "
            "(aggregate later with `repro stats FILE`)",
        )
        subparser.add_argument(
            "--budget", default="default", choices=("strict", "default", "off"),
            help="per-document budget preset: 'strict' tightens deadlines and "
            "caps and arms the per-stage watchdog for untrusted inputs, "
            "'off' disables all limits; --timeout/--stage-timeout override "
            "the chosen preset",
        )
        subparser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-document wall-clock budget (default 30; 0 disables)",
        )
        subparser.add_argument(
            "--stage-timeout", type=float, default=None, metavar="SECONDS",
            help="hard per-stage watchdog timeout for hostile inputs "
            "(default off; a hanging stage is abandoned and the record "
            "marked degraded)",
        )
        subparser.add_argument(
            "--quarantine-out", metavar="FILE", default=None,
            help="write a JSON report of quarantined and degraded records",
        )
        subparser.add_argument(
            "--no-archives", action="store_true",
            help="do not expand plain zip/tar archives into their member "
            "documents (expansion is guarded against archive bombs)",
        )
        subparser.add_argument(
            "--baseline-out", metavar="FILE", default=None,
            help="write a baseline metrics profile of this run (classifier "
            "score histogram, lint-rule firing rates, feature-column "
            "summaries) for later `repro drift` / `repro slo check` runs",
        )
        subparser.add_argument(
            "--baseline", metavar="FILE", default=None,
            help="score live traffic against a saved baseline profile while "
            "the batch runs: drift gauges on /metrics, drift events in the "
            "trace, and a drift summary on stderr afterwards",
        )
        subparser.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="serve Prometheus /metrics (+ /healthz) on 127.0.0.1:PORT "
            "while the batch runs (0 picks a free port, printed to stderr)",
        )
        subparser.add_argument(
            "--metrics-linger", type=float, default=0.0, metavar="SECONDS",
            help="keep the --metrics-port endpoint up this long after the "
            "batch finishes, so scrapers can take a final sample",
        )
        # Fault injection for resilience drills; deliberately undocumented.
        subparser.add_argument(
            "--chaos", metavar="SPEC", default=None, help=argparse.SUPPRESS,
            type=_chaos_spec,
        )

    extract = commands.add_parser("extract", help="dump macro sources")
    extract.add_argument("files", nargs="*")
    extract.add_argument(
        "--replay", metavar="REPORT", default=None,
        help="re-analyze the documents a --quarantine-out report "
        "quarantined (each file's digest is verified against the report "
        "before replay; changed files are refused)",
    )
    add_batch_options(extract)

    def add_recover_options(subparser) -> None:
        subparser.add_argument(
            "--recover", action="store_true",
            help="run the budgeted static string-recovery pass (repro.sa): "
            "folds Chr()/StrReverse()/Replace()/concat decoders back into "
            "clear strings, feeds the SA lint rules and the R feature set, "
            "and re-scans recovered strings against the AV signatures",
        )
        subparser.add_argument(
            "--sa-budget", default="default",
            choices=("strict", "default", "deep"),
            help="budget preset for --recover: 'strict' caps harder for "
            "untrusted bulk feeds, 'deep' folds further for single-sample "
            "triage (default: default)",
        )

    scan = commands.add_parser("scan", help="classify macros in documents")
    scan.add_argument("files", nargs="+")
    scan.add_argument(
        "--classifier", default="MLP", choices=("SVM", "RF", "MLP", "LDA", "BNB")
    )
    scan.add_argument(
        "--train-seed", type=int, default=42,
        help="seed for the on-the-fly training corpus",
    )
    scan.add_argument(
        "--explain", action="store_true",
        help="run the lint rules too and show per-class findings "
        "next to each verdict",
    )
    add_recover_options(scan)
    add_batch_options(scan)

    lint = commands.add_parser(
        "lint", help="rule-based obfuscation findings (no classifier)"
    )
    lint.add_argument("files", nargs="+")
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all registered)",
    )
    add_recover_options(lint)
    add_batch_options(lint)

    deob = commands.add_parser("deobfuscate", help="statically simplify macros")
    deob.add_argument("file")

    demo = commands.add_parser("demo", help="write a sample malicious .docm")
    demo.add_argument("output")
    demo.add_argument("--seed", type=int, default=1337)

    stats = commands.add_parser(
        "stats", help="aggregate a saved --trace-out JSON-lines trace"
    )
    stats.add_argument("trace", help="events.jsonl written by --trace-out")
    stats.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="human table or one JSON object of per-span aggregates",
    )

    drift = commands.add_parser(
        "drift",
        help="compare two saved metrics profiles for distribution drift",
    )
    drift.add_argument(
        "baseline", help="baseline profile written by --baseline-out"
    )
    drift.add_argument(
        "live", help="live/candidate profile to compare against the baseline"
    )
    drift.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="human table or one JSON object of per-dimension scores",
    )
    drift.add_argument(
        "--min-count", type=int, default=20, metavar="N",
        help="observations each side needs before a dimension is graded "
        "(default 20; tiny samples drift by noise alone)",
    )

    slo = commands.add_parser(
        "slo", help="evaluate latency/error-budget SLOs over a profile"
    )
    slo_commands = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_commands.add_parser(
        "check", help="exit 2 when any objective is violated"
    )
    slo_check.add_argument(
        "snapshot", help="metrics profile written by --baseline-out"
    )
    slo_check.add_argument(
        "--slo", dest="slo_file", metavar="FILE", default=None,
        help="JSON SLO config (default: the built-in objectives; "
        "see `repro slo show`)",
    )
    slo_check.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="human table or one JSON object of per-objective results",
    )
    slo_commands.add_parser(
        "show", help="print the built-in objectives as a JSON config"
    )

    reproduce = commands.add_parser("reproduce", help="run the paper evaluation")
    reproduce.add_argument("--scale", type=float, default=0.12)
    reproduce.add_argument("--folds", type=int, default=10)
    reproduce.add_argument("--jobs", type=int, default=1)

    serve = commands.add_parser(
        "serve",
        help="run the analysis HTTP service over a persistent warm pool",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8100,
        help="listen port (0 picks a free one, printed to stderr)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="warm worker processes behind the gateway (default 2)",
    )
    serve.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="pool admission window (default max(8, 4*jobs))",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="shed line: unresolved requests beyond this get 503 (default 64)",
    )
    serve.add_argument(
        "--client-window", type=int, default=8, metavar="N",
        help="max in-flight requests per client IP (default 8)",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0, metavar="R",
        help="per-client sustained requests/s (default 50)",
    )
    serve.add_argument(
        "--burst", type=float, default=100.0, metavar="N",
        help="per-client burst allowance on top of --rate (default 100)",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=30.0, metavar="SECONDS",
        help="request deadline when the client sends none (default 30; "
        "0 disables)",
    )
    serve.add_argument(
        "--max-deadline", type=float, default=120.0, metavar="SECONDS",
        help="cap on client-requested ?deadline_s= (default 120; 0 = no cap)",
    )
    serve.add_argument(
        "--drain-budget", type=float, default=10.0, metavar="SECONDS",
        help="SIGTERM grace: settle in-flight work this long, then "
        "quarantine the rest (default 10)",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=32 * 1024 * 1024,
        help="request body cap (default 32 MiB; larger bodies get 413)",
    )
    serve.add_argument(
        "--keepalive-idle", type=float, default=5.0, metavar="SECONDS",
        help="close a kept-alive connection after this much quiet "
        "(default 5)",
    )
    serve.add_argument(
        "--max-requests-per-connection", type=int, default=100, metavar="N",
        help="requests one connection may serve before the server forces "
        "a fresh one (default 100)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="worker deaths inside the breaker window that open the "
        "circuit (default 3)",
    )
    serve.add_argument(
        "--breaker-cooloff", type=float, default=5.0, metavar="SECONDS",
        help="open-state quiet period before half-open probes (default 5)",
    )
    serve.add_argument(
        "--classifier", default="MLP", choices=("SVM", "RF", "MLP", "LDA", "BNB")
    )
    serve.add_argument(
        "--train-seed", type=int, default=42,
        help="seed for the on-the-fly training corpus",
    )
    serve.add_argument(
        "--budget", default="default", choices=("strict", "default", "off"),
        help="per-document budget preset (see scan --budget)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-document wall-clock budget override",
    )
    serve.add_argument(
        "--stage-timeout", type=float, default=None, metavar="SECONDS",
        help="per-stage watchdog override (a request ?deadline_s= shorter "
        "than this still wins)",
    )
    serve.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write serve/span events as JSON lines at shutdown "
        "(aggregate with `repro stats FILE`)",
    )
    # Fault injection for resilience drills; deliberately undocumented.
    serve.add_argument(
        "--chaos", metavar="SPEC", default=None, help=argparse.SUPPRESS,
        type=_chaos_spec,
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "extract": _cmd_extract,
        "scan": _cmd_scan,
        "lint": _cmd_lint,
        "deobfuscate": _cmd_deobfuscate,
        "demo": _cmd_demo,
        "stats": _cmd_stats,
        "drift": _cmd_drift,
        "slo": _cmd_slo,
        "reproduce": _cmd_reproduce,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------


def _expand_inputs(
    paths: list[str],
    *,
    recursive: bool = False,
    max_depth: int = 8,
    metrics=None,
) -> list[str]:
    """Expand directory arguments to the (sorted) files they contain.

    With ``recursive`` the walk descends into subdirectories up to
    ``max_depth`` levels below each named directory; anything skipped —
    subtrees beyond the guard, subdirectories without ``recursive``,
    non-regular entries like broken symlinks or sockets — bumps the
    ``walk.skipped`` counter so the ``--stats`` summary reports it.
    """
    from repro.obs import NULL_REGISTRY

    registry = metrics if metrics is not None else NULL_REGISTRY
    expanded: list[str] = []
    skipped = 0

    def walk(directory: pathlib.Path, depth: int) -> None:
        nonlocal skipped
        for child in sorted(directory.iterdir()):
            if child.is_dir() and not child.is_symlink():
                if not recursive or depth >= max_depth:
                    skipped += 1
                else:
                    walk(child, depth + 1)
            elif child.is_file():
                expanded.append(str(child))
            else:
                skipped += 1

    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            walk(path, 0)
        else:
            expanded.append(raw)
    if skipped:
        registry.counter("walk.skipped").inc(skipped)
    registry.counter("walk.files").inc(len(expanded))
    return expanded


def _make_registry(args):
    """A live registry when any telemetry consumer asked for one."""
    from repro.obs import NULL_REGISTRY, MetricsRegistry

    if (
        args.stats
        or args.trace_out
        or args.baseline_out
        or args.baseline
        or args.metrics_port is not None
    ):
        return MetricsRegistry(trace=bool(args.trace_out))
    return NULL_REGISTRY


def _attach_observability(args, registry, engine):
    """Wire ``--baseline`` / ``--metrics-port`` attachments onto the engine.

    Returns the running :class:`~repro.obs.export.MetricsServer` (or None).
    Raises ``OSError``/``ValueError`` for an unreadable/invalid baseline or
    an unbindable port — callers turn that into a usage error before any
    document is analyzed.
    """
    if not registry.enabled:
        return None
    window = None
    if args.metrics_port is not None or args.baseline:
        from repro.obs import SlidingWindow

        window = SlidingWindow()
        engine.window = window
    if args.baseline:
        from repro.obs import DriftMonitor, read_profile

        engine.drift_monitor = DriftMonitor(read_profile(args.baseline), registry)
    server = None
    if args.metrics_port is not None:
        from repro.obs import MetricsServer

        server = MetricsServer(registry, window=window, port=args.metrics_port)
        port = server.start()
        print(
            f"metrics: http://127.0.0.1:{port}/metrics "
            f"(healthz: http://127.0.0.1:{port}/healthz)",
            file=sys.stderr,
        )
    return server


def _finish_observability(args, registry, engine) -> None:
    """Final drift evaluation + ``--baseline-out`` profile, post-batch.

    Runs *before* :func:`_finish_telemetry` so the last drift evaluation's
    events make it into the ``--trace-out`` file.
    """
    if not registry.enabled:
        return
    if engine.drift_monitor is not None:
        report = engine.drift_monitor.evaluate()
        print(report.render(), file=sys.stderr)
    if args.baseline_out:
        from repro.obs import capture_profile, write_profile

        documents = registry.histograms.get("span.document")
        profile = capture_profile(
            registry,
            source=f"repro {args.command}",
            documents=int(documents.count) if documents is not None else None,
        )
        write_profile(args.baseline_out, profile)
        print(f"wrote metrics profile to {args.baseline_out}", file=sys.stderr)


def _shutdown_metrics_server(args, server) -> None:
    """Linger (so scrapers catch the final state), then stop the endpoint."""
    if server is None:
        return
    if args.metrics_linger > 0:
        import time

        print(
            f"metrics endpoint lingering {args.metrics_linger:g}s...",
            file=sys.stderr,
        )
        time.sleep(args.metrics_linger)
    server.stop()


def _make_budget(args):
    """The per-document budget: the ``--budget`` preset adjusted by the
    finer-grained flags.  The default preset with no flags is exactly the
    library default, byte for byte."""
    import dataclasses

    from repro.resilience import BUDGET_PRESETS

    budget = BUDGET_PRESETS[getattr(args, "budget", "default")]
    if args.timeout is not None:
        budget = dataclasses.replace(
            budget, wall_clock_s=args.timeout if args.timeout > 0 else None
        )
    if args.stage_timeout is not None:
        budget = dataclasses.replace(
            budget,
            stage_timeout_s=args.stage_timeout if args.stage_timeout > 0 else None,
        )
    return budget


def _chaos_spec(spec: str):
    """Parse ``--chaos kind:pattern[,...]`` at argparse time, so a bad spec
    is a usage error rather than a traceback mid-batch."""
    from repro.resilience import FaultPlan

    try:
        return FaultPlan.parse(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _make_chaos(args):
    """The hidden fault-injection plan, or None."""
    return args.chaos or None


def _make_sa_budget(args):
    """The ``--sa-budget`` preset for the recover stage (None when off)."""
    from repro.sa import SA_BUDGET_PRESETS

    return SA_BUDGET_PRESETS[getattr(args, "sa_budget", "default")]


#: Zip local/central/empty magics — enough to decide "read the whole file".
_ZIP_MAGICS = (b"PK\x03\x04", b"PK\x05\x06", b"PK\x07\x08")

_GZIP_MAGIC = b"\x1f\x8b"
#: Offset of the ``ustar`` magic in a POSIX tar header; sniffing tars
#: therefore needs the first 262 bytes of the file.
_TAR_MAGIC_OFFSET = 257
_SNIFF_BYTES = _TAR_MAGIC_OFFSET + 5


def _archive_candidate(head: bytes) -> bool:
    """Cheap magic sniff: worth reading the whole file for expansion?"""
    return (
        head[:4] in _ZIP_MAGICS
        or head[:2] == _GZIP_MAGIC
        or head[_TAR_MAGIC_OFFSET:_SNIFF_BYTES] == b"ustar"
    )


def _prepare_entries(args, registry) -> list[tuple[str, object]]:
    """Expand directories and archives into tagged batch entries.

    Returns ``("input", item)`` entries the engine should analyze (paths
    or ``(source_id, bytes)`` pairs — archive members arrive as pairs with
    ``archive!member`` ids, nested one level for archive-in-archive feeds)
    and ``("record", DocumentRecord)`` entries that already failed (an
    archive a bomb guard refused).  Zip, tar, and ``tar.gz`` feeds all
    expand; Office documents (OOXML zips) always analyze as-is.
    """
    paths = _expand_inputs(
        args.files,
        recursive=args.recursive,
        max_depth=args.max_depth,
        metrics=registry,
    )
    entries: list[tuple[str, object]] = []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                head = handle.read(_SNIFF_BYTES)
        except OSError:
            entries.append(("input", path))  # the engine records the error
            continue
        if args.no_archives or not _archive_candidate(head):
            entries.append(("input", path))
            continue
        from repro.resilience import (
            ArchiveBombError,
            expand_archive,
            is_plain_archive,
            is_tar_archive,
        )

        with open(path, "rb") as handle:
            data = handle.read()
        if not (is_plain_archive(data) or is_tar_archive(data)):
            # An Office zip (or a non-archive gzip): analyze as-is.
            entries.append(("input", (path, data)))
            continue
        try:
            members = expand_archive(path, data, metrics=registry)
        except ArchiveBombError as error:
            from repro.engine.records import DocumentRecord, sha256_hex

            record = DocumentRecord(source_id=path, sha256=sha256_hex(data))
            record.degrade("archive", f"archive refused: {error}")
            if registry.enabled:
                registry.counter("archive.rejected").inc()
            entries.append(("record", record))
            continue
        entries.extend(("input", member) for member in members)
    return entries


def _replay_entries(args, registry) -> list[tuple[str, object]]:
    """Tagged batch entries for ``--replay REPORT``.

    Each quarantined document is re-read and its digest verified against
    the report before replay; a file that changed (or vanished) since
    quarantine yields a pre-failed record instead — replaying different
    bytes would attribute the outcome to the wrong incident.
    """
    from repro.engine.records import DocumentRecord
    from repro.resilience import load_replay_targets, verify_replay

    entries: list[tuple[str, object]] = []
    refused = 0
    for path, recorded_sha in load_replay_targets(args.replay):
        data, reason = verify_replay(path, recorded_sha)
        if data is None:
            record = DocumentRecord(source_id=path, sha256=recorded_sha)
            record.degrade("replay", f"refused: {reason}")
            entries.append(("record", record))
            refused += 1
        else:
            entries.append(("input", (path, data)))
    if registry.enabled:
        registry.counter("replay.targets").inc(len(entries))
        if refused:
            registry.counter("replay.refused").inc(refused)
    print(
        f"replaying {len(entries) - refused} of {len(entries)} quarantined "
        f"document{'s' if len(entries) != 1 else ''} from {args.replay}"
        + (f" ({refused} refused: changed or unreadable)" if refused else ""),
        file=sys.stderr,
    )
    return entries


def _splice_records(entries, batch) -> list:
    """Merge engine records back into entry order (pre-failed ones kept)."""
    batch_iter = iter(batch)
    records = []
    for kind, payload in entries:
        records.append(payload if kind == "record" else next(batch_iter))
    return records


def _write_quarantine(args, records) -> None:
    """Save the ``--quarantine-out`` report of quarantined/degraded records."""
    if not args.quarantine_out:
        return
    from repro.resilience import quarantine_report

    report = quarantine_report(records)
    with open(args.quarantine_out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(
        f"quarantine report: {report['quarantined_count']} quarantined, "
        f"{report['degraded_count']} degraded -> {args.quarantine_out}",
        file=sys.stderr,
    )


def _finish_telemetry(args, registry, cache_info=None) -> None:
    """Write the trace and/or print the stats summary (both to stderr)."""
    if args.trace_out:
        from repro.obs import write_events

        count = write_events(args.trace_out, registry.events)
        print(f"wrote {count} events to {args.trace_out}", file=sys.stderr)
    if args.stats:
        from repro.obs import summarize

        print(summarize(registry, cache_info), file=sys.stderr)


def _emit_json(records, extra=None) -> None:
    """One JSON object per line per input file (JSONL)."""
    for index, record in enumerate(records):
        payload = record.to_dict()
        if extra is not None:
            payload.update(extra[index])
        print(json.dumps(payload, sort_keys=True))


def _cmd_extract(args) -> int:
    from repro.engine import AnalysisEngine

    if not args.files and not args.replay:
        print("error: no inputs (pass files or --replay REPORT)", file=sys.stderr)
        return 1
    registry = _make_registry(args)
    engine = AnalysisEngine.for_extraction(
        metrics=registry, budget=_make_budget(args), chaos=_make_chaos(args)
    )
    try:
        server = _attach_observability(args, registry, engine)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    entries = _prepare_entries(args, registry)
    if args.replay:
        try:
            entries.extend(_replay_entries(args, registry))
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    batch = engine.run_batch(
        [payload for kind, payload in entries if kind == "input"],
        jobs=args.jobs,
        window=args.window,
    )
    records = _splice_records(entries, batch)
    _write_quarantine(args, records)
    _finish_observability(args, registry, engine)
    _finish_telemetry(args, registry, engine.cache_info())
    _shutdown_metrics_server(args, server)
    if args.format == "json":
        _emit_json(records)
        return 0
    status = 0
    for record in records:
        if not record.ok:
            print(f"{record.source_id}: {record.error}", file=sys.stderr)
            status = 1
            continue
        print(
            f"=== {record.source_id} "
            f"({record.container}, {len(record.macros)} modules) ==="
        )
        for macro in record.macros:
            print(f"--- {macro.module_name} ({macro.module_type}) ---")
            print(macro.source)
        for expression, value in record.document_variables.items():
            print(f"[hidden] {expression} = {value!r}")
    return status


def _train_detector(classifier: str, seed: int):
    from repro import ObfuscationDetector
    from repro.corpus.benign import generate_benign_module
    from repro.corpus.malicious import generate_malicious_macro
    from repro.obfuscation.pipeline import default_pipeline

    rng = random.Random(seed)
    sources, labels = [], []
    for _ in range(150):
        sources.append(
            generate_benign_module(rng, target_length=rng.randint(200, 8000))
        )
        labels.append(0)
    pipeline = default_pipeline()
    for index in range(75):
        plain = generate_malicious_macro(rng, rng.choice(("word", "excel")))
        sources.append(pipeline.run(plain, seed=index).source)
        labels.append(1)
    return ObfuscationDetector(classifier).fit(sources, labels)


def _scan_extras(records):
    """Per-record anti-analysis findings + AV aggregate (the non-ML checks)."""
    from repro.avsim.virustotal import VirusTotalSim
    from repro.lint.registry import lint_source, rules_for_class

    av = VirusTotalSim()
    rules = rules_for_class("AA")
    extras = []
    for record in records:
        anti = {
            macro.module_name: lint_source(macro.source, rules)
            for macro in record.macros
        }
        report = av.scan(record.sources) if record.ok else None
        extras.append({"anti": anti, "av": report})
    return extras


def _cmd_scan(args) -> int:
    from repro.engine import AnalysisEngine

    json_mode = args.format == "json"
    log = sys.stderr if json_mode else sys.stdout
    print(
        f"training {args.classifier} detector on synthetic corpus...", file=log
    )
    detector = _train_detector(args.classifier, args.train_seed)
    registry = _make_registry(args)
    engine = AnalysisEngine.for_scan(
        detector,
        lint=args.explain,
        metrics=registry,
        budget=_make_budget(args),
        chaos=_make_chaos(args),
        recover=args.recover,
        sa_budget=_make_sa_budget(args),
    )
    try:
        server = _attach_observability(args, registry, engine)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    entries = _prepare_entries(args, registry)
    batch = engine.run_batch(
        [payload for kind, payload in entries if kind == "input"],
        jobs=args.jobs,
        window=args.window,
    )
    records = _splice_records(entries, batch)
    extras = _scan_extras(records)
    _write_quarantine(args, records)
    _finish_observability(args, registry, engine)
    _finish_telemetry(args, registry, engine.cache_info())
    _shutdown_metrics_server(args, server)

    if json_mode:
        payload_extras = []
        for extra in extras:
            report = extra["av"]
            payload_extras.append(
                {
                    "anti_analysis": {
                        name: [f.rule_id for f in findings]
                        for name, findings in extra["anti"].items()
                    },
                    "av": None
                    if report is None
                    else {
                        "detections": report.detections,
                        "total_vendors": report.total_vendors,
                        "verdict": report.verdict.value,
                    },
                }
            )
        _emit_json(records, payload_extras)
        return 0

    status = 0
    for record, extra in zip(records, extras):
        if not record.ok:
            print(f"{record.source_id}: {record.error}", file=sys.stderr)
            status = 1
            continue
        print(f"\n=== {record.source_id} ===")
        for macro in record.macros:
            score = "n/a" if macro.score is None else f"{macro.score:.3f}"
            print(
                f"  {macro.module_name}: {len(macro.source):,} chars -> "
                f"{'OBFUSCATED' if macro.is_obfuscated else 'normal'} "
                f"(P={score})"
            )
            if args.explain:
                print(
                    f"    [lint] {len(macro.findings)} findings "
                    f"({_class_summary(macro.findings)})"
                )
                for finding in macro.findings[:5]:
                    print(
                        f"      {finding.location} "
                        f"[{finding.rule_id}/{finding.o_class} "
                        f"{finding.severity}] {finding.message}"
                    )
            if args.recover:
                _print_recovered(macro)
            for finding in extra["anti"][macro.module_name][:5]:
                print(f"    [anti-analysis] {finding.rule_id}: {finding.message}")
        report = extra["av"]
        print(
            f"  AV aggregate: {report.detections}/{report.total_vendors} "
            f"vendors -> {report.verdict.value}"
        )
        if record.any_obfuscated:
            status = max(status, 2)
    return status


#: File extensions treated as bare VBA source by ``repro lint``.
_VBA_SOURCE_SUFFIXES = (".bas", ".vba", ".cls", ".frm")


def _print_recovered(macro, indent: str = "    ") -> None:
    """The ``[recovered]`` block under one macro in text output."""
    recovery = macro.recovery
    if recovery is None:
        return
    notes = []
    if recovery.parse_failed:
        notes.append("parse failed")
    if recovery.exhausted:
        notes.append(f"budget exhausted: {recovery.exhausted_reason}")
    if recovery.ioc_kinds:
        notes.append("IOCs: " + ",".join(recovery.ioc_kinds))
    if recovery.signature_hits:
        notes.append("signatures: " + ",".join(recovery.signature_hits))
    suffix = f" ({'; '.join(notes)})" if notes else ""
    print(
        f"{indent}[recovered] {len(macro.recovered_strings)} hidden "
        f"string{'s' if len(macro.recovered_strings) != 1 else ''}{suffix}"
    )
    for value in macro.recovered_strings[:5]:
        shown = value if len(value) <= 100 else value[:99] + "…"
        print(f"{indent}  {shown!r}")
    if len(macro.recovered_strings) > 5:
        print(f"{indent}  … {len(macro.recovered_strings) - 5} more")


def _class_summary(findings) -> str:
    """``O1 2, O3 5`` — non-zero per-class finding counts, O-class order."""
    from repro.lint import count_by_class

    counts = count_by_class(findings)
    parts = [f"{oc} {n}" for oc, n in counts.items() if n]
    return ", ".join(parts) if parts else "none"


def _lint_text_file(engine, path: str, data: bytes):
    """Lint one bare VBA source file into a synthetic DocumentRecord."""
    from repro.engine.records import DocumentRecord, sha256_hex

    record = DocumentRecord(source_id=path, sha256=sha256_hex(data))
    record.container = "text"
    source = data.decode("utf-8", "replace")
    macro = engine.run_source(source, name=pathlib.Path(path).stem)
    record.macros = [macro]
    return record


def _cmd_lint(args) -> int:
    from repro.engine import AnalysisEngine
    from repro.ole.extractor import sniff_format

    rules = (
        tuple(rule.strip() for rule in args.rules.split(",") if rule.strip())
        if args.rules
        else None
    )
    registry = _make_registry(args)
    try:
        engine = AnalysisEngine.for_lint(
            rules,
            metrics=registry,
            budget=_make_budget(args),
            chaos=_make_chaos(args),
            recover=args.recover,
            sa_budget=_make_sa_budget(args),
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 1
    try:
        server = _attach_observability(args, registry, engine)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    # Partition inputs: Office containers batch through the document
    # pipeline; bare .bas/.vba sources run the macro-level stages directly;
    # anything else (e.g. the .py files next to a sample macro) is skipped.
    # Archive members arrive pre-read as (id, bytes) pairs.
    entries = _prepare_entries(args, registry)
    records: list = [None] * len(entries)
    documents: list[tuple[int, object]] = []
    for index, (kind, payload) in enumerate(entries):
        if kind == "record":
            records[index] = payload
            continue
        if isinstance(payload, tuple):
            source_id, data = payload
        else:
            source_id = payload
            try:
                with open(payload, "rb") as handle:
                    data = handle.read()
            except OSError as error:
                from repro.engine.records import DocumentRecord

                record = DocumentRecord(source_id=source_id)
                record.diag("read", "error", str(error))
                records[index] = record
                continue
        if sniff_format(data) != "unknown":
            documents.append((index, (source_id, data)))
        elif source_id.lower().endswith(_VBA_SOURCE_SUFFIXES):
            records[index] = _lint_text_file(engine, source_id, data)
        else:
            from repro.engine.records import DocumentRecord, sha256_hex

            record = DocumentRecord(source_id=source_id, sha256=sha256_hex(data))
            record.diag(
                "lint", "info", "skipped: neither a macro container nor VBA source"
            )
            records[index] = record
    if documents:
        batch = engine.run_batch(
            [item for _, item in documents], jobs=args.jobs, window=args.window
        )
        for (index, _), record in zip(documents, batch):
            records[index] = record
    _write_quarantine(args, records)
    _finish_observability(args, registry, engine)
    _finish_telemetry(args, registry, engine.cache_info())
    _shutdown_metrics_server(args, server)

    if args.format == "json":
        _emit_json(records)
        return 0

    status = 0
    total = 0
    for record in records:
        if not record.ok:
            print(f"{record.source_id}: {record.error}", file=sys.stderr)
            status = 1
            continue
        if not record.macros:
            continue
        print(f"=== {record.source_id} ===")
        for macro in record.macros:
            total += len(macro.findings)
            print(
                f"  {macro.module_name}: {len(macro.findings)} findings "
                f"({_class_summary(macro.findings)})"
            )
            if args.recover:
                _print_recovered(macro)
            for finding in macro.findings:
                print(
                    f"    {finding.location} "
                    f"[{finding.rule_id}/{finding.o_class} {finding.severity}] "
                    f"{finding.message}"
                )
    if total:
        status = max(status, 2)
    return status


def _cmd_deobfuscate(args) -> int:
    from repro.deobfuscation import deobfuscate
    from repro.engine import AnalysisEngine

    record = AnalysisEngine.for_extraction().run(args.file)
    if not record.ok:
        print(f"{record.source_id}: {record.error}", file=sys.stderr)
        return 1
    for macro in record.macros:
        outcome = deobfuscate(macro.source)
        print(f"--- {macro.module_name} ---")
        print(outcome.source)
        report = outcome.report
        print(
            f"' [deobfuscation: {report.folded_expressions} folds, "
            f"{report.decoder_calls_evaluated} decoder calls, "
            f"{len(report.procedures_removed)} procedures removed]"
        )
    return 0


def _cmd_demo(args) -> int:
    from repro.corpus.documents import build_document_bytes
    from repro.corpus.malicious import generate_malicious_macro
    from repro.obfuscation.pipeline import default_pipeline

    rng = random.Random(args.seed)
    plain = generate_malicious_macro(rng, "word")
    obfuscated = default_pipeline().run(plain, seed=args.seed)
    blob = build_document_bytes(
        [obfuscated.source], "docm",
        document_variables=obfuscated.document_variables,
    )
    with open(args.output, "wb") as handle:
        handle.write(blob)
    print(f"wrote {args.output} ({len(blob):,} bytes, 1 obfuscated macro)")
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import aggregate_events, read_events_tolerant, render_events_report

    try:
        events, lines_skipped = read_events_tolerant(args.trace)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # A crashed or chaos-killed producer leaves truncated/corrupt lines;
    # aggregation skips and reports them instead of dying mid-file.
    if lines_skipped:
        print(
            f"warning: {args.trace}: skipped {lines_skipped} corrupt "
            f"line{'s' if lines_skipped != 1 else ''}",
            file=sys.stderr,
        )
    if args.format == "json":
        from repro.obs import suggest_stage_timeout

        aggregated = aggregate_events(events)
        payload = dict(aggregated)
        payload["suggested_stage_timeout_s"] = suggest_stage_timeout(aggregated)
        if lines_skipped:
            payload["lines_skipped"] = lines_skipped
        print(json.dumps(payload, sort_keys=True))
    else:
        report = render_events_report(events)
        if lines_skipped:
            report += f"\n  lines skipped: {lines_skipped} (truncated or corrupt)"
        print(report)
    return 0


def _cmd_drift(args) -> int:
    from repro.obs.drift import DriftThresholds, read_profile, score_drift

    try:
        baseline = read_profile(args.baseline)
        live = read_profile(args.live)
        thresholds = DriftThresholds(min_count=args.min_count)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = score_drift(baseline["metrics"], live["metrics"], thresholds)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 2


def _cmd_slo(args) -> int:
    from repro.obs.drift import read_profile
    from repro.obs.slo import DEFAULT_SLOS, dump_slos, evaluate_snapshot, load_slos

    if args.slo_command == "show":
        print(json.dumps(dump_slos(), indent=2, sort_keys=True))
        return 0
    try:
        slos = load_slos(args.slo_file) if args.slo_file else DEFAULT_SLOS
        profile = read_profile(args.snapshot)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = evaluate_snapshot(profile["metrics"], slos)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 2


def _cmd_reproduce(args) -> int:
    from repro.corpus.builder import CorpusBuilder, paper_profile
    from repro.pipeline.dataset import DatasetBuilder
    from repro.pipeline.experiment import ExperimentRunner
    from repro.pipeline.reporting import render_fig6, render_fig7, render_table3, render_table5

    profile = (
        paper_profile().scaled(args.scale) if args.scale < 1.0 else paper_profile()
    )
    corpus = CorpusBuilder(profile, seed=2016).build()
    dataset = DatasetBuilder().build(corpus.documents, corpus.truth, jobs=args.jobs)
    print(render_table3(dataset))
    result = ExperimentRunner(n_splits=args.folds).run(dataset, jobs=args.jobs)
    print(render_table5(result))
    print(render_fig6(result))
    print(render_fig7(result))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.engine import AnalysisEngine
    from repro.obs import MetricsRegistry, SlidingWindow
    from repro.serve import ServeApp, ServeConfig, serve_forever

    print(
        f"training {args.classifier} detector on synthetic corpus...",
        file=sys.stderr,
    )
    detector = _train_detector(args.classifier, args.train_seed)
    # Serving always runs with live telemetry: /metrics and /readyz are
    # part of the endpoint contract, not an opt-in extra.
    registry = MetricsRegistry(trace=bool(args.trace_out))
    window = SlidingWindow()
    engine = AnalysisEngine.for_scan(
        detector,
        lint=True,  # one engine answers /scan, /lint, and /extract
        metrics=registry,
        budget=_make_budget(args),
        chaos=_make_chaos(args),
    )
    engine.window = window
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=max(2, args.jobs),
        window=args.window,
        max_queue=args.max_queue,
        per_client_window=args.client_window,
        rate_per_s=args.rate,
        burst=args.burst,
        default_deadline_s=(
            args.default_deadline if args.default_deadline > 0 else None
        ),
        max_deadline_s=args.max_deadline,
        drain_budget_s=args.drain_budget,
        max_body_bytes=args.max_body_bytes,
        keepalive_idle_s=args.keepalive_idle,
        max_requests_per_connection=args.max_requests_per_connection,
        breaker_threshold=args.breaker_threshold,
        breaker_cooloff_s=args.breaker_cooloff,
    )
    app = ServeApp(engine, config, metrics=registry, window=window)

    def announce(running: ServeApp) -> None:
        print(
            f"serving on http://{args.host}:{running.port} "
            f"(scan/lint/extract; /metrics /healthz /readyz; "
            f"{config.jobs} warm workers, shed line {config.max_queue})",
            file=sys.stderr,
        )

    report = asyncio.run(serve_forever(app, on_ready=announce))
    if report is not None:
        state = "settled" if report.settled else "drain budget expired"
        print(
            f"drained: {state}, {report.abandoned} request(s) quarantined",
            file=sys.stderr,
        )
    if args.trace_out:
        from repro.obs import write_events

        count = write_events(args.trace_out, registry.events)
        print(f"wrote {count} events to {args.trace_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Static string-recovery (repro.sa) — overhead gate on fleet traffic.

Two claims, benchmarked end to end:

* **recovery is affordable at fleet rates** — running the full lint
  pipeline with ``recover=True`` over fleet-shaped traffic (per 32
  documents: 1 novel macro — alternating benign and obfuscated — 3
  line-ending variants, 28 exact re-submissions) must cost less than
  15% wall-clock over the same traffic with recovery off.  The document
  cache coalesces re-submissions and the normalized-digest caches
  (feature rows and finished recoveries) coalesce the variants, so the
  folder only pays on the novel tail — exactly the economics a gateway
  deployment sees;
* **the adversarial floor holds** — the obfuscated half of the novel
  documents runs the real corpus obfuscator (split + encode), so the
  recover column includes genuine Chr/xor/hex decoding work, not just
  benign no-ops.

Each side is timed ``ROUNDS`` times, off and on alternating, and the gate
is the ratio of the two medians: one ~0.4 s timing per side swings by
±15% on a shared 2-CPU machine, enough to fail a 1.15x bound on noise.

Results land in ``benchmarks/results/sa_overhead.json``; if a committed
artifact is present the run additionally fails on a >20% throughput
regression of the recover-on path against it.

Environment knobs: ``REPRO_BENCH_SA_GROUPS`` (fleet groups of 32 docs,
default 12).
"""

from __future__ import annotations

import json
import os
import random

from conftest import RESULTS_DIR, save_artifact

from repro.corpus.benign import generate_benign_module
from repro.corpus.documents import build_document_bytes
from repro.corpus.malicious import generate_malicious_macro
from repro.engine import AnalysisEngine
from repro.obfuscation.pipeline import default_pipeline
from repro.obs import MetricsRegistry

GROUPS = int(os.environ.get("REPRO_BENCH_SA_GROUPS", "12"))

#: The ISSUE 7 gate: recover-on wall-clock over recover-off wall-clock.
MAX_OVERHEAD_RATIO = 1.15

#: Allowed slowdown vs the committed artifact before the bench fails.
REGRESSION_TOLERANCE = 0.8

#: Timings per side; the gate compares medians.
ROUNDS = 5

def build_fleet_mix(rng: random.Random, groups: int):
    """Fleet traffic: per 32 docs, 1 novel, 3 variants, 28 re-submissions.

    Novel sources alternate benign modules and obfuscated malicious
    macros so the recover stage sees real decoder chains, not only
    benign code it folds trivially.  The variants re-encode the novel
    source with the line-ending flavours ``normalize_source``
    canonicalizes (CRLF, lone CR, mixed) — distinct document bytes, one
    normalized digest, the shape a fleet sees when the same module
    arrives via OLE streams and pasted text feeds.
    """
    pipeline = default_pipeline()
    batch = []
    for group in range(groups):
        if group % 2 == 0:
            source = generate_benign_module(rng, target_length=400)
        else:
            plain = generate_malicious_macro(rng, rng.choice(("word", "excel")))
            source = pipeline.run(plain, seed=group).source
        crlf = source.replace("\n", "\r\n")
        lone_cr = source.replace("\n", "\r")
        mixed = source.replace("\n", "\r\n", 1)
        distinct = [
            build_document_bytes([source], "docm"),
            build_document_bytes([crlf], "docm"),
            build_document_bytes([lone_cr], "docm"),
            build_document_bytes([mixed], "docm"),
        ]
        resubmissions = [distinct[index % 4] for index in range(28)]
        for index, data in enumerate(distinct + resubmissions):
            batch.append((f"sa_fleet_{group:03d}_{index:02d}.docm", data))
    rng.shuffle(batch)
    return batch


def _drive(batch, *, recover: bool):
    """Serial (jobs=1) run of the lint pipeline; returns (elapsed_s, stats)."""
    registry = MetricsRegistry()
    engine = AnalysisEngine.for_lint(metrics=registry, recover=recover)
    records = engine.run_batch(batch, jobs=1)
    assert len(records) == len(batch)  # N in, N out
    assert all(record.ok for record in records)
    elapsed = registry.histogram("span.batch").sum
    recovered = sum(
        len(macro.recovered_strings)
        for record in records
        for macro in record.macros
    )
    engine.close()
    return elapsed, {
        "docs": len(records),
        "elapsed_s": round(elapsed, 3),
        "docs_per_s": round(len(records) / elapsed, 1) if elapsed else 0.0,
        "strings_recovered": recovered,
    }


def _median_run(runs):
    """The run with the median elapsed time, plus every run's time."""
    ordered = sorted(runs, key=lambda run: run[0])
    elapsed, stats = ordered[len(ordered) // 2]
    return elapsed, {**stats, "runs_s": [round(run[0], 3) for run in runs]}


def _previous_artifact() -> dict | None:
    path = RESULTS_DIR / "sa_overhead.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def test_recover_overhead_under_fleet_mix(benchmark):
    previous = _previous_artifact()
    rng = random.Random(2018)
    batch = build_fleet_mix(rng, GROUPS)

    # Alternate off/on runs so machine drift hits both sides equally.
    runs = {False: [], True: []}
    for _ in range(ROUNDS):
        for recover in (False, True):
            runs[recover].append(_drive(batch, recover=recover))
    off_s, off_stats = _median_run(runs[False])
    on_s, on_stats = _median_run(runs[True])

    ratio = on_s / off_s if off_s else float("inf")
    text = (
        "SA OVERHEAD — recover-on vs recover-off, fleet mix, jobs=1\n"
        f"traffic            : {GROUPS} groups x 32 docs "
        "(1 novel / 3 variants / 28 resubmissions)\n"
        f"recover off        : {off_stats['elapsed_s']} s "
        f"({off_stats['docs_per_s']} docs/s)\n"
        f"recover on         : {on_stats['elapsed_s']} s "
        f"({on_stats['docs_per_s']} docs/s, "
        f"{on_stats['strings_recovered']} strings recovered)\n"
        f"overhead           : {ratio:.3f}x  (required < {MAX_OVERHEAD_RATIO}x, "
        f"medians of {ROUNDS} alternating runs)\n"
    )
    print("\n" + text)

    save_artifact(
        "sa_overhead.json",
        json.dumps(
            {
                "groups": GROUPS,
                "docs": off_stats["docs"],
                "jobs": 1,
                "recover_off": off_stats,
                "recover_on": on_stats,
                "overhead_ratio": round(ratio, 3),
                "max_overhead_ratio": MAX_OVERHEAD_RATIO,
                "rounds": ROUNDS,
            },
            indent=2,
            sort_keys=True,
        ),
    )

    assert on_stats["strings_recovered"] > 0, "recover pass folded nothing"
    assert ratio < MAX_OVERHEAD_RATIO, text

    if previous is not None and "recover_on" in previous:
        floor = previous["recover_on"]["docs_per_s"] * REGRESSION_TOLERANCE
        assert on_stats["docs_per_s"] >= floor, (
            f"recover path regressed >20%: {on_stats['docs_per_s']} docs/s "
            f"vs committed {previous['recover_on']['docs_per_s']}"
        )

    benchmark.pedantic(
        lambda: _drive(batch[: 2 * 32], recover=True), iterations=1, rounds=3
    )

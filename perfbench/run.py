"""Layered benchmark of the repro pipeline: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-paper --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``scan-paper``   serial ``repro scan --explain --recover`` on a paper-shaped corpus
* ``scan-fleet``   ``repro scan --jobs 2`` on the fleet resubmission mix
* ``serve-fleet``  open-loop rate ladder against a fresh ``repro serve``
* ``reproduce-cv`` the paper's Table V cross-validation

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the timed
phase once untraced and once traced and prints the per-layer metrics.
The workload runs in a child process so the system under test's exit
status and stderr are recorded as they are.  The last line of standard
output is the result object; the lines before it are the detailed
report (input properties, latency percentile and sample count, checks,
the server's flags, exit status and stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import WORKLOADS  # noqa: E402

#: Hard limit on one workload run, kept under the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [
        sys.executable, str(HERE / "sut.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), "--run-dir", str(run_dir),
    ]
    try:
        child = subprocess.run(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as expired:
        sys.stderr.write(expired.stderr or "")
        print(f"error: {args.workload} ran past {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        print(f"error: {args.workload} exited {child.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    # The benchmark process is the system under test on the in-process
    # workloads: its stderr is reported whole, and a traceback in it (for
    # example one raised at interpreter exit) fails one more operation.
    failed = report["failed"] + int("Traceback" in child.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "attempted": report["attempted"],
        "failed": failed,
        "failed_share": failed / max(1, report["attempted"]),
        "latency": report["latency"],
        "latency_unit": report["latency_unit"],
        "doc_unit": report["doc_unit"],
        "raw_per_document": report["raw_per_document"],
        "source_kb_per_s": report["source_kb_per_s"],
        "input_properties": report["properties"],
        "checks_and_quality": report["details"],
        "layers": report["layers"],
        "layer_metric_moves": report["layer_metric_moves"],
        "process_exit_status": child.returncode,
        "process_stderr": child.stderr,
        "process_stderr_has_traceback": "Traceback" in child.stderr,
    }
    print(json.dumps(detail, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

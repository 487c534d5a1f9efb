"""Benchmark of the qvac CLI: closed-loop workloads with value oracles.

Run from the root of a qvac checkout:

    python3 perfbench/run.py --workload spectra --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``spectra``, ``qpot-grid`` and
``sample-report``.  The benchmark generates the workload's inputs from
``--seed``, measures the set-up every CLI user pays (a fresh process
importing ``qvac.cli`` and building its parser), then starts one worker
process that calls ``qvac.cli.main`` in a closed loop for ``--seconds`` of
operation wall time.  Every operation's outputs are checked by the
workload's oracle and must be byte-identical across the run's operations.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` the worker alternates
untraced and traced operations and the metrics are the per-layer split
(see ``tracer.py``).  A result file with the environment, every operation
wall time and the run's quartiles is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes per run that time ``import qvac.cli`` + ``build_parser()``;
#: half run before the worker and half after, so that their median spans
#: two moments of a machine whose speed drifts.
SETUP_REPEATS = 10
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qvac.cli\n"
    "qvac.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
    "print(qvac.cli.__file__)\n"
)
#: A timed run needs this many operations beyond its tail percentile.
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 140.0


class BenchError(Exception):
    """The benchmark could not run: missing sources, a crashed worker."""


def _child_env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


def _inside(path: str, directory: Path) -> bool:
    return os.path.realpath(path).startswith(str(directory.resolve()) + os.sep)


def measure_setup(src: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=_child_env(src), cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not _inside(lines[1], src):
        raise BenchError(f"import qvac.cli failed or came from outside {src}: {proc.stderr[-1000:]}{proc.stdout}")
    return float(lines[0])


def run_worker(spec: dict, work: Path, src: Path) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=_child_env(src), cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def check_ops(workload, records: list[dict]) -> tuple[int, list[str], int]:
    """Check every operation; returns (failed ops, problems, estimator fails).

    An operation fails on a non-zero exit, a traceback, outputs the oracle
    rejects, or outputs whose bytes differ from the first operation's.  The
    oracle runs once per distinct set of output bytes, on the directory of
    the first operation that produced it (the worker deletes the others).
    """
    verdicts: dict = {}
    failed, estimator_fail, problems = 0, 0, []
    first = records[0]["files"]
    for rec in records:
        key = json.dumps(rec["files"])
        if key not in verdicts:
            verdicts[key] = workload.check(rec["out"])
        op_problems, notes = verdicts[key]
        op_problems = rec["problems"] + op_problems
        if rec["files"] != first:
            op_problems = op_problems + [f"outputs {rec['files']} differ from operation {records[0]['index']}'s {first}"]
        estimator_fail += notes.get("estimator_fail", 0)
        if op_problems:
            failed += 1
            problems.append(f"operation {rec['index']}: " + "; ".join(op_problems)[:4000])
    return failed, problems, estimator_fail


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND operations beyond it,
    as (percentile, value); the median when there are too few operations
    for such a percentile to lie above it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(workload, records, peak_rss_kb, setup, attempted, failed) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in records if r["timed"]]
    pct, tail_value = tail(walls)
    metrics = {
        "wall_s_p50": (statistics.median(walls), "s"),
        "wall_s_tail": (tail_value, "s"),
        "work_per_s": (workload.work_units * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "timed_ops": len(walls),
        "wall_s_tail_percentile": pct,
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3,
        "work_unit": workload.unit,
        "work_units_per_op": workload.work_units,
        "fail_ratio": failed / attempted,
    }
    return metrics, details


def per_layer(records: list[dict], estimator_fail: int) -> dict:
    traced = [r for r in records if r["traced"] and r["timed"]]
    untraced = [r for r in records if not r["traced"] and r["timed"]]
    cold = next(r["layers"] for r in records if r["traced"] and not r["timed"])

    def med(key: str) -> float:
        return statistics.median(r["layers"].get(key, 0) for r in traced)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
        metrics[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for layer in ("cli", "qpotential", "sampler"):
        metrics[f"{layer}.rss_growth_mb"] = (cold[f"{layer}.rss_growth_mb"], "MB")
    metrics.update({
        "qpotential.ingest_s": (med("stage.ingest_s"), "s"),
        "qpotential.ingest_bytes": (med("qpotential.ingest_bytes"), "B"),
        "qpotential.kernel_s": (med("stage.kernel_s"), "s"),
        "qpotential.kernel_cells": (med("qpotential.kernel_cells"), "count"),
        "qpotential.kernel_bytes_computed": (med("qpotential.kernel_bytes_computed"), "B"),
        "cli.output_bytes": (statistics.median(r["output_bytes"] for r in traced), "B"),
        "sampler.synth_s": (med("stage.synth_s"), "s"),
        "sampler.samples": (med("sampler.samples"), "count"),
        "sampler.estimators_s": (med("stage.estimators_s"), "s"),
        "sampler.estimator_fail": (estimator_fail, "count"),
        "trace.op_s": (statistics.median(r["wall_s"] for r in traced), "s"),
        "trace.untraced_op_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "trace.spans": (med("spans"), "count"),
        "trace.wrapper_cost_s": (med("overhead_s"), "s"),
    })
    metrics["trace.overhead_s"] = (metrics["trace.op_s"][0] - metrics["trace.untraced_op_s"][0], "s")
    return metrics


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="operation wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def run(args) -> dict:
    src = ROOT / "src"
    if not (src / "qvac" / "cli.py").is_file():
        raise BenchError(f"no qvac sources at {src / 'qvac'}")
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    work = ROOT / ".perfbench" / f"work-{tag}"
    (work / "inputs").mkdir(parents=True)
    try:
        load_before = os.getloadavg()
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, str(work / "inputs"))
        generate_s = time.perf_counter() - t0
        setup = [measure_setup(src) for _ in range(SETUP_REPEATS // 2)]
        spec = {
            "src": str(src),
            "ops": workload.argv(),
            "op_root": str(work / "ops"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result": str(work / "worker.json"),
            "spans": str(results / f"{tag}.spans.npz") if args.trace else None,
        }
        worker = run_worker(spec, work, src)
        setup += [measure_setup(src) for _ in range(SETUP_REPEATS - len(setup))]
        records = worker["ops"]
        attempted = len(records)
        failed, problems, estimator_fail = check_ops(workload, records)
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, details = per_layer(records, estimator_fail), {}
    else:
        metrics, details = end_to_end(workload, records, worker["peak_rss_kb"], setup, attempted, failed)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "load_average_before": load_before,
        "load_average_after": load_after,
        "setup": {"generate_inputs_s": generate_s, "import_and_parser_s": setup, "peak_rss_kb": worker["peak_rss_kb"]},
        "estimator_fail": estimator_fail,
        "problems": problems,
        "details": details,
        "operations": [
            {k: r[k] for k in ("index", "traced", "timed", "wall_s", "sub_walls_s", "output_bytes", "layers") if k in r}
            for r in records
        ],
        "result": summary,
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    if details:
        q1, q2, q3 = details["wall_s_quartiles"]
        print(f"{args.workload}: {details['timed_ops']} timed ops, op wall quartiles "
              f"{q1:.4f} / {q2:.4f} / {q3:.4f} s; wall_s_tail is p{details['wall_s_tail_percentile']:.1f} "
              f"of {details['timed_ops']} ops; work unit: {details['work_unit']}; "
              f"fail_ratio {details['fail_ratio']:g}")
    print(f"result file: {results / (tag + '.json')}")
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop client of ``qvac.cli.main``: one thread, each operation
starting only after the previous one completes.

Usage: ``python3 worker.py SPEC.json``, with qvac's ``src`` directory on
PYTHONPATH.  ``run.py`` starts one worker per benchmark run, so memory
and import state are per workload, and reads the result file it writes.

SPEC keys: ``src`` (the qvac sources that must be imported), ``ops`` (the
argument lists of one operation, ``{out}`` standing for its output
directory), ``op_root``, ``seconds`` (operation wall time to accumulate),
``trace`` and ``result`` (the JSON file to write); ``spans`` is where a
traced run saves the spans of its last traced operation.

Untraced run: one warm-up operation, then operations until their wall
times add up to ``seconds``.  Traced run: one traced operation in the
cold process (its peak-RSS growth is attributed to layers), then
untraced and traced operations alternately, so the tracing overhead is
the difference of their medians.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import resource
import sys
import traceback
from contextlib import redirect_stderr
from time import perf_counter


def _call(cli, argv: list[str]) -> tuple[int | None, str]:
    """Exit code (None on an uncaught exception) and stderr of one CLI call."""
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, err.getvalue()


def digest(directory: str) -> list[tuple[str, str, int]]:
    """(name, sha256, size) of every file in ``directory``, sorted by name."""
    files = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        files.append((name, hashlib.sha256(data).hexdigest(), len(data)))
    return files


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import qvac
    import qvac.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(qvac.__file__).startswith(src + os.sep):
        print(f"worker: imported qvac from {qvac.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, save_spans

        tracer = Tracer()
        tracer.calibrate()
    records = []
    last_trace = None

    def run_op(index: int, traced: bool, timed: bool) -> float:
        nonlocal last_trace
        out = os.path.join(spec["op_root"], f"{index:04d}")
        os.makedirs(out)
        argvs = [[a.replace("{out}", out) for a in argv] for argv in spec["ops"]]
        if traced:
            tracer.install()
            tracer.begin_op(index)
        sub_walls, problems = [], []
        t0 = perf_counter()
        try:
            for argv in argvs:
                s0 = perf_counter()
                rc, stderr = _call(qvac.cli, argv)
                sub_walls.append(perf_counter() - s0)
                if rc != 0 or "Traceback" in stderr:
                    problems.append(f"{argv[0]}: exit {rc}: {stderr[-2000:]}")
            wall = perf_counter() - t0
        finally:
            if traced:
                op_trace = tracer.end_op()
                tracer.uninstall()
        files = digest(out)
        # Outputs equal to the first operation's are checked through its copy;
        # deleting them keeps the run's disk and page-cache footprint small.
        if records and files == records[0]["files"]:
            shutil.rmtree(out)
        record = {
            "index": index,
            "out": out,
            "traced": traced,
            "timed": timed,
            "wall_s": wall,
            "sub_walls_s": sub_walls,
            "problems": problems,
            "files": files,
            "output_bytes": sum(size for _, _, size in files),
        }
        if traced:
            record["layers"] = tracer.summarize(op_trace)
            last_trace = op_trace
        records.append(record)
        return wall

    busy = 0.0
    index = 0
    if tracer is None:
        run_op(index, traced=False, timed=False)
        while busy < spec["seconds"]:
            index += 1
            busy += run_op(index, traced=False, timed=True)
    else:
        run_op(index, traced=True, timed=False)
        while busy < spec["seconds"]:
            for traced in (False, True):
                index += 1
                busy += run_op(index, traced=traced, timed=True)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if last_trace is not None and spec.get("spans"):
        save_spans(spec["spans"], last_trace)
    result = {"ops": records, "peak_rss_kb": peak_rss_kb}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

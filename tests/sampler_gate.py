"""Byte equality of ``qvac sample`` with one worker and with two.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/sampler_gate.py

For each seed 0-19 it runs ``qvac sample`` in-process on the README
config (1024 points, extent 4e-8 m, lambda_c 1e-9 m, 4096 realizations)
twice: once with every parallel step on the caller and once with the
second part of each on the call's helper thread (whatever the CPU count).
It does the same at seed 3 with 3 and with 4095 realizations, whose last
block has an odd row count, so its two row ranges differ in size.  It
writes the field CSV (98.6 MB at 4096 realizations) and the report into a
temporary directory, compares their md5 digests, prints one line per run
and exits 1 on the first difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

from qvac import cli, sampler

SEEDS = range(20)
README_CONFIG = {"lambda_c": 1e-9, "grid_points": 1024, "extent": 4e-8, "realizations": 4096}
ODD_ROWS = (3, 4095)


def md5(path: str) -> str:
    digest = hashlib.md5()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sample_digests(directory: str, name: str, settings: dict, workers: int) -> tuple[str, str]:
    """md5 of the field CSV and of the report of one ``qvac sample`` run."""
    config = os.path.join(directory, "config.json")
    field = os.path.join(directory, "field.csv")
    report = os.path.join(directory, "report.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(settings, fh)
    sampler._row_workers = lambda: workers
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sample", config, "--field-out", field, "--report-out", report])
    if code != 0:
        raise SystemExit(f"FAIL {name}: qvac sample exited {code} with {workers} worker(s)")
    try:
        return md5(field), md5(report)
    finally:
        os.remove(field)


def main() -> int:
    runs = [(f"seed {seed}", {**README_CONFIG, "seed": seed}) for seed in SEEDS]
    runs += [(f"seed 3, {m} realizations", {**README_CONFIG, "seed": 3, "realizations": m}) for m in ODD_ROWS]
    with tempfile.TemporaryDirectory() as directory:
        for name, settings in runs:
            start = time.perf_counter()
            one = sample_digests(directory, name, settings, 1)
            two = sample_digests(directory, name, settings, 2)
            if one != two:
                print(f"FAIL {name}: field/report md5 {one} with one worker, {two} with two")
                return 1
            print(f"ok   {name}: field {one[0]} report {one[1]} ({time.perf_counter() - start:.1f} s)")
    print(f"sampler gate passed: {len(SEEDS)} seeds and {len(ODD_ROWS)} odd-row configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation check of the test suite: do the tests fail when the code is wrong?

Run by hand from the repository root (pytest does not collect it), naming
the modules of ``src/qvac/`` to mutate:

    python tests/mutation_gate.py errors cli sampler

For each module it draws, with a fixed seed, up to SITES mutation sites
and makes one mutation at each:

* a comparison swap: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
* an arithmetic swap: ``+`` and ``-``, ``*`` and ``/``;
* an ``and``/``or`` swap;
* a nudge of one numeric constant: an int n becomes n + 1, a float x
  becomes 1.01 * x (0.0 becomes 1e-300).

Each mutant is written into a temporary copy of ``src/``; the checkout is
never written.  The suite in ``tests/`` then runs against that copy with
``pytest -x``, and the line printed for the mutant names the test that
killed it.  Some tests assert a wall-time budget, so a slow mutant can be
killed by one of those rather than by a value check: read the test name.
A run past TIMEOUT_S counts as killed.

The gate exits 1 on any surviving mutant that is not in EQUIVALENT, the
committed list of mutants known to change no observable behaviour, keyed
by module, the source text of the mutated expression and its mutated
text (``ast.unparse`` of both), not by line number.  The unmutated copy
must pass first, or the gate exits 2.

Do not run it, or the suite it runs, under a tracer (``sys.settrace``,
coverage): traced, ``test_criterion_02_stefan_boltzmann`` misses its
1-s budget with every value check passing.  Each mutant takes about as
long as the suite, tens of seconds.
"""

from __future__ import annotations

import ast
import contextlib
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 13
SITES = 12
TIMEOUT_S = 600

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}

#: (module, expression, mutated expression) of mutants that change no
#: observable behaviour, each with the reason.
EQUIVALENT = {
    ("correlation", "max(1, BLOCK_VALUES // k.size)", "max(2, BLOCK_VALUES // k.size)"):
        "the direct path's lag block: 2^17 // 4096 = 32 rows either way",
    ("sampler", "weights[-1]", "weights[-2]"):
        "the last two weights are below 1e-67 at a valid spacing, under half an ulp of the total (>= 1)",
    ("sampler", "weights[0] + 2.0 * weights[1:-1].sum() + weights[-1]",
     "weights[0] + 2.0 * weights[1:-1].sum() - weights[-1]"):
        "the Nyquist weight is below 1e-67 at a valid spacing, under half an ulp of the total (>= 1)",
    ("sampler", "ThreadPoolExecutor(max_workers=1, thread_name_prefix='qvac-rows')",
     "ThreadPoolExecutor(max_workers=2, thread_name_prefix='qvac-rows')"):
        "one task is outstanding at a time, and no bit depends on the thread that runs it",
    ("cli", "exc.code or 0", "exc.code and 0"):
        "parse_args raises SystemExit only for --help, with code 0",
    ("qpotential", "density.values.max(initial=0.0)", "density.values.max(initial=1e-300)"):
        "a grid whose maximum is below 1e-300 is singular at every point either way",
    ("constants", "math.isclose(self.planck_mass, derived, rel_tol=1e-12)",
     "math.isclose(self.planck_mass, derived, rel_tol=1.01e-12)"):
        "a self-check tolerance: the Planck mass derived from hbar, c and G agrees far inside both",
    ("constants", "math.isclose(derived, CODATA_PLANCK_MASS, rel_tol=0.0001)",
     "math.isclose(derived, CODATA_PLANCK_MASS, rel_tol=0.000101)"):
        "a self-check tolerance: the derived Planck mass agrees with CODATA far inside both",
}


def _mutation(node: ast.AST) -> tuple[str, object] | None:
    """The field of ``node`` that its one mutation sets and the value it
    sets, or None where the node takes no mutation."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in SWAPS:
        return "ops", [SWAPS[type(node.ops[0])]()]
    if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        return "op", SWAPS[type(node.op)]()
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        return "value", value + 1 if isinstance(value, int) else (1.01 * value if value else 1e-300)
    return None


class _Site:
    """One mutation: field ``field`` of ``node``, in ``tree``, set to
    ``value``.  ``shown`` is the node, or for a constant the expression
    around it, that the key and the report quote."""

    def __init__(self, module: str, tree: ast.Module, parents: dict, node: ast.AST, field: str, value: object):
        self.module, self.tree, self.node, self.field, self.value = module, tree, node, field, value
        shown = parents[node] if isinstance(node, ast.Constant) else node
        while isinstance(shown, (ast.UnaryOp, ast.keyword)):
            shown = parents[shown]
        self.shown = shown

    @contextlib.contextmanager
    def _applied(self):
        original = getattr(self.node, self.field)
        setattr(self.node, self.field, self.value)
        try:
            yield
        finally:
            setattr(self.node, self.field, original)

    def key(self) -> tuple[str, str, str]:
        before = ast.unparse(self.shown)
        with self._applied():
            return self.module, before, ast.unparse(self.shown)

    def source(self) -> str:
        with self._applied():
            return ast.unparse(self.tree) + "\n"


def sites(module: str) -> list[_Site]:
    """The drawn sites of ``src/qvac/<module>.py``, in source order."""
    tree = ast.parse((ROOT / "src" / "qvac" / f"{module}.py").read_text(encoding="utf-8"))
    parents = {child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)}
    found = []
    for node in ast.walk(tree):
        mutation = _mutation(node)
        if mutation is not None:
            found.append(_Site(module, tree, parents, node, *mutation))
    found.sort(key=lambda site: (site.node.lineno, site.node.col_offset))
    drawn = random.Random(f"{SEED}:{module}").sample(found, min(SITES, len(found)))
    return sorted(drawn, key=lambda site: (site.node.lineno, site.node.col_offset))


def run_suite(src: Path) -> tuple[bool, str, float]:
    """(passed, the first failing test or "timeout", seconds) of ``pytest -x tests/`` on ``src``."""
    # No bytecode cache: a mutant of the original's size written within the same second would look current.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", "tests"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, "timeout", time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", run.stdout, flags=re.M)
    killer = failed.group(1) if failed else f"exit {run.returncode}"
    return run.returncode == 0, killer, time.perf_counter() - start


def main(modules: list[str]) -> int:
    if not modules:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="qvac-mutants-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        check = subprocess.run([sys.executable, "-c", "import qvac; print(qvac.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
        if not check.stdout.startswith(str(src)):
            print(f"qvac imports from {check.stdout.strip()!r}, not from the copy", file=sys.stderr)
            return 2
        passed, killer, seconds = run_suite(src)
        if not passed:
            print(f"the unmutated suite fails ({killer}); fix that first", file=sys.stderr)
            return 2
        print(f"unmutated suite passes in {seconds:.0f} s")
        survivors = []
        for module in modules:
            target = src / "qvac" / f"{module}.py"
            original = target.read_text(encoding="utf-8")
            drawn = sites(module)
            print(f"{module}: {len(drawn)} mutants")
            for site in drawn:
                key = site.key()
                target.write_text(site.source(), encoding="utf-8")
                try:
                    passed, killer, seconds = run_suite(src)
                finally:
                    target.write_text(original, encoding="utf-8")
                where = f"{module}.py:{site.node.lineno}  {key[1]}  ->  {key[2]}"
                if not passed:
                    print(f"  killed      {where}  by {killer} ({seconds:.0f} s)")
                elif key in EQUIVALENT:
                    print(f"  equivalent  {where}  ({EQUIVALENT[key]})")
                else:
                    print(f"  SURVIVED    {where}")
                    survivors.append(where)
    if survivors:
        print(f"mutation gate FAILED: {len(survivors)} survivor(s) not listed as equivalent")
        return 1
    print("mutation gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Work counts of fixed solver rungs: LP solves, pivots, refreshes, iterations.

Run from the repository root:

    PYTHONPATH=src python3 bench/counts.py

It solves each rung and writes ``BENCH_counts_<rev>.json`` at
the repository root (or ``--out``), where ``<rev>`` is ``git rev-parse
--short HEAD``, followed by ``-dirty`` when ``src/`` differs from it.  Per
rung it records the LP's solves, dual and primal pivots and refreshes,
summed over every ``WarmLP`` solve, the largest LP solved (rows, variables),
the solver's iterations, its value and certified gap, and the wall seconds.

The counts do not depend on the host's speed, so a change's before and
after compare rung by rung; the seconds are for information only.  They do
depend on floating-point bits, so compare two trees on one host with one
numpy and BLAS build, as ``tests/answer_digest.py`` is compared.

The rungs are the tiny tier: the double-oracle cases of perfbench's
``do-interval`` workload (spanning trees and DAG paths under intervals, at
their pinned seeds) and one adversary LP on the scenario axis, k-selection
n=100 with 32 scenarios: under a second in all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOL = 1e-7


class Rung(NamedTuple):
    family: str
    n: int
    uncertainty: str  # interval | scenarios
    scenarios: int  # 0 under intervals
    seed: int
    solver: str  # randomized | adversary-lp

    @property
    def name(self) -> str:
        kind = self.uncertainty if not self.scenarios else f"{self.scenarios} scenarios"
        return f"{self.family}/{kind}/n={self.n}/seed={self.seed}/{self.solver}"


RUNGS = tuple(
    [Rung("spanning-tree", n, "interval", 0, seed, "randomized")
     for n, seeds in ((30, (1, 2)), (45, (1, 2, 3)), (60, (1, 3))) for seed in seeds]
    + [Rung("dag-path", 60, "interval", 0, 1, "randomized"),
       Rung("k-selection", 100, "scenarios", 32, 1, "adversary-lp")]
)

COUNTS = ("solves", "dual_pivots", "primal_pivots", "refreshes")


@contextlib.contextmanager
def lp_counts():
    """Sums of every ``WarmLP`` solve's counts while open, and the largest
    LP solved; the one seam through which the counts are read."""
    from minregret.lp import WarmLP

    totals = dict.fromkeys(COUNTS, 0)
    totals["largest_lp"] = [0, 0]
    solve = WarmLP._solve  # solve and _reprice both run it

    def counted(lp, *args):
        sol = solve(lp, *args)
        totals["solves"] += 1
        totals["dual_pivots"] += sol.dual_pivots
        totals["primal_pivots"] += sol.primal_pivots
        totals["refreshes"] += sol.refreshes
        if np.prod(lp.shape) > np.prod(totals["largest_lp"]):
            totals["largest_lp"] = list(lp.shape)
        return sol

    WarmLP._solve = counted
    try:
        yield totals
    finally:
        WarmLP._solve = solve


def run_rung(rung: Rung) -> dict:
    """One rung's record: its counts, answer and seconds."""
    import minregret as mr
    from minregret.core import MAX_CUTS
    from minregret.solvers import _double_oracle

    scenarios = {"n_scenarios": rung.scenarios} if rung.scenarios else {}
    instance = mr.generate_instance(
        rung.family, n=rung.n, uncertainty=rung.uncertainty, seed=rung.seed, **scenarios
    )
    oracle = mr.build_oracle(instance)
    with lp_counts() as totals:
        start = time.perf_counter()
        if rung.solver == "randomized":
            game = mr.solve_randomized(instance, tol=TOL, oracle=oracle)
        else:  # the loop solve_adversary_lp_discrete runs, with its iterations
            game = _double_oracle(instance, TOL, MAX_CUTS, oracle, every_scenario=True)
        seconds = time.perf_counter() - start
    return {
        "rung": rung.name, **rung._asdict(), **totals,
        "iterations": game.iterations, "value": game.value,
        "certified_gap": game.certified_gap, "seconds": round(seconds, 4),
    }


def run_rungs() -> list[dict]:
    return [run_rung(rung) for rung in RUNGS]


def revision() -> str:
    """The short git revision of the tree, ``-dirty`` if ``src/`` differs
    from it; ``unknown`` outside a git work tree."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_counts_<rev>.json)")
    args = parser.parse_args(argv)
    rev = revision()
    rungs = run_rungs()
    report = {"revision": rev, "numpy": np.__version__, "rungs": rungs}
    out = args.out or ROOT / f"BENCH_counts_{rev}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for r in rungs:
        print(
            f"{r['rung']:52s} solves {r['solves']:4d} pivots {r['dual_pivots']:5d} + "
            f"{r['primal_pivots']:5d} refreshes {r['refreshes']:3d} "
            f"iterations {r['iterations']:3d} LP {r['largest_lp'][0]}x{r['largest_lp'][1]} "
            f"{r['seconds']:.3f}s"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

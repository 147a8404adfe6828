"""Work counts of fixed solver rungs: LP solves, pivots, refreshes, iterations.

Run from the repository root:

    PYTHONPATH=src python3 bench/counts.py [--tier {tiny,full}]

It solves each rung of the tier and writes ``BENCH_counts_<rev>_<tier>.json``
at the repository root (or ``--out``), where ``<rev>`` is ``git rev-parse
--short HEAD``, followed by ``-dirty`` when ``src/`` differs from it.  Per
rung it records the LP's solves, dual and primal pivots and refreshes,
summed over every ``WarmLP`` solve, the kernel runs that lifted their
right-hand sides against a stall (``lifts``: ``_kernel.run_simplex`` calls
that returned ``STATUS_LIFTED``), the largest LP solved (rows, variables),
the solver's iterations, its value and certified gap, and the wall seconds,
split into layers (``layers``): the pivot kernel (``_kernel.run_simplex``),
the exact refresh (``lp._refresh``), the rest of the LP (``WarmLP._solve``
less those two), the double oracle's best responses, oracle solves included
(``_RestrictedGame.responses``), and its growth, payoff assembly and tableau
growth (``_RestrictedGame.grow``).  What is left of the seconds is the
solver's own loop and certificate.

The counts do not depend on the host's speed, so a change's before and
after compare rung by rung; the seconds are for information only.  They do
depend on floating-point bits, so compare two trees on one host with one
numpy and BLAS build, as ``tests/answer_digest.py`` is compared.  The script
pins BLAS to one thread before it imports numpy, as ``perfbench/run.py``
does, and stamps the thread variables in the report: under threads, the
refresh's solves and the growth's products sum in another order, and 4 of
the 9 slow rungs counted differently.

The tiny tier, the default, is the double-oracle cases of perfbench's
``do-interval`` workload (spanning trees and DAG paths under intervals, at
their pinned seeds) and one adversary LP on the scenario axis, k-selection
n=100 with 32 scenarios: under a second in all.  The full tier is eleven
slow rungs, about 35 seconds in all on a 2-vCPU host: ``solve_randomized``
on spanning trees under intervals (n=500 seeds 1 and 2, n=1000 seeds 2 and
1) and with 64 scenarios (n=200), the adversary LP with 64 scenarios
(k-selection n=200, spanning trees n=500), and the double oracle on
interval k-selection (n=150 seed 1, n=200 seeds 3, 1 and 2), which
``solve_randomized`` leaves to the threshold search.  Seed 2 takes most of
the time; it is the rung that stalled under the Bland fallback that the
kernel's right-hand-side lift replaced.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

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
    solver: str  # randomized | adversary-lp | double-oracle

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

FULL_RUNGS = (
    Rung("spanning-tree", 500, "interval", 0, 1, "randomized"),
    Rung("spanning-tree", 500, "interval", 0, 2, "randomized"),
    Rung("spanning-tree", 1000, "interval", 0, 2, "randomized"),
    Rung("spanning-tree", 1000, "interval", 0, 1, "randomized"),
    Rung("k-selection", 200, "scenarios", 64, 1, "adversary-lp"),
    Rung("spanning-tree", 500, "scenarios", 64, 1, "adversary-lp"),
    Rung("spanning-tree", 200, "scenarios", 64, 1, "randomized"),
    Rung("k-selection", 150, "interval", 0, 1, "double-oracle"),
    Rung("k-selection", 200, "interval", 0, 3, "double-oracle"),
    Rung("k-selection", 200, "interval", 0, 1, "double-oracle"),
    Rung("k-selection", 200, "interval", 0, 2, "double-oracle"),
)

TIERS = {"tiny": RUNGS, "full": FULL_RUNGS}

COUNTS = ("solves", "dual_pivots", "primal_pivots", "refreshes")

LAYERS = ("kernel", "refresh", "lp_rest", "responses", "grow")


@contextlib.contextmanager
def lp_counts():
    """Sums of every ``WarmLP`` solve's counts while open, the largest LP
    solved, and the seconds of each layer; the one seam through which they
    are read.  Its wrappers are taken out again on exit."""
    from minregret import lp
    from minregret.lp import WarmLP, _kernel
    from minregret.solvers import _RestrictedGame

    totals = dict.fromkeys(COUNTS, 0)
    totals["lifts"] = 0
    totals["largest_lp"] = [0, 0]
    seconds = dict.fromkeys(LAYERS, 0.0)
    totals["layers"] = seconds

    def timed(layer, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - start

        return wrapper

    solve = timed("lp_rest", WarmLP._solve)  # solve and _reprice both run it

    def counted(warm, *args):
        sol = solve(warm, *args)
        totals["solves"] += 1
        totals["dual_pivots"] += sol.dual_pivots
        totals["primal_pivots"] += sol.primal_pivots
        totals["refreshes"] += sol.refreshes
        if np.prod(warm.shape) > np.prod(totals["largest_lp"]):
            totals["largest_lp"] = list(warm.shape)
        return sol

    kernel = timed("kernel", _kernel.run_simplex)

    def lifting(*args, **kwargs):
        result = kernel(*args, **kwargs)
        totals["lifts"] += result[0] == _kernel.STATUS_LIFTED
        return result

    seams = [
        (WarmLP, "_solve", counted),
        (_kernel, "run_simplex", lifting),
        (lp, "_refresh", timed("refresh", lp._refresh)),
        (_RestrictedGame, "responses", timed("responses", _RestrictedGame.responses)),
        (_RestrictedGame, "grow", timed("grow", _RestrictedGame.grow)),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in seams]
    for owner, name, wrapper in seams:
        setattr(owner, name, wrapper)
    try:
        yield totals
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
        # the kernel and the refresh run inside WarmLP._solve
        seconds["lp_rest"] -= seconds["kernel"] + seconds["refresh"]
        for layer in LAYERS:
            seconds[layer] = round(seconds[layer], 4)


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
        else:  # the adversary LP is the loop solve_adversary_lp_discrete runs
            every_scenario = rung.solver == "adversary-lp"
            game = _double_oracle(instance, TOL, MAX_CUTS, oracle, every_scenario=every_scenario)
        seconds = time.perf_counter() - start
    return {
        "rung": rung.name, **rung._asdict(), **totals,
        "iterations": game.iterations, "value": game.value,
        "certified_gap": game.certified_gap, "seconds": round(seconds, 4),
    }


def run_rungs(rungs=RUNGS) -> list[dict]:
    return [run_rung(rung) for rung in rungs]


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
    parser.add_argument("--tier", choices=TIERS, default="tiny", help="rungs to run")
    parser.add_argument(
        "--out", type=Path, help="output file (default: BENCH_counts_<rev>_<tier>.json)"
    )
    args = parser.parse_args(argv)
    rev = revision()
    rungs = run_rungs(TIERS[args.tier])
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    report = {
        "revision": rev, "tier": args.tier, "numpy": np.__version__, "threads": threads,
        "rungs": rungs,
    }
    out = args.out or ROOT / f"BENCH_counts_{rev}_{args.tier}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for r in rungs:
        print(
            f"{r['rung']:52s} solves {r['solves']:4d} pivots {r['dual_pivots']:5d} + "
            f"{r['primal_pivots']:5d} refreshes {r['refreshes']:3d} lifts {r['lifts']:3d} "
            f"iterations {r['iterations']:3d} LP {r['largest_lp'][0]}x{r['largest_lp'][1]} "
            f"{r['seconds']:.3f}s"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

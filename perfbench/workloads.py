"""Benchmark workloads: generated inputs, the solver call per case, answer checks.

A *case* is one instance (or one marginal vector) passed to one public solver
entry point.  Each workload is a ladder of cases of two kinds:

* pinned cases keep fixed instance seeds whatever the workload seed is.  They
  hold the large rungs and every failure known at the time the ladder was
  written, so those failures stay visible until a solver change fixes them;
* sampled cases draw their instance seeds (and marginals) from the workload
  seed, so different seeds give different inputs.  They are kept few and
  small, so that runs with different seeds stay comparable.

Every answer a solver returns is checked here against a certificate computed
outside the solver (best-response brackets, LP-duality agreement,
reconstruction residuals, separating certificates, regret re-evaluation).  A
failed check is a ``wrong`` outcome; it never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from minregret import (
    IterationLimitError,
    MarginalVector,
    NotInHullError,
    SolverError,
    build_oracle,
    describe_instance,
    generate_instance,
    marginal_of_strategy,
    max_expected_regret,
    max_regret_det,
    player_best_response,
)
from minregret import decompose, solvers

CHECK_TOL = 1e-6
SUCCESS = ("ok", "not-in-hull-correct")
CAUSES = (
    "ok",
    "not-in-hull-correct",
    "breakdown",
    "stall",
    "iteration-limit",
    "reconstruction",
    "timeout",
    "wrong",
    "error",
)


class CaseTimeout(Exception):
    """Raised from the CPU-time alarm when a case exceeds its cap."""


@dataclass(frozen=True)
class Rung:
    """One instance shape of a ladder; ``seeds`` pins instance seeds."""

    family: str
    n: int
    uncertainty: str = "interval"
    scenarios: int = 2
    count: int = 1
    seeds: tuple[int, ...] = ()
    sets: int = 0  # decompose: feasible sets mixed into each marginal
    hull: tuple[bool, ...] = (True, False)  # decompose: marginals in / out of the hull


@dataclass(frozen=True)
class Workload:
    name: str
    solvers: tuple[str, ...]  # solver keys run on every instance, in order
    cap_s: float  # per-case CPU-time cap; failures are charged this
    pinned: tuple[Rung, ...]
    sampled: tuple[Rung, ...]
    tiny: tuple[Rung, ...]


@dataclass
class Case:
    id: str
    solver: str
    instance: object
    oracle: object
    pinned: bool
    inst_seed: int
    marginal: np.ndarray | None = None
    in_hull: bool | None = None
    partner: str | None = None  # case whose answer this one is cross-checked with
    meta: dict = field(default_factory=dict)


KS, ST, DAG = "k-selection", "spanning-tree", "dag-path"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="do-interval",
            solvers=("randomized",),
            cap_s=3.0,
            pinned=(
                Rung(KS, 20, seeds=(1, 2)),
                Rung(KS, 30, seeds=(1, 2)),
                Rung(KS, 40, seeds=(1, 2, 3)),
                Rung(KS, 50, seeds=(1, 3)),
                Rung(KS, 60, seeds=(1, 3)),
                Rung(KS, 80, seeds=(1, 2)),
                Rung(KS, 100, seeds=(2, 3)),
                Rung(ST, 30, seeds=(1, 2)),
                Rung(ST, 45, seeds=(1, 2, 3)),
                Rung(ST, 60, seeds=(1, 3)),
                Rung(DAG, 60, seeds=(1,)),
            ),
            # Sampled cases are tiny, so the seed cannot move a percentile.
            sampled=(Rung(DAG, 30), Rung(DAG, 60), Rung(DAG, 90)),
            tiny=(Rung(KS, 10, count=2), Rung(ST, 10), Rung(DAG, 10)),
        ),
        Workload(
            name="scenario-pair",
            solvers=("randomized", "adversary"),
            cap_s=3.0,
            pinned=(
                Rung(KS, 40, "scenarios", 8, seeds=(1, 2)),
                Rung(KS, 70, "scenarios", 8, seeds=(1, 2)),
                Rung(KS, 100, "scenarios", 8, seeds=(1,)),
                Rung(ST, 40, "scenarios", 8, seeds=(1, 2)),
                Rung(ST, 40, "scenarios", 16, seeds=(1,)),
                Rung(ST, 70, "scenarios", 8, seeds=(1,)),
                Rung(ST, 100, "scenarios", 12, seeds=(1,)),
                Rung(DAG, 40, "scenarios", 16, seeds=(1,)),
                Rung(DAG, 70, "scenarios", 12, seeds=(1,)),
                Rung(DAG, 100, "scenarios", 8, seeds=(1,)),
                Rung(DAG, 100, "scenarios", 16, seeds=(1,)),
            ),
            sampled=(Rung(KS, 40, "scenarios", 8), Rung(ST, 70, "scenarios", 8)),
            tiny=(Rung(KS, 10, "scenarios", 3), Rung(DAG, 10, "scenarios", 3)),
        ),
        Workload(
            name="decompose",
            solvers=("decompose",),
            cap_s=1.5,
            pinned=(
                Rung(KS, 20, seeds=(1, 2), sets=4),
                Rung(KS, 30, seeds=(1, 2), sets=6),
                Rung(ST, 20, seeds=(1, 2), sets=4),
                Rung(ST, 30, seeds=(1, 2), sets=6),
                Rung(DAG, 20, seeds=(1, 2), sets=4),
                Rung(DAG, 30, seeds=(1, 2), sets=6),
                Rung(DAG, 40, seeds=(1,), sets=6),
                # Far beyond the cap at the seed; the in-hull half is enough
                # to keep them visible.
                Rung(ST, 80, seeds=(1,), sets=6, hull=(True,)),
                Rung(KS, 120, seeds=(1,), sets=6, hull=(True,)),
                Rung(ST, 120, seeds=(1,), sets=6, hull=(True,)),
            ),
            sampled=(Rung(KS, 30, sets=6), Rung(DAG, 30, sets=6)),
            tiny=(Rung(KS, 8, sets=3), Rung(DAG, 8, sets=3)),
        ),
        Workload(
            name="enumerate",
            solvers=("deterministic",),
            cap_s=4.0,
            pinned=(
                Rung(KS, 15, "scenarios", 4, seeds=(1, 2, 3)),
                Rung(KS, 16, seeds=(1,)),
                Rung(KS, 16, "scenarios", 4, seeds=(1, 2, 3, 4)),
                Rung(KS, 17, "scenarios", 4, seeds=(1,)),
                Rung(ST, 18, seeds=(1,)),
                Rung(ST, 18, "scenarios", 4, seeds=(1, 2, 3)),
                Rung(DAG, 100, seeds=(1,)),
                Rung(DAG, 100, "scenarios", 4, seeds=(1, 2, 3, 4, 5)),
                Rung(DAG, 120, "scenarios", 4, seeds=(1, 2)),
            ),
            sampled=(Rung(KS, 15, "scenarios", 4), Rung(DAG, 100, "scenarios", 4)),
            tiny=(Rung(KS, 8), Rung(ST, 8, "scenarios", 3)),
        ),
    )
}

# Approximations run on every third enumerated instance: they take well under
# a millisecond, and keeping them a minority keeps the median and tail
# percentiles on the enumeration cases.
APPROX_EVERY = 3


def _rungs_with_seeds(workload: Workload, seed: int, tiny: bool):
    """Yield ``(rung, instance_seed, pinned)`` for every instance of a ladder."""
    if tiny:
        plan = [(r, False) for r in workload.tiny]
    else:
        plan = [(r, True) for r in workload.pinned] + [(r, False) for r in workload.sampled]
    sampled_index = 0
    for rung, pinned in plan:
        if pinned:
            for s in rung.seeds:
                yield rung, s, True
        else:
            for _ in range(rung.count):
                # Sampled instance seeds are derived from the workload seed.
                yield rung, 1000 * seed + sampled_index, False
                sampled_index += 1


def random_marginal(oracle, n: int, sets: int, rng: np.random.Generator) -> np.ndarray:
    """Convex combination of ``sets`` feasible sets found at random costs."""
    X = np.stack([oracle.solve(rng.random(n))[0].indicator for _ in range(sets)])
    w = rng.random(sets)
    return (w / w.sum()) @ X.astype(float)


def shift_out_of_hull(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move one coordinate by 0.1, staying inside [0, 1].

    Every family here has a hull that fixes a linear functional touching each
    item (set size for k-selection and spanning trees, unit flow for DAG
    paths), so a single-coordinate shift always leaves the hull.
    """
    q = p.copy()
    e = int(rng.integers(len(q)))
    q[e] += 0.1 if q[e] <= 0.5 else -0.1
    return q


def build_cases(
    workload: Workload, seed: int, tiny: bool = False, timings: dict | None = None
) -> list[Case]:
    """All cases of a workload for one workload seed; deterministic.

    ``timings["gen"]``, when given, accumulates the time spent generating and
    validating instances.
    """
    cases: list[Case] = []
    for index, (rung, inst_seed, pinned) in enumerate(_rungs_with_seeds(workload, seed, tiny)):
        start = time.perf_counter()
        instance = generate_instance(
            rung.family,
            n=rung.n,
            uncertainty=rung.uncertainty,
            n_scenarios=rung.scenarios,
            seed=inst_seed,
        )
        if timings is not None:
            timings["gen"] += time.perf_counter() - start
        oracle = build_oracle(instance)
        tag = (
            f"{rung.family}/{rung.uncertainty[:4]}"
            + (f"{rung.scenarios}" if rung.uncertainty == "scenarios" else "")
            + f"/n{rung.n}/{'s' if pinned else 'r'}{inst_seed}"
        )
        meta = {
            "family": rung.family,
            "n": rung.n,
            "uncertainty": rung.uncertainty,
            "scenarios": rung.scenarios if rung.uncertainty == "scenarios" else None,
        }
        if workload.name == "decompose":
            rng = np.random.default_rng([int(inst_seed), index])
            p = random_marginal(oracle, rung.n, rung.sets, rng)
            q = shift_out_of_hull(p, rng)
            for in_hull, marginal in ((True, p), (False, q)):
                if in_hull not in rung.hull:
                    continue
                cases.append(
                    Case(
                        f"{tag}/{'in' if in_hull else 'out'}",
                        "decompose",
                        instance,
                        oracle,
                        pinned,
                        inst_seed,
                        marginal=marginal,
                        in_hull=in_hull,
                        meta=dict(meta, sets=rung.sets),
                    )
                )
            continue
        previous = None
        names = list(workload.solvers)
        if workload.name == "enumerate" and index % APPROX_EVERY == 0:
            names.append("midpoint" if rung.uncertainty == "interval" else "mean-cost")
        for name in names:
            case_id = f"{tag}/{name}"
            cases.append(
                Case(case_id, name, instance, oracle, pinned, inst_seed, partner=previous, meta=meta)
            )
            previous = case_id
    return cases


def inputs_digest(cases: list[Case]) -> str:
    """SHA-256 over every generated input, to show a seed reproduces them."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.id.encode())
        h.update(json.dumps(describe_instance(case.instance), sort_keys=True).encode())
        if case.marginal is not None:
            h.update(np.ascontiguousarray(case.marginal, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Solver calls.  Module attributes are looked up at call time, so the traced
# run sees the same entry points the untraced run calls.
# ---------------------------------------------------------------------------

SOLVER_SPANS = {
    "randomized": "solvers.solve_randomized",
    "adversary": "solvers.solve_adversary_lp_discrete",
    "deterministic": "solvers.solve_deterministic_exact",
    "midpoint": "solvers.approx_midpoint",
    "mean-cost": "solvers.approx_mean_cost",
    "decompose": "decompose.decompose_marginal",
}


def call_solver(case: Case):
    if case.solver == "randomized":
        return solvers.solve_randomized(case.instance, oracle=case.oracle)
    if case.solver == "adversary":
        return solvers.solve_adversary_lp_discrete(case.instance, oracle=case.oracle)
    if case.solver == "deterministic":
        return solvers.solve_deterministic_exact(case.instance, oracle=case.oracle)
    if case.solver == "midpoint":
        return solvers.approx_midpoint(case.instance, oracle=case.oracle)
    if case.solver == "mean-cost":
        return solvers.approx_mean_cost(case.instance, oracle=case.oracle)
    if case.solver == "decompose":
        return decompose.decompose_marginal(MarginalVector(case.marginal), case.oracle)
    raise ValueError(f"unknown solver {case.solver!r}")


def answer_value(case: Case, answer) -> float | None:
    """The scalar a partner case is cross-checked against."""
    if answer is None or case.solver == "decompose":
        return None
    if case.solver == "randomized":
        return float(answer.value)
    return float(answer[1])


def answer_support(case: Case, answer) -> int | None:
    """Final player support size, for the useful-over-generated ratios."""
    if answer is None:
        return None
    if case.solver == "randomized":
        return answer.player.support_size
    if case.solver == "adversary":
        return answer[2].support_size
    if case.solver == "decompose":
        return answer.support_size
    return None


# ---------------------------------------------------------------------------
# Answer checks.  Each returns ``None`` when the answer holds, else a reason.
# ---------------------------------------------------------------------------


def _bracket(lo: float, value: float, hi: float, what: str) -> str | None:
    if not (lo - CHECK_TOL <= value <= hi + CHECK_TOL) or hi - lo > CHECK_TOL:
        return f"{what} not bracketed: best responses give [{lo:.9g}, {hi:.9g}], value {value:.9g}"
    return None


def _all_feasible(oracle, support) -> str | None:
    if not all(oracle.is_feasible(T) for T in support):
        return "a support set is infeasible"
    return None


def check_game(instance, oracle, sol) -> str | None:
    """Double oracle: both best responses bracket the returned value."""
    problem = _all_feasible(oracle, sol.player.support)
    if problem:
        return problem
    if np.max(np.abs(marginal_of_strategy(sol.player).p - sol.marginal.p)) > CHECK_TOL:
        return "returned marginal differs from the player strategy's marginal"
    hi = max_expected_regret(sol.marginal, instance, oracle).value
    lo = player_best_response(sol.adversary, instance, oracle).value
    return _bracket(lo, sol.value, hi, "game value")


def check_adversary(instance, oracle, answer) -> str | None:
    """Adversary LP: its mix and its row duals bracket the returned value."""
    adversary, value, player = answer
    problem = _all_feasible(oracle, player.support)
    if problem:
        return problem
    hi = max_expected_regret(marginal_of_strategy(player), instance, oracle).value
    lo = player_best_response(adversary, instance, oracle).value
    return _bracket(lo, value, hi, "adversary value")


def check_pair(value: float, partner_value: float) -> str | None:
    """Strong duality: adversary LP and double oracle reach the same value."""
    if abs(value - partner_value) > CHECK_TOL:
        return f"adversary LP value {value:.9g} differs from double oracle {partner_value:.9g}"
    return None


def check_decomposition(p: np.ndarray, oracle, strategy) -> str | None:
    """In-hull marginal: the strategy reproduces p with at most n+1 sets."""
    residual = float(np.max(np.abs(marginal_of_strategy(strategy).p - p)))
    if residual > CHECK_TOL:
        return f"reconstruction residual {residual:.3g}"
    if strategy.support_size > len(p) + 1:
        return f"support {strategy.support_size} exceeds n+1"
    return _all_feasible(oracle, strategy.support)


def check_certificate(p: np.ndarray, oracle, u: np.ndarray, w: float) -> str | None:
    """Out-of-hull marginal: w - u(T) <= 0 for every feasible T, w - p.u > 0."""
    _, lowest = oracle.solve(u)
    if lowest < w - CHECK_TOL:
        return f"certificate cuts off a feasible set: min u(T) {lowest:.9g} < w {w:.9g}"
    if not w - float(p @ u) > 0.0:
        return f"certificate does not separate p: w - p.u = {w - float(p @ u):.3g}"
    return None


def check_deterministic(instance, oracle, answer) -> str | None:
    T, value = answer
    if not oracle.is_feasible(T):
        return "returned set is infeasible"
    actual = max_regret_det(T, instance, oracle)
    if abs(actual - value) > CHECK_TOL:
        return f"returned value {value:.9g} differs from the set's max regret {actual:.9g}"
    return None


def check_approximation(instance, oracle, kind: str, answer, optimum: float | None) -> str | None:
    """Approximation: true regret of its set, at least the optimum, within its factor."""
    problem = check_deterministic(instance, oracle, answer)
    if problem or optimum is None:
        return problem
    value = answer[1]
    factor = 2.0 if kind == "midpoint" else float(instance.uncertainty.k)
    if value < optimum - CHECK_TOL:
        return f"{kind} value {value:.9g} is below the deterministic optimum {optimum:.9g}"
    if value > factor * optimum + CHECK_TOL:
        return f"{kind} value {value:.9g} exceeds {factor:g} x the optimum {optimum:.9g}"
    return None


def classify(case: Case, answer, error: BaseException | None, partner_value) -> tuple[str, str]:
    """Typed outcome and detail for one finished case."""
    if isinstance(error, CaseTimeout):
        return "timeout", "CPU-time cap reached"
    if isinstance(error, NotInHullError):
        if case.in_hull is not False:
            return "wrong", f"in-hull marginal rejected: {error}"
        problem = check_certificate(case.marginal, case.oracle, np.asarray(error.u), float(error.w))
        return ("wrong", problem) if problem else ("not-in-hull-correct", str(error))
    if isinstance(error, IterationLimitError):
        return "iteration-limit", str(error)
    if isinstance(error, SolverError):
        text = str(error)
        if "stalled" in text:
            return "stall", text
        if "reconstruction" in text:
            return "reconstruction", text
        if "status breakdown" in text:
            return "breakdown", text
        return "error", text
    if error is not None:
        return "error", f"{type(error).__name__}: {error}"

    instance, oracle = case.instance, case.oracle
    if case.solver == "randomized":
        problem = check_game(instance, oracle, answer)
    elif case.solver == "adversary":
        problem = check_adversary(instance, oracle, answer)
        if problem is None and partner_value is not None:
            problem = check_pair(answer[1], partner_value)
    elif case.solver == "decompose":
        if case.in_hull is False:
            problem = "out-of-hull marginal was decomposed"
        else:
            problem = check_decomposition(case.marginal, oracle, answer)
    elif case.solver == "deterministic":
        problem = check_deterministic(instance, oracle, answer)
    else:
        problem = check_approximation(instance, oracle, case.solver, answer, partner_value)
    return ("wrong", problem) if problem else ("ok", "")

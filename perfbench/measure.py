"""Measurement: set-up, the sampling loop, and the metrics of one run.

Imported by ``run.py`` once ``src`` is on the path; see its docstring for
how a run is laid out.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

from minregret import MinregretError

import workloads as W
from tracing import COUNTS, TIMES, Tracer, case_layers

SETUP_REPEATS = 5
MAX_SAMPLES = 25  # per case
TAIL_BEYOND = 10  # the tail percentile keeps at least this many cases beyond it

# The end-to-end metrics BENCHMARK.json gates on.
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
# Printed and recorded with them but not gated: a single order statistic
# follows the machine's minutes-long slow phases (runs 1.2-1.8x slower) far
# more than the sum does, and spread beyond any allowed bound between runs.
UNGATED_UNITS = {"case_p50_s": "s", "case_tail_s": "s", "fail_frac": "ratio"}


# ---------------------------------------------------------------------------
# Running cases
# ---------------------------------------------------------------------------


class Alarm:
    """CPU-time alarm (``ITIMER_PROF``) that raises only while a case is armed."""

    armed = False

    @classmethod
    def install(cls) -> None:
        signal.signal(signal.SIGPROF, cls.handler)

    @classmethod
    def handler(cls, signum, frame):
        if cls.armed:
            cls.armed = False
            raise W.CaseTimeout()


@dataclass
class Record:
    case: object
    outcome: str | None = None
    detail: str = ""
    walls: list = field(default_factory=list)  # untraced wall time per sample
    traced: list = field(default_factory=list)  # per-layer dict per traced sample
    spans: list | None = None  # spans of the last traced sample
    value: float | None = None
    support: int | None = None
    flaky: bool = False
    spent: float = 0.0  # measured seconds over all samples

    @property
    def failed(self) -> bool:
        return self.outcome not in W.SUCCESS


def run_case(record: Record, cap_s: float, by_id: dict, tracer=None) -> None:
    """Run one case once, time it, check its answer and update its record."""
    case = record.case
    if tracer is not None:
        tracer.begin_case(W.SOLVER_SPANS[case.solver])
    answer = error = None
    Alarm.armed = True
    signal.setitimer(signal.ITIMER_PROF, cap_s)
    start = time.perf_counter()
    try:
        answer = W.call_solver(case)
        Alarm.armed = False
    except Exception as exc:  # solver failures and the cap: classified below
        Alarm.armed = False
        error = exc
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_PROF, 0)
    spans = tracer.end_case() if tracer is not None else None
    record.spent += wall

    partner = by_id.get(case.partner) if case.partner else None
    outcome, detail = W.classify(case, answer, error, partner.value if partner else None)
    if record.outcome is not None and outcome != record.outcome:
        record.flaky = True
        detail = f"outcome changed from {record.outcome} between samples: {detail}"
    record.outcome, record.detail = outcome, detail
    record.value = W.answer_value(case, answer)
    record.support = W.answer_support(case, answer)
    if tracer is None:
        record.walls.append(wall)
    else:
        record.traced.append(case_layers(spans))
        record.spans = spans


def setup(workload, seed: int, tiny: bool, import_s: float):
    """Generate inputs and warm up, several times; import plus the fastest."""
    totals, gens, cases = [], [], None
    for _ in range(SETUP_REPEATS):
        timings = {"gen": 0.0}
        start = time.perf_counter()
        cases = W.build_cases(workload, seed, tiny, timings=timings)
        for warm in W.build_cases(workload, 0, tiny=True):
            try:
                W.call_solver(warm)
            except MinregretError:  # the out-of-hull marginals raise by design
                pass
        totals.append(time.perf_counter() - start)
        gens.append(timings["gen"])
    return cases, import_s + min(totals), min(gens)


def measure(records, workload, seconds: float, traced: bool):
    """Sample cases until ``seconds`` elapse; returns (samples, elapsed, absent).

    Every case runs once first (a traced run does one traced and then one
    untraced sweep).  After that the active case with the least measured time
    so far runs next, so cheap cases collect many samples spread over the
    run.  A case's time is its fastest sample: on a shared machine the noise
    only ever slows a run down, and the minimum of samples spread over the
    run is far steadier than their median.  A failed case never runs again:
    it is charged the cap whatever its time.
    """
    by_id = {r.case.id: r for r in records}
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    samples = 0
    start = time.perf_counter()
    try:
        for sweep_tracer in ((tracer, None) if traced else (None,)):
            for record in records:
                if record.outcome is None or not record.failed:
                    run_case(record, workload.cap_s, by_id, sweep_tracer)
                    samples += 1
        while time.perf_counter() - start < seconds:
            active = [r for r in records if not r.failed and len(r.walls) + len(r.traced) < MAX_SAMPLES]
            if not active:
                break
            record = min(active, key=lambda r: r.spent)
            use = tracer if traced and len(record.traced) < len(record.walls) else None
            run_case(record, workload.cap_s, by_id, use)
            samples += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return samples, time.perf_counter() - start, (tracer.absent if tracer else [])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_index(count: int) -> int:
    """Index into ascending times of the highest percentile with 10 cases beyond."""
    return max(count - TAIL_BEYOND - 1, 0) if count > TAIL_BEYOND else count - 1


def end_to_end(records, cap_s: float, setup_s: float) -> tuple[dict, dict]:
    charged = sorted(
        min(r.walls) if not r.failed else cap_s for r in records
    )
    count = len(charged)
    tail_at = tail_index(count)
    failed = sum(r.failed for r in records)
    metrics = {
        "setup_s": setup_s,
        "solve_s": sum(charged),
        "ok_frac": 1.0 - failed / count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "case_p50_s": statistics.median(charged),
        "case_tail_s": charged[tail_at],
        "fail_frac": failed / count,
        "case_tail_percentile": 100.0 * (tail_at + 1) / count,
        "cases_beyond_tail": count - tail_at - 1,
        "cases": count,
    }
    return metrics, extra


PER_LAYER_UNITS = {
    "lp.solves": "count",
    "lp.pivots": "count",
    "lp.breakdowns": "count",
    "lp.breakdown_frac": "ratio",
    "lp.kernel_s": "s",
    "lp.kernel_calls": "count",
    "lp.kernel_us_per_pivot": "us",
    "lp.kernel_gflop_computed": "GFLOP",
    "lp.kernel_gb_computed": "GB",
    "lp.kernel_gflops_rate": "GFLOP/s",
    "lp.refresh_s": "s",
    "lp.refreshes": "count",
    "lp.self_s": "s",
    "solvers.iterations": "count",
    "solvers.cuts": "count",
    "solvers.game_rows_max": "count",
    "solvers.game_cols_max": "count",
    "solvers.support_ratio": "ratio",
    "solvers.self_s": "s",
    "regret.best_responses": "count",
    "regret.self_s": "s",
    "nominal.solves": "count",
    "nominal.solve_s": "s",
    "nominal.us_per_solve": "us",
    "nominal.sets_enumerated": "count",
    "nominal.enumerate_s": "s",
    "decompose.columns": "count",
    "decompose.support_ratio": "ratio",
    "decompose.self_s": "s",
    "gen.setup_s": "s",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}
ABSENT_WHEN_MISSING = {
    "minregret.lp._kernel.run_simplex": (
        "lp.kernel_s",
        "lp.kernel_calls",
        "lp.kernel_us_per_pivot",
        "lp.kernel_gflop_computed",
        "lp.kernel_gb_computed",
        "lp.kernel_gflops_rate",
    ),
    "minregret.lp._refresh": ("lp.refresh_s", "lp.refreshes"),
}
SELF_TIMES = (
    "lp.kernel_s",
    "lp.refresh_s",
    "lp.self_s",
    "solvers.self_s",
    "regret.self_s",
    "nominal.solve_s",
    "nominal.enumerate_s",
    "decompose.self_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records, gen_s: float, absent: list) -> tuple[dict, dict]:
    """Sum the per-case layer metrics; timed-out cases are left out.

    A case stopped by the cap has done a speed-dependent amount of work, so
    its counts would not repeat; every other outcome is deterministic.
    """
    total = dict.fromkeys(COUNTS + TIMES, 0.0)
    paired = [0.0, 0.0]  # traced and untraced seconds of cases measured both ways
    generated = {"solvers": [0.0, 0.0], "decompose": [0.0, 0.0]}
    unstable = []
    included = 0
    for r in records:
        if r.outcome == "timeout" or not r.traced:
            continue
        included += 1
        last = r.traced[-1]
        if any(p[k] != last[k] for p in r.traced for k in COUNTS):
            unstable.append(r.case.id)
        for key in COUNTS:
            if key.endswith("_max"):
                total[key] = max(total[key], last[key])
            else:
                total[key] += last[key]
        fastest = min(r.traced, key=lambda p: p["case.wall_s"])
        for key in TIMES:
            total[key] += fastest[key]
        if r.walls:
            paired[0] += fastest["case.wall_s"]
            paired[1] += min(r.walls)
        if r.support is not None:
            layer = "decompose" if r.case.solver == "decompose" else "solvers"
            rows = {
                "randomized": last["solvers.game_rows_max"],
                "adversary": last["solvers.cuts"],
                "decompose": last["decompose.columns"],
            }[r.case.solver]
            generated[layer][0] += r.support
            generated[layer][1] += rows

    layer_sum = sum(total[k] for k in SELF_TIMES)
    m = {
        "lp.solves": total["lp.solves"],
        "lp.pivots": total["lp.pivots"],
        "lp.breakdowns": total["lp.breakdowns"],
        "lp.breakdown_frac": _ratio(total["lp.breakdowns"], total["lp.solves"]),
        "lp.kernel_s": total["lp.kernel_s"],
        "lp.kernel_calls": total["lp.kernel_calls"],
        "lp.kernel_us_per_pivot": 1e6 * _ratio(total["lp.kernel_s"], total["lp.kernel_pivots"]),
        "lp.kernel_gflop_computed": total["lp.kernel_flop"] / 1e9,
        "lp.kernel_gb_computed": total["lp.kernel_bytes"] / 1e9,
        "lp.kernel_gflops_rate": _ratio(total["lp.kernel_flop"], total["lp.kernel_s"]) / 1e9,
        "lp.refresh_s": total["lp.refresh_s"],
        "lp.refreshes": total["lp.refreshes"],
        "lp.self_s": total["lp.self_s"],
        "solvers.iterations": total["solvers.iterations"],
        "solvers.cuts": total["solvers.cuts"],
        "solvers.game_rows_max": total["solvers.game_rows_max"],
        "solvers.game_cols_max": total["solvers.game_cols_max"],
        "solvers.support_ratio": _ratio(*generated["solvers"]),
        "solvers.self_s": total["solvers.self_s"],
        "regret.best_responses": total["regret.best_responses"],
        "regret.self_s": total["regret.self_s"],
        "nominal.solves": total["nominal.solves"],
        "nominal.solve_s": total["nominal.solve_s"],
        "nominal.us_per_solve": 1e6 * _ratio(total["nominal.solve_s"], total["nominal.solves"]),
        "nominal.sets_enumerated": total["nominal.sets_enumerated"],
        "nominal.enumerate_s": total["nominal.enumerate_s"],
        "decompose.columns": total["decompose.columns"],
        "decompose.support_ratio": _ratio(*generated["decompose"]),
        "decompose.self_s": total["decompose.self_s"],
        "gen.setup_s": gen_s,
        "trace.solve_s": total["case.wall_s"],
        "trace.untraced_solve_s": paired[1],
        "trace.overhead_frac": _ratio(paired[0], paired[1]) - 1.0,
        "trace.accounted_frac": _ratio(layer_sum, total["case.wall_s"]),
    }
    missing = sorted({name for path in absent for name in ABSENT_WHEN_MISSING.get(path, ())})
    extra = {
        "cases_included": included,
        "overhead_paired_traced_s": paired[0],
        "absent": missing,
        "absent_wrappers": list(absent),
        "counts_unstable_between_samples": unstable,
        "kernel_pivots": total["lp.kernel_pivots"],
    }
    return m, extra

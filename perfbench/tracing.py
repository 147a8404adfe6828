"""Span tracer for the traced benchmark run.

The tracer wraps the solver's layer functions from outside, by replacing the
module attributes and oracle class methods the solver calls through, and
restores them afterwards.  Nothing under ``src/`` is edited.  Each wrapped
call records one span ``[id, parent, name, start, end, info]`` in memory while
a case is running; outside a case (set-up, answer checks) the wrappers only
forward the call.

Private names (``minregret.lp._refresh``, ``minregret.lp._kernel.run_simplex``)
are wrapped only when present, so a solver that drops them reports those
metrics as absent instead of failing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# Computed kernel cost per pivot on an (r x c) tableau: the rank-one update
# multiplies and subtracts every entry, reading and writing each float64 once.
FLOP_PER_ENTRY = 2
BYTES_PER_ENTRY = 16


def _lp_info(args, result):
    return (result.status, result.pivots)


def _kernel_info(args, result):
    rows, cols = args[0].shape
    return (rows, cols, result[1])


def _game_info(args, result):
    return np.shape(args[0])


def _enumerate_info(args, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, info=None, where: str = "") -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.absent.append(where or f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = [len(tracer.spans), stack[-1] if stack else None, name, _clock(), 0.0, None]
            tracer.spans.append(span)
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
                if info is not None:
                    span[5] = info(args, result)
                return result
            finally:
                span[4] = _clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        import minregret.decompose as decompose
        import minregret.lp as lp
        import minregret.nominal as nominal
        import minregret.solvers as solvers

        self._wrap(lp, "solve_lp", "lp.solve_lp", _lp_info)
        self._wrap(lp, "solve_matrix_game", "lp.solve_matrix_game", _game_info)
        self._wrap(lp, "_refresh", "lp.refresh", where="minregret.lp._refresh")
        kernel = getattr(lp, "_kernel", None)
        if kernel is None:
            self.absent.append("minregret.lp._kernel.run_simplex")
        else:
            self._wrap(kernel, "run_simplex", "lp.kernel", _kernel_info,
                       where="minregret.lp._kernel.run_simplex")
        self._wrap(solvers, "solve_lp", "lp.solve_lp", _lp_info)
        self._wrap(solvers, "solve_matrix_game", "lp.solve_matrix_game", _game_info)
        for attr in ("max_expected_regret_interval", "max_expected_regret_discrete"):
            self._wrap(solvers, attr, "regret.best_response")
        self._wrap(decompose, "solve_lp", "lp.solve_lp", _lp_info)
        self._wrap(nominal.NominalOracle, "enumerate_feasible", "nominal.enumerate", _enumerate_info)
        for cls in nominal.NominalOracle.__subclasses__():
            self._wrap(cls, "solve", "nominal.solve")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- one case -----------------------------------------------------------

    def begin_case(self, name: str) -> None:
        """Start recording a case; ``name`` is its root span, the solver entry point."""
        self.spans = []
        self._stack = [0]
        self.spans.append([0, None, name, _clock(), 0.0, None])
        self.recording = True

    def end_case(self) -> list[list]:
        self.recording = False
        self.spans[0][4] = _clock()
        self._stack = []
        return self.spans


COUNTS = (
    "lp.solves",
    "lp.pivots",
    "lp.breakdowns",
    "lp.kernel_calls",
    "lp.kernel_pivots",
    "lp.kernel_flop",
    "lp.kernel_bytes",
    "lp.refreshes",
    "solvers.iterations",
    "solvers.cuts",
    "solvers.game_rows_max",
    "solvers.game_cols_max",
    "regret.best_responses",
    "nominal.solves",
    "nominal.sets_enumerated",
    "decompose.columns",
)
TIMES = (
    "case.wall_s",
    "lp.kernel_s",
    "lp.refresh_s",
    "lp.self_s",
    "solvers.self_s",
    "regret.self_s",
    "nominal.solve_s",
    "nominal.enumerate_s",
    "decompose.self_s",
)


def case_layers(spans: list[list]) -> dict[str, float]:
    """Counts and self times of one case's spans; the root span is the solver call."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[4] - span[3]
    names = {span[0]: span[2] for span in spans}
    out = dict.fromkeys(COUNTS + TIMES, 0.0)
    for sid, parent, name, start, end, info in spans:
        duration = end - start
        own = duration - child_time[sid]
        parent_name = names.get(parent, "")
        if sid == 0:
            out["case.wall_s"] = duration
        if name == "lp.solve_lp":
            out["lp.solves"] += 1
            out["lp.self_s"] += own
            if info is not None:
                out["lp.pivots"] += info[1]
                out["lp.breakdowns"] += info[0] == "breakdown"
            if parent_name == "solvers.solve_adversary_lp_discrete":
                out["solvers.iterations"] += 1
                out["solvers.cuts"] += 1
            elif parent_name == "decompose.decompose_marginal":
                out["decompose.columns"] += 1
        elif name == "lp.solve_matrix_game":
            out["lp.self_s"] += own
            out["solvers.iterations"] += 1
            if info is not None:
                out["solvers.game_rows_max"] = max(out["solvers.game_rows_max"], info[0])
                out["solvers.game_cols_max"] = max(out["solvers.game_cols_max"], info[1])
        elif name == "lp.kernel":
            out["lp.kernel_s"] += duration
            out["lp.kernel_calls"] += 1
            if info is not None:
                rows, cols, used = info
                out["lp.kernel_pivots"] += used
                out["lp.kernel_flop"] += FLOP_PER_ENTRY * rows * cols * used
                out["lp.kernel_bytes"] += BYTES_PER_ENTRY * rows * cols * used
        elif name == "lp.refresh":
            out["lp.refresh_s"] += duration
            out["lp.refreshes"] += 1
        elif name.startswith("solvers."):
            out["solvers.self_s"] += own
        elif name.startswith("regret."):
            out["regret.best_responses"] += 1
            out["regret.self_s"] += own
        elif name == "nominal.solve":
            out["nominal.solves"] += 1
            out["nominal.solve_s"] += own
        elif name == "nominal.enumerate":
            out["nominal.enumerate_s"] += own
            out["nominal.sets_enumerated"] += info or 0
        elif name.startswith("decompose."):
            out["decompose.self_s"] += own
    return out


def spans_to_arrays(per_case: dict[str, list[list]]) -> dict[str, np.ndarray]:
    """Pack the kept spans of every case into flat arrays for ``np.savez``."""
    names: dict[str, int] = {}
    cols = defaultdict(list)
    case_ids = list(per_case)
    for ci, cid in enumerate(case_ids):
        for sid, parent, name, start, end, _ in per_case[cid]:
            cols["case"].append(ci)
            cols["span"].append(sid)
            cols["parent"].append(-1 if parent is None else parent)
            cols["name"].append(names.setdefault(name, len(names)))
            cols["start"].append(start)
            cols["end"].append(end)
    out = {
        "case": np.asarray(cols["case"], dtype=np.int32),
        "span": np.asarray(cols["span"], dtype=np.int32),
        "parent": np.asarray(cols["parent"], dtype=np.int32),
        "name": np.asarray(cols["name"], dtype=np.int16),
        "start": np.asarray(cols["start"], dtype=np.float64),
        "end": np.asarray(cols["end"], dtype=np.float64),
        "names": np.asarray(list(names), dtype=str),
        "case_ids": np.asarray(case_ids, dtype=str),
    }
    return out

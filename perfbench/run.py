"""Solver benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload do-interval --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Workloads: do-interval, scenario-pair, decompose, enumerate (see workloads.py),
or ``all`` to run each in its own process.  One process runs the cases of a
workload one after another (closed loop), sampling cases until ``--seconds``
have elapsed (see ``measure``); a case's time is its fastest sample.  A case
that failed is not run again, since it is charged the per-case cap whatever
its time.  With ``--trace 1`` the run samples every case traced and
untraced, and reports per-layer metrics and the tracing overhead instead of
the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(per-case outcomes, environment stamp, every metric) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to a ``.spans.npz`` file beside it.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("do-interval", "scenario-pair", "decompose", "enumerate")
IMPORT_REPEATS = 3


def _import_package() -> None:
    """Import minregret from this checkout's ``src``; exit 2 when it is missing."""
    if not (SRC / "minregret" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import minregret

    if Path(minregret.__file__).resolve().parent != (SRC / "minregret").resolve():
        print(f"benchmark: imported minregret from {minregret.__file__}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    """Fastest of a few fresh interpreters importing numpy and minregret.

    This process imports them only once, and a single import time is at the
    mercy of whatever else the machine is doing at that moment.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, minregret"
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not queryable."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def stamp() -> dict:
    import numpy as np

    import minregret

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "kernel_backend": minregret.kernel_backend(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_seed, default=1, help="workload seed, >= 0 (default 1)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small cases per workload")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="results directory")
    return parser.parse_args(argv)


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(args) -> int:
    """Run every workload in its own process and print each one's report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    _import_package()
    import measure as M
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    M.Alarm.install()
    cases, setup_s, gen_s = M.setup(workload, args.seed, args.tiny, import_seconds())
    records = [M.Record(c) for c in cases]
    samples, measured_s, absent = M.measure(records, workload, args.seconds, bool(args.trace))

    failed = sum(r.failed for r in records)
    wrong = sum(r.outcome == "wrong" for r in records)
    e2e, e2e_extra = M.end_to_end(records, workload.cap_s, setup_s)
    if args.trace:
        reported, layer_extra = M.per_layer(records, gen_s, absent)
        units = M.PER_LAYER_UNITS
    else:
        reported, units, layer_extra = e2e, M.END_TO_END_UNITS, {}

    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    env = stamp()
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "samples": samples,
        "cap_s": workload.cap_s,
        "inputs_sha256": W.inputs_digest(cases),
        "stamp": env,
        "outcomes": outcomes,
        "end_to_end": e2e,
        "end_to_end_extra": e2e_extra,
        "per_layer": reported if args.trace else None,
        "per_layer_extra": layer_extra or None,
        "cases": [
            {
                "id": r.case.id,
                "solver": r.case.solver,
                "pinned": r.case.pinned,
                "instance_seed": r.case.inst_seed,
                **r.case.meta,
                "in_hull": r.case.in_hull,
                "outcome": r.outcome,
                "detail": r.detail,
                "wall_s": min(r.walls) if r.walls else None,
                "wall_median_s": statistics.median(r.walls) if r.walls else None,
                "charged_s": workload.cap_s if r.failed else (min(r.walls) if r.walls else None),
                "samples": len(r.walls) + len(r.traced),
                "flaky": r.flaky,
                "pivots": r.traced[-1]["lp.pivots"] if r.traced else None,
            }
            for r in records
        ],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        import numpy as np

        from tracing import spans_to_arrays

        kept = {r.case.id: r.spans for r in records if r.spans is not None}
        np.savez_compressed(args.out / f"{stem}.spans.npz", **spans_to_arrays(kept))

    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"cases {len(records)}  samples {samples}  measured {measured_s:.1f} s  cap {workload.cap_s:g} s"
    )
    print("stamp " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("outcomes " + " ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    for r in records:
        if r.failed:
            print(f"  {r.outcome:<16} {r.case.id}  {r.detail[:100]}")
    if layer_extra.get("absent"):
        print("absent (reported as 0): " + " ".join(layer_extra["absent"]))
    for key, value in reported.items():
        print(f"  {key:<28} {_format(value):>14} {units[key]}")
    if not args.trace:
        for key, unit in M.UNGATED_UNITS.items():
            print(f"  {key:<28} {_format(e2e_extra[key]):>14} {unit}  (not gated)")
        print(
            f"  case_tail_s is the p{e2e_extra['case_tail_percentile']:.1f} of "
            f"{e2e_extra['cases']} cases ({e2e_extra['cases_beyond_tail']} beyond)"
        )
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""thinshell benchmark: end-to-end time and memory of three workloads, with
output checks, plus a traced run that times each module's public functions.

    python3 bench/run.py --workload bounds_fft --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory.  ``setup_s`` is the median wall time of several fresh
interpreters that only ``import thinshell.cli``, the set-up every CLI run
pays.  The workload then runs in one fresh interpreter (``child.py``): an
untimed pass on the shipped inputs, checked against the reference outputs,
then as many timed rounds on seeded inputs as fit in the next ``--seconds``.
``wall_s`` is the median round.  With ``--trace 1`` the window is split
between an untraced and a traced interpreter, and the per-layer metrics are
taken from the traced rounds.  Extra detail (environment, throughput,
accuracy, drift, per-step times, the full per-layer table) is printed on
the line before the last; the last stdout line is the result record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
# A run's untimed pass and start-up come on top of its window; past this
# margin it is stuck.
CHILD_MARGIN_S = 120

# Per-layer metrics in the result record: every call count, the computed
# ratios, and self time of the functions that run on all three workloads.
# Self time of every other function is in the detail line.
SELF_TIME_EVERYWHERE = ("hamiltonians.f_values", "hamiltonians.finv_values", "gibbs1d.solve_energy", "cli.main")


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_time(env: dict) -> float:
    """Interpreter start plus ``import thinshell.cli``.  The child reads the
    same monotonic clock when the import is done, so the figure does not
    depend on how promptly its exit is noticed."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import thinshell.cli, time; print(time.perf_counter())"],
                          env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.PIPE, text=True)
    return float(proc.stdout) - start


def _child(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "1" if trace else "0"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + CHILD_MARGIN_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _median_round(record: dict) -> float:
    return statistics.median(r["wall_s"] for r in record["rounds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thinshell benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thinshell" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"{ROOT} is not a thinshell source checkout (need src/thinshell and configs)", file=sys.stderr)
        return 2
    env = _env()
    _import_time(env)  # compiles bytecode once, so every timed import is alike
    setup = [_import_time(env) for _ in range(SETUP_RUNS)]

    if args.trace:
        plain = _child(args.workload, args.seed, args.seconds / 2, False, env)
        traced = _child(args.workload, args.seed, args.seconds / 2, True, env)
        records = [plain, traced]
    else:
        plain = _child(args.workload, args.seed, args.seconds, False, env)
        records = [plain]

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    wall_s = _median_round(plain)
    rounds = plain["rounds"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "environment": {
            **plain["versions"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "THINSHELL_THREADS": os.environ.get("THINSHELL_THREADS"),
        },
        "wall_s": [r["wall_s"] for r in rounds],
        "step_s": {name: statistics.median(r["steps"][name] for r in rounds) for name in rounds[0]["steps"]},
        "setup_s": setup,
        "fail_frac": failed / attempted,
        "failures": [f for r in records for f in r["failures"]],
        "output_reldrift": max(r["output_reldrift"] for r in records),
    }
    if plain["cells"]:
        detail["cells_per_s"] = plain["cells"] / wall_s
    if plain["points"]:
        detail["points_per_s"] = plain["points"] / wall_s
    if "oracle_relerr" in plain:
        detail["fft_oracle_relerr"] = max(r["oracle_relerr"] for r in records)

    if args.trace:
        per_round = traced["per_layer"]
        # times are medians over rounds; counts and ratios depend on the
        # round's inputs, so they come from round 0 and repeat exactly
        layers = {key: statistics.median(r[key] for r in per_round) if key.endswith("_s") else value
                  for key, value in per_round[0].items()}
        overhead = _median_round(traced) - wall_s
        detail.update(per_layer=layers, trace_overhead_s=overhead, bindings=traced["bindings"],
                      missing=traced["missing"])
        metrics = {key: {"value": value, "unit": _unit(key)} for key, value in layers.items()
                   if not key.endswith(".self_s") or key[: -len(".self_s")] in SELF_TIME_EVERYWHERE}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _unit(key: str) -> str:
    if key.endswith(".calls"):
        return "count"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MiB"
    return "fraction"


if __name__ == "__main__":
    raise SystemExit(main())

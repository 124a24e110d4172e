"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``, so the run
pays its own imports and its peak RSS is its own.  The run first passes the
workload once with the shipped inputs (t = 1, sampler seed 1009), untimed:
that pass is checked against the reference outputs, and it lets lazy set-up
and the allocator's first touch of the working set finish before timing.
Then it repeats timed rounds while they fit in ``--seconds``, counted from
the end of the untimed pass; round ``r`` draws fresh inputs from
``(--seed, r)``, so no round repeats another's inputs and a cache that
outlives one call cannot serve a later round, as it could not serve a user
who runs the CLI once.  Within a round the
steps run closed-loop: one CLI or API call at a time, each starting when the
previous one returns.  Only the steps are timed; output checks run after the
clock stops.  The last stdout line is a JSON record.

    python3 bench/child.py --workload bounds_fft --seed 1 --seconds 30 [--trace 1] [--record]

``--record`` rewrites ``bench/reference/`` from this checkout's outputs on
the shipped inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"
REFERENCE = BENCH / "reference"

# Largest relative drift from the reference outputs a step may show.  The
# roadmap lets grid changes move bounds values by 1e-9 and energy matching
# move c by one ulp; a larger drift means the numbers changed.
DRIFT_TOL = 1e-6
# Largest relative error of w_fft against the Gamma(n/p) oracle; the seed
# commit reaches 1.0e-5 (p=4, n=5).
ORACLE_TOL = 1e-4
# An ensembles row fails when a mean sits more than this many standard
# errors from 2t.
SE_TOL = 5.0

BOUNDS_COLUMNS = ["n", "k", "t", "c", "alpha", "kl", "tv", "kl_bound", "tv_from_kl", "df_bound",
                  "C_used", "pass_kl", "pass_tv"]


@dataclass(frozen=True)
class Inputs:
    """Everything a round's inputs fix: one target energy per family, and
    the sampler seeds of the two ensembles runs."""

    t: dict
    ens_seed_exponential: int
    ens_seed_quartic: int


FAMILIES = ("quartic", "power3", "custom", "oracle", "quadratic", "linear_half", "converse", "mixture",
            "ens_exponential", "ens_quartic")


SHIPPED = Inputs({name: 1.0 for name in FAMILIES}, 1009, 1009)


def round_inputs(seed: int, round_: int) -> Inputs:
    """Inputs of timed round ``round_`` of a run with ``seed``."""
    rng = random.Random(f"{seed}/{round_}")
    # t within a factor 1.25 of the shipped value keeps the work per step
    # comparable across rounds while still changing every number written.
    t = {name: math.exp(rng.uniform(math.log(0.8), math.log(1.25))) for name in FAMILIES}
    return Inputs(t, rng.randrange(1, 2**31), rng.randrange(1, 2**31))


@dataclass(frozen=True)
class Step:
    """``produce`` is the timed call; ``check`` turns its result into CSV
    text plus a list of problems (and extra values) after the clock stops."""

    name: str
    produce: Callable[[], object]
    check: Callable[[object], tuple[str, list[str], dict]]


# ---------------------------------------------------------------------------
# checks


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else format(value, ".17g")
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    return "\n".join([",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def _cli(args: list[str]):
    """Call ``thinshell.cli.main`` in process, capturing what it writes."""
    cli = sys.modules["thinshell.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def _check_bounds(cells: int):
    def check(result):
        code, text = result
        problems = [f"exit code {code}"] if code else []
        rows = _rows(text)
        if len(rows) != cells:
            problems.append(f"{len(rows)} rows, expected {cells}")
        for row in rows:
            if row["pass_kl"] != "true" or row["pass_tv"] != "true":
                problems.append(f"bound failed at n={row['n']} k={row['k']} alpha={row['alpha']}")
        return text, problems, {"cells": len(rows)}

    return check


def _check_ensembles(t: float, n_values: int, points: int):
    def check(result):
        code, text = result
        problems = [f"exit code {code}"] if code else []
        rows = _rows(text)
        if len(rows) != n_values:
            problems.append(f"{len(rows)} rows, expected {n_values}")
        for row in rows:
            # E f(X1)+f(X2) = 2t: exactly on the surface by exchangeability,
            # and under the product measure by energy matching
            for mean, se in (("E_micro", "se_micro"), ("E_canon", "se_canon")):
                dev = abs(float(row[mean]) - 2.0 * t)
                if not dev <= SE_TOL * float(row[se]):
                    problems.append(f"n={row['n']}: |{mean} - 2t| = {dev:.3g} > {SE_TOL:g} * {se}")
        return text, problems, {"points": points * len(rows)}

    return check


def _check_converse(result):
    code, text = result
    problems = [f"exit code {code}"] if code else []
    rows = _rows(text)
    if not rows:
        problems.append("no rows")
    for row in rows:
        lower, tv = float(row["lower_bound"]), float(row["tv"])
        if not 0.0 < lower <= tv:
            problems.append(f"n={row['n']}: lower bound {lower:.6g} not in (0, tv={tv:.6g}]")
    return text, problems, {}


def _check_mixture(result):
    code, text = result
    problems = [f"exit code {code}"] if code else []
    rows = _rows(text)
    if len(rows) != 1 or rows[0]["pass"] != "true":
        problems.append("mixture bound failed")
    return text, problems, {}


def drift(text: str, reference: str) -> tuple[float, list[str]]:
    """Largest relative deviation of any numeric CSV value; non-numeric
    cells and the table's shape must match exactly."""
    got, want = list(csv.reader(io.StringIO(text))), list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want) or (got and got[0] != want[0]):
        return math.inf, ["output shape differs from the reference"]
    worst, problems = 0.0, []
    for row_got, row_want in zip(got[1:], want[1:]):
        if len(row_got) != len(row_want):
            return math.inf, ["row length differs from the reference"]
        for a, b in zip(row_got, row_want):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                problems.append(f"{a!r} != reference {b!r}")
                continue
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst, problems


# ---------------------------------------------------------------------------
# workloads


def _custom_sweep(t: float):
    ts = sys.modules["thinshell"]
    # f(x) = x + x^3/3 on x >= 0, no inverse supplied: the bisection path
    model = ts.solve_energy(ts.custom(lambda x: x + x**3 / 3.0), t)
    scan = ts.local_clt_scan(model, [8, 16, 32, 64])
    return [ts.bound_report(ts.make_context(model, n, k), scan.c_hat) for n in (50, 100) for k in (1, 3)]


def _check_custom(reports):
    rows = [[r.n, r.k, r.t, r.c, r.alpha, r.kl, r.tv, r.kl_bound, r.tv_from_kl,
             r.df_bound if r.df_bound is not None else math.nan, r.c_used, r.pass_kl, r.pass_tv]
            for r in reports]
    return _check_bounds(4)((0, _csv(BOUNDS_COLUMNS, rows)))


ORACLE_P = (1.5, 3.0, 4.0)
ORACLE_N = (1, 2, 5, 50, 200)


def _oracle(t: float):
    ts = sys.modules["thinshell"]
    out = []
    for p in ORACLE_P:
        model = ts.solve_energy(ts.power(p), t)
        for n in ORACLE_N:
            out.append((p, n, model.c, ts.w_fft(model, n)))
    return out


def _check_oracle(cases):
    """R_n is Gamma(n/p, rate c) for f = |x|^p; compare where the reference
    is at least 1e-3 of its peak."""
    import numpy as np
    from scipy.stats import gamma

    worst, problems, rows = 0.0, [], []
    for p, n, c, grid in cases:
        s = grid.points()
        inside = s > 0
        ref = gamma.pdf(s[inside], n / p, scale=1.0 / c)
        mask = ref >= 1e-3 * ref.max()
        err = float(np.max(np.abs(grid.values[inside][mask] - ref[mask]) / ref[mask]))
        worst = max(worst, err)
        if not err <= ORACLE_TOL:
            problems.append(f"w_fft(power({p:g}), n={n}) off the Gamma oracle by {err:.3g}")
        rows.append([p, n, c])
    return _csv(["p", "n", "c"], rows), problems, {"oracle_relerr": worst}


def steps(workload: str, inputs: Inputs) -> list[Step]:
    t = inputs.t
    grid3 = ["--n-list", "50,100,200", "--k-list", "1,3,5", "--strict"]
    sweep = ["--n-list", "50,100,200,400,800,1600", "--k-list", "1,3,5,10,20,40",
             "--alpha-list", "0,0.2,-0.2", "--strict"]
    if workload == "bounds_fft":
        return [
            Step("quartic", lambda: _cli(["bounds", "--kind", "quartic_perturbed", "--epsilon", "1",
                                          "--t", repr(t["quartic"])] + grid3), _check_bounds(9)),
            Step("power3", lambda: _cli(["bounds", "--kind", "power", "--p", "3",
                                         "--t", repr(t["power3"])] + grid3), _check_bounds(9)),
            Step("custom", lambda: _custom_sweep(t["custom"]), _check_custom),
            Step("oracle", lambda: _oracle(t["oracle"]), _check_oracle),
        ]
    if workload == "bounds_closed":
        mix_t = f"{0.5 * t['mixture']!r},{t['mixture']!r}"
        return [
            Step("quadratic", lambda: _cli(["bounds", "--kind", "quadratic", "--t", repr(t["quadratic"])]
                                           + sweep), _check_bounds(48)),
            Step("linear_half", lambda: _cli(["bounds", "--kind", "linear_half", "--t", repr(t["linear_half"])]
                                             + sweep), _check_bounds(48)),
            Step("converse", lambda: _cli(["converse", "--config", str(CONFIGS / "converse_quadratic.cfg"),
                                           "--t", repr(t["converse"])]), _check_converse),
            Step("mixture", lambda: _cli(["mixture", "--config", str(CONFIGS / "mixture_quadratic.cfg"),
                                          "--mixture-t-list", mix_t, "--strict"]), _check_mixture),
        ]
    if workload == "ensembles":
        return [
            Step("exponential", lambda: _cli(["ensembles", "--config", str(CONFIGS / "ensembles_exponential.cfg"),
                                              "--t", repr(t["ens_exponential"]),
                                              "--seed", str(inputs.ens_seed_exponential)]),
                 _check_ensembles(t["ens_exponential"], 2, 100_000)),
            Step("quartic", lambda: _cli(["ensembles", "--kind", "quartic_perturbed", "--epsilon", "1",
                                          "--t", repr(t["ens_quartic"]), "--n-list", "20,50",
                                          "--count", "20000", "--canonical-count", "100000",
                                          "--seed", str(inputs.ens_seed_quartic)]),
                 _check_ensembles(t["ens_quartic"], 2, 20_000)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bounds_fft", "bounds_closed", "ensembles")


# ---------------------------------------------------------------------------


def run_round(plan: list[Step]) -> tuple[float, dict, list]:
    """Time the steps one after another; a step that raises counts as
    failed and the round goes on."""
    produced, step_s = [], {}
    start = time.perf_counter()
    for step in plan:
        step_start = time.perf_counter()
        try:
            produced.append((step, step.produce(), None))
        except Exception:
            produced.append((step, None, traceback.format_exc()))
        step_s[step.name] = time.perf_counter() - step_start
    return time.perf_counter() - start, step_s, produced


def check_round(workload: str, produced: list, reference: bool, record: bool) -> tuple[list, dict, list]:
    """Failures, summed extras and (with ``reference``) drifts of a round."""
    failures, extras, drifts = [], {"cells": 0, "points": 0}, []
    for step, result, error in produced:
        if error is not None:
            failures.append(f"{step.name}: raised\n{error}")
            continue
        text, problems, extra = step.check(result)
        for key, value in extra.items():
            extras[key] = extras.get(key, 0) + value if key in ("cells", "points") else value
        ref_path = REFERENCE / workload / f"{step.name}.csv"
        if record:
            ref_path.parent.mkdir(parents=True, exist_ok=True)
            ref_path.write_text(text, encoding="utf-8")
        if reference:
            if ref_path.exists():
                value, mismatches = drift(text, ref_path.read_text(encoding="utf-8"))
            else:
                value, mismatches = math.inf, [f"no reference output {ref_path.name}"]
            drifts.append(value)
            problems = problems + mismatches
            if not value <= DRIFT_TOL:
                problems.append(f"drift {value:.3g} from the reference exceeds {DRIFT_TOL:g}")
        if problems:
            failures.append(f"{step.name}: " + "; ".join(problems))
    return failures, extras, drifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import thinshell
    import thinshell.cli  # noqa: F401

    if not Path(thinshell.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"thinshell imported from {thinshell.__file__}, not from this checkout", file=sys.stderr)
        return 2

    _, _, produced = run_round(steps(args.workload, SHIPPED))
    failures, extras, drifts = check_round(args.workload, produced, reference=True, record=args.record)
    oracle_relerr = [extras["oracle_relerr"]] if "oracle_relerr" in extras else []
    attempted = len(produced)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rounds, per_layer = [], []
    start = time.perf_counter()
    while True:
        plan = steps(args.workload, round_inputs(args.seed, len(rounds)))
        wall_s, step_s, produced = run_round(plan)
        rounds.append({"wall_s": wall_s, "steps": step_s})
        problems, extras, _ = check_round(args.workload, produced, reference=False, record=False)
        failures += [f"round {len(rounds) - 1}, {p}" for p in problems]
        attempted += len(produced)
        if "oracle_relerr" in extras:
            oracle_relerr.append(extras.pop("oracle_relerr"))
        if tracer is not None:
            per_layer.append(tracer.summary())
            tracer.next_round()
        # stop before a round that would end past the measuring window
        if time.perf_counter() - start + wall_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "output_reldrift": max(drifts, default=math.inf),
        **extras,
        **({"oracle_relerr": max(oracle_relerr)} if oracle_relerr else {}),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
        record["per_layer"] = per_layer
        record["bindings"] = sorted(tracer.bindings)
        record["missing"] = tracer.missing
    for failure in failures:
        print(f"step failed: {failure}", file=sys.stderr)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

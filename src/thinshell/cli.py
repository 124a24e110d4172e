"""Batch command-line front-end: config parsing, sweeps, CSV emission.

Configuration is a flat ``key=value`` text file (lists comma-separated)
with every key overridable from the command line; experiments are sweeps,
so the file is the unit of reproducibility.  Floating-point output is
fixed at 17 significant digits so equal configs produce byte-identical
CSVs.  ``--strict`` turns any failed bound check into a nonzero exit for
CI consumption.  Sweep cells, grid builds, the CLT scan, the custom inverse
and the samplers' blocks fan out through ``hamiltonians._fan_out``, on up
to ``THINSHELL_THREADS`` threads; a helper runs its own fan-outs inline.

On glibc, :func:`main` first fixes the allocator's settings
(:func:`_steady_heap`), so that the per-grid temporaries of a sweep reuse
one heap instead of being unmapped and faulted back in on every pass.
Library callers that never run ``main`` keep glibc's defaults.  ``bounds``
reads the CLT constant as ``local_clt_scan(...).c_hat``, the sup-deviation
scan alone; the integrability scan runs only where a report's fields ask for
it (``clt-scan``).
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import types
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import projection, sampler
from .gibbs1d import GibbsModel, GridParams, solve_energy
from .hamiltonians import (
    HALF_LINE,
    _fan_out,
    _pool_size,
    check_class_f,
    f_values,
    linear_half,
    power,
    quadratic,
    quartic_perturbed,
)
from .sumdensity import local_clt_scan, w_exact, w_fft, w_grids

__all__ = ["ExperimentConfig", "main"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "quadratic"
    p: float | None = None
    epsilon: float | None = None
    support: str | None = None
    t: float = 1.0
    n: int | None = None
    n_list: tuple[int, ...] = (50, 100, 200)
    k_list: tuple[int, ...] = (1, 3, 5)
    alpha_list: tuple[float, ...] = (0.0,)
    clt_n_list: tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    c_override: float | None = None
    grid_size: int | None = None
    grid_extent: float | None = None
    count: int = 10_000
    canonical_count: int = 10_000
    delta: float | None = None
    method: str = "scaling"
    testfn: str = "f1+f2"
    eps: float = 1.0
    k_frac: float = 0.5
    mixture_t_list: tuple[float, ...] = (0.5, 1.0)
    mixture_weights: tuple[float, ...] = (0.5, 0.5)
    seed: int = 0
    out: str | None = None
    strict: bool = False

    def converse_k(self, n: int) -> int:
        """The k that ``converse`` pairs with n, a fixed fraction of it."""
        return max(1, round(self.k_frac * n))

    def mixture_pair(self) -> tuple[int, int]:
        """The one (n, k) that ``mixture`` runs: ``n`` (else the first of
        ``n_list``) with the first of ``k_list``."""
        return (self.n if self.n is not None else self.n_list[0]), self.k_list[0]

    def bounds_cells(self) -> list[tuple[int, int, list[float]]]:
        """The ``(n, k, alphas)`` cells that ``bounds`` runs: tilts act on the
        first coordinate, so nonzero alphas pair with k = 1 only; the rows
        of one (n, k) share its context."""
        cells = [(n, k, [a for a in self.alpha_list if a == 0.0 or k == 1]) for n in self.n_list for k in self.k_list]
        return [cell for cell in cells if cell[2]]

    def validate(self, subcommand: str | None = None) -> None:
        """Refuse settings no run could use; ``converse`` pairs each n with
        ``converse_k(n)`` instead of ``k_list``, and ``mixture`` runs one
        pair, so those are the pairs checked."""
        if not self.n_list or not self.k_list:
            raise ConfigError("n_list and k_list must be nonempty")
        if not (self.clt_n_list and all(n >= 1 for n in self.clt_n_list)):
            raise ConfigError(f"clt_n_list must be nonempty, with every n >= 1; got {self.clt_n_list!r}")
        if not 0 < self.k_frac < 1:
            raise ConfigError(f"k_frac must lie strictly between 0 and 1; got {self.k_frac!r}")
        if subcommand == "converse":
            for n in self.n_list:
                k = self.converse_k(n)
                if not 1 <= k < n:
                    raise ConfigError(f"k_frac={self.k_frac!r} gives k={k} at n={n}; need 1 <= k < n")
        elif subcommand == "mixture":
            n, k = self.mixture_pair()
            if not 1 <= k < n:
                raise ConfigError(f"mixture pairs n={n} with k_list[0]={k}; need 1 <= k < n")
        else:
            for n in self.n_list:
                for k in self.k_list:
                    if not 1 <= k < n:
                        raise ConfigError(f"every k must satisfy 1 <= k < n; got k={k}, n={n}")
        if subcommand == "bounds" and not self.bounds_cells():
            raise ConfigError(
                f"alpha_list={self.alpha_list!r} with k_list={self.k_list!r} leaves no bounds cell "
                "(a nonzero alpha pairs with k = 1 only)"
            )
        if len(self.mixture_t_list) != len(self.mixture_weights):
            raise ConfigError("mixture_t_list and mixture_weights differ in length")
        if not all(math.isfinite(t) and t > 0 for t in self.mixture_t_list):
            raise ConfigError(f"mixture_t_list entries must be finite and > 0; got {self.mixture_t_list!r}")
        weights = self.mixture_weights
        if not (all(w >= 0 for w in weights) and abs(math.fsum(weights) - 1.0) <= 1e-12):
            raise ConfigError(f"mixture_weights must be finite, nonnegative and sum to 1; got {weights!r}")
        for name in ("c_override", "delta", "grid_extent", "eps"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0; got {value!r}")
        if self.grid_size is not None and self.grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2; got {self.grid_size!r}")
        for name in ("count", "canonical_count"):
            value = getattr(self, name)
            if value < 2:
                raise ConfigError(f"{name} must be >= 2 (a standard error needs two draws); got {value!r}")
        if not all(math.isfinite(a) for a in self.alpha_list):
            raise ConfigError(f"alpha_list entries must be finite; got {self.alpha_list!r}")
        if self.method not in sampler._METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {list(sampler._METHODS)}")
        if self.testfn not in _TESTFNS:
            raise ConfigError(f"unknown testfn {self.testfn!r}; choose from {sorted(_TESTFNS)}")

    def spec(self):
        if self.kind == "quadratic":
            return quadratic()
        if self.kind == "linear_half":
            return linear_half()
        if self.kind == "power":
            if self.p is None:
                raise ValueError("power specs need key 'p'")
            return power(self.p, support=self.support or HALF_LINE)
        if self.kind == "quartic_perturbed":
            if self.epsilon is None:
                raise ValueError("quartic_perturbed specs need key 'epsilon'")
            return quartic_perturbed(self.epsilon)
        raise ValueError(f"unknown kind {self.kind!r}")

    def grid_params(self) -> GridParams:
        params = GridParams()
        if self.grid_size is not None:
            params = replace(params, sum_size=self.grid_size)
        if self.grid_extent is not None:
            params = replace(params, sd_extent=self.grid_extent)
        return params


def _converter(hint):
    """Text-to-value conversion for one field's type: ``X | None`` converts
    as X, ``tuple[X, ...]`` as a comma-separated list of X, and ``bool``
    as 1/true/yes or 0/false/no, in any case."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return lambda value: tuple(item(v.strip()) for v in value.split(",") if v.strip())
    if hint is bool:
        return _yes_no
    return hint


def _yes_no(value: str) -> bool:
    word = value.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected one of 1/true/yes or 0/false/no")
    return word in ("1", "true", "yes")


_HINTS = typing.get_type_hints(ExperimentConfig)
# one converter per config key, in field order (which is also flag order)
_CONVERTERS = {f.name: _converter(_HINTS[f.name]) for f in fields(ExperimentConfig)}


def _convert(key: str, value: str, where: str):
    try:
        return _CONVERTERS[key](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {value!r} ({exc})") from None


def parse_config_file(path: str) -> dict:
    out = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _convert(key, value, f"{path}:{lineno}")
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _CONVERTERS:
        val = getattr(args, key, None)
        if isinstance(val, str):
            values[key] = _convert(key, val, "command line")
        elif val:  # a store_true flag that was given
            values[key] = True
    cfg = ExperimentConfig(**values)
    cfg.validate(args.subcommand)
    return cfg


# ---------------------------------------------------------------------------
# CSV helpers


def _fmt(value) -> str:
    """CSV text of one value: booleans (Python or NumPy) as true/false,
    floats (Python or NumPy) at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    text = "\n".join([",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _solved(cfg: ExperimentConfig) -> GibbsModel:
    return solve_energy(cfg.spec(), cfg.t)


def _c_hat(cfg: ExperimentConfig, model: GibbsModel) -> float:
    if cfg.c_override is not None:
        return cfg.c_override
    return local_clt_scan(model, cfg.clt_n_list, cfg.grid_params()).c_hat


# ---------------------------------------------------------------------------
# subcommands


def run_analyze_f(cfg: ExperimentConfig) -> int:
    report = check_class_f(cfg.spec())
    spec = cfg.spec()
    print(f"family: {spec.label} (support: {spec.support})")
    print(f"  zero at origin:      {'yes' if report.f0_ok else 'NO'}")
    print(f"  strictly increasing: {'yes' if report.monotone_ok else 'NO'}")
    print(f"  support condition:   {'yes' if report.support_ok else 'NO'}")
    if report.tail_slope:
        a1, a2 = report.tail_slope
        print(f"  tail slope:          f' >= {a1:.6g} beyond {a2:.6g}")
    else:
        print("  tail slope:          NOT bounded away from zero")
    if report.origin_exponent:
        q, a3 = report.origin_exponent
        print(f"  origin exponent:     q = {q:.6g} with margin {a3:.6g}")
    else:
        print("  origin exponent:     NO admissible exponent found")
    print(f"  overall:             {'ADMISSIBLE' if report.overall else 'NOT ADMISSIBLE'}")
    lines = [
        f"f0_ok={_fmt(report.f0_ok)}",
        f"monotone_ok={_fmt(report.monotone_ok)}",
        f"support_ok={_fmt(report.support_ok)}",
        f"tail_a1={_fmt(report.tail_slope[0]) if report.tail_slope else 'none'}",
        f"tail_a2={_fmt(report.tail_slope[1]) if report.tail_slope else 'none'}",
        f"origin_q={_fmt(report.origin_exponent[0]) if report.origin_exponent else 'none'}",
        f"origin_a3={_fmt(report.origin_exponent[1]) if report.origin_exponent else 'none'}",
        f"overall={_fmt(report.overall)}",
    ]
    block = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(block)
    else:
        sys.stdout.write(block)
    return 0 if (report.overall or not cfg.strict) else 1


def run_solve_c(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    write_csv(
        cfg.out,
        ["t", "c", "Z", "mu", "sigma2", "m"],
        [[cfg.t, model.c, model.z, model.mu, model.sigma2, model.m3]],
    )
    return 0


def run_wn(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    n = cfg.n if cfg.n is not None else cfg.n_list[0]
    grid = w_fft(model, n, cfg.grid_params())
    ss = grid.points()
    header = ["s", "w_n", "log_w_n"]
    cols = [ss, grid.values, grid.log_values]
    if model.spec.closed_form:
        exact = w_exact(model, n, cfg.grid_params())
        header += ["w_exact", "log_w_exact"]
        cols += [exact.values, exact.log_values]
    stride = max(1, len(ss) // 4096)
    rows = [[col[i] for col in cols] for i in range(0, len(ss), stride)]
    write_csv(cfg.out, header, rows)
    return 0


def run_clt_scan(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    report = local_clt_scan(model, cfg.clt_n_list, cfg.grid_params())
    # the prerequisites are read before the CSV, so a refused scan writes nothing
    summary = f"C_hat = {_fmt(report.c_hat)} (nu = {_fmt(report.nu)}, I = {_fmt(report.i_value)}, r = {report.r_used})"
    rows = [
        [n, dev, math.sqrt(2.0 * math.pi * n) * dev]
        for n, dev in zip(report.n_list, report.sup_devs)
    ]
    write_csv(cfg.out, ["n", "sup_dev", "sqrt_2pin_sup_dev"], rows)
    print(summary)
    return 0


def run_bounds(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    c_hat = _c_hat(cfg, model)
    params = cfg.grid_params()
    cells = cfg.bounds_cells()
    # the grids several cells share: every w_k, and w_n where it is not exact
    shared = {k for _, k, _ in cells}
    if not model.spec.closed_form:
        shared |= {n for n, _, _ in cells}
    w_grids(model, sorted(shared), params)

    def cell(args):
        n, k, alphas = args
        ctx = projection.make_context(model, n, k, params)
        return [projection.bound_report(ctx, c_hat, alpha=alpha) for alpha in alphas]

    reports = [report for reports in _fan_out(cell, cells) for report in reports]
    rows = [
        [r.n, r.k, r.t, r.c, r.alpha, r.kl, r.tv, r.kl_bound, r.tv_from_kl,
         r.df_bound if r.df_bound is not None else math.nan, r.c_used, r.pass_kl, r.pass_tv]
        for r in reports
    ]
    write_csv(
        cfg.out,
        ["n", "k", "t", "c", "alpha", "kl", "tv", "kl_bound", "tv_from_kl", "df_bound", "C_used", "pass_kl", "pass_tv"],
        rows,
    )
    failed = [r for r in reports if not (r.pass_kl and r.pass_tv)]
    if failed:
        print(f"{len(failed)} of {len(reports)} cells failed their bound", file=sys.stderr)
        if cfg.strict:
            return 1
    return 0


def run_converse(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    params = cfg.grid_params()

    def cell(n):
        k = cfg.converse_k(n)
        ctx = projection.make_context(model, n, k, params)
        tv = projection.tv_to_gibbs(ctx)
        rep = projection.converse_lower_bound(ctx, cfg.eps)
        return [n, k, cfg.eps, rep.lower_bound, tv]

    rows = _fan_out(cell, cfg.n_list)
    write_csv(cfg.out, ["n", "k", "eps", "lower_bound", "tv"], rows)
    return 0


_TESTFNS = {
    "f1": lambda spec: sampler.TestFunction(
        fn=lambda rows: np.sum(f_values(spec, rows[:, :1]), axis=1), k=1, name="f1", growth="energy", m_const=1.0
    ),
    "f1+f2": lambda spec: sampler.TestFunction(
        fn=lambda rows: np.sum(f_values(spec, rows[:, :2]), axis=1), k=2, name="f1+f2", growth="energy", m_const=1.0
    ),
    "const": lambda spec: sampler.TestFunction(
        fn=lambda rows: np.ones(rows.shape[0]), k=1, name="const", growth="constant"
    ),
}


def _shell_width(cfg: ExperimentConfig, model: GibbsModel, n: int) -> float:
    """The rejection shell's half-width ``delta``: the configured one, or
    half a standard deviation of ``R_n / n``."""
    return cfg.delta if cfg.delta is not None else 0.5 * math.sqrt(model.sigma2 / n)


def run_ensembles(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    tf = _TESTFNS[cfg.testfn](model.spec)
    rows = []
    for n in cfg.n_list:
        if model.spec.homogeneous_degree is not None:
            batch = sampler.sample_surface_scaling(model, n, cfg.count, cfg.seed, keep=tf.k)
        else:
            delta = _shell_width(cfg, model, n)
            batch = sampler.sample_surface_rejection(model, n, delta, cfg.count, cfg.seed, keep=tf.k)
        rep = sampler.ensemble_expectation_gap(model, n, tf.k, tf, batch, cfg.canonical_count, cfg.seed + 1)
        rows.append([rep.n, rep.k, rep.testfn, rep.e_micro, rep.e_canon, rep.gap, rep.se_micro, rep.se_canon])
    write_csv(cfg.out, ["n", "k", "testfn", "E_micro", "E_canon", "gap", "se_micro", "se_canon"], rows)
    return 0


def run_sample(cfg: ExperimentConfig) -> int:
    model = _solved(cfg)
    n = cfg.n if cfg.n is not None else cfg.n_list[0]
    if cfg.method == "scaling":
        batch = sampler.sample_surface_scaling(model, n, cfg.count, cfg.seed)
    else:
        batch = sampler.sample_surface_rejection(model, n, _shell_width(cfg, model, n), cfg.count, cfg.seed)
    if cfg.out:
        sampler.save_batch(batch, cfg.out)
        print(f"wrote {batch.count} points to {cfg.out}")
    print(f"acceptance_rate = {_fmt(batch.acceptance_rate)}")
    if batch.count >= 100 and n >= 2:
        ctx = projection.make_context(model, n, 1, cfg.grid_params())
        ref = projection.project_uniform_k1(ctx)
        ks = sampler.empirical_projection_check(batch, ref)
        print(f"ks_vs_reference = {_fmt(ks)}")
    return 0


def run_mixture(cfg: ExperimentConfig) -> int:
    spec = cfg.spec()
    n, k = cfg.mixture_pair()
    entries = [
        (solve_energy(spec, t), t, w) for t, w in zip(cfg.mixture_t_list, cfg.mixture_weights)
    ]
    rep = projection.mixture_bound_check(entries, n, k, cfg.grid_params())
    write_csv(cfg.out, ["n", "k", "tv_sum", "bound", "pass"], [[rep.n, rep.k, rep.tv_sum, rep.bound, rep.passed]])
    if cfg.strict and not rep.passed:
        return 1
    return 0


_SUBCOMMANDS = {
    "analyze-f": run_analyze_f,
    "solve-c": run_solve_c,
    "wn": run_wn,
    "clt-scan": run_clt_scan,
    "bounds": run_bounds,
    "converse": run_converse,
    "ensembles": run_ensembles,
    "sample": run_sample,
    "mixture": run_mixture,
}


# glibc mallopt parameters (<malloc.h>) and the values main sets: one arena
# shared by every thread; heap, not mmap, for blocks up to 4 MiB, above the
# largest per-grid temporary at the default GridParams (the 2^18-node
# y-grid and its rFFT, 2 MiB each); and up to 32 MiB of free heap top kept
# rather than returned to the kernel
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_SETTINGS = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 4 << 20), (_M_TRIM_THRESHOLD, 32 << 20))


def _steady_heap() -> None:
    """Apply ``_HEAP_SETTINGS`` through ``mallopt``; a no-op off glibc.
    Setting the same values again changes nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thinshell", description="Gibbs models, surface projections, bound checks")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        # one flag per config key; --n-list stores to n_list, and so on
        for key in _CONVERTERS:
            flag = "--" + key.replace("_", "-")
            if _HINTS[key] is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag)
    return parser


def main(argv=None) -> int:
    _steady_heap()
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _pool_size(1)  # refuse a bad THINSHELL_THREADS before any work
        return _SUBCOMMANDS[args.subcommand](cfg)
    except (ValueError, RuntimeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

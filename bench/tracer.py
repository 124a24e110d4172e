"""Span tracer for the benchmark's traced run.

It times calls into each thinshell module's public functions from outside:
every named function is replaced by a timing wrapper in every namespace
that bound it (``from .x import y`` copies the binding, so patching only the
defining module would let those calls escape).  Span stacks are
thread-local, and the sweep pool in ``thinshell.cli`` is swapped for one that
hands each task the span that submitted it, so pool cells get the right
parent while self time still only subtracts same-thread children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

# Span names are ``<module>.<function>``; these are the stage names later
# diagnostics reuse.
TARGETS = {
    "hamiltonians": ("check_class_f", "finv_values", "f_values"),
    "gibbs1d": ("solve_energy", "y_density", "clt_prerequisites", "characteristic_function"),
    "sumdensity": ("w_fft", "w_exact", "log_w_exact", "w_density", "local_clt_scan"),
    "grids": ("make_grid", "DensityGrid.integrate"),
    "projection": (
        "make_context",
        "rk_conditional_density",
        "kl_to_gibbs",
        "tv_to_gibbs",
        "bound_report",
        "converse_lower_bound",
        "mixture_bound_check",
    ),
    "sampler": ("sample_surface_scaling", "sample_surface_rejection", "ensemble_expectation_gap"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{qual}" for module, quals in TARGETS.items() for qual in quals)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    self_s: float


class Tracer:
    """Collects spans in memory; ``install`` patches, ``summary`` reduces
    one round, ``next_round`` starts the next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: dict[int, tuple[object, object]] = {}
        self._w_density_keys: set = set()
        self._batches: list[tuple[int, float, int]] = []  # (points, acceptance rate, bytes)
        self._default_params = None  # GridParams(), set by install
        self._round_start = 0  # index of the current round's first span

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1][0] if stack else getattr(self._local, "inherited", None)

    def _wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self.current()
            frame = [next(self._ids), 0.0]  # span id, time covered by same-thread children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    Span(frame[0], name, start, end, threading.get_ident(), parent, end - start - frame[1])
                )
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- computed values -----------------------------------------------------

    def _on_w_density(self, args, kwargs, result) -> None:
        model, n = args[0], args[1]
        params = args[2] if len(args) > 2 else kwargs.get("params")
        key = (model.spec.label, model.c, int(n), params or self._default_params)
        with self._lock:
            self._w_density_keys.add(key)

    def _on_batch(self, args, kwargs, batch) -> None:
        with self._lock:
            self._batches.append((batch.count, batch.acceptance_rate, batch.points.nbytes))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every thinshell namespace; raise if any
        binding of an original is left unwrapped."""
        import thinshell  # loads every submodule

        self._default_params = thinshell.GridParams()
        hooks = {
            "sumdensity.w_density": self._on_w_density,
            "sampler.sample_surface_scaling": self._on_batch,
            "sampler.sample_surface_rejection": self._on_batch,
        }
        for module, quals in TARGETS.items():
            mod = sys.modules[f"thinshell.{module}"]
            for qual in quals:
                *path, attr = qual.split(".")
                owner = mod
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{module}.{qual}")
                    continue
                wrapper = self._wrap(f"{module}.{qual}", fn, hooks.get(f"{module}.{qual}"))
                self._originals[id(fn)] = (fn, wrapper)
                if path:  # a method: the class object is shared by every namespace
                    setattr(owner, attr, wrapper)
                    self.bindings.append(f"thinshell.{module}.{qual}")
        for modname, mod in _thinshell_modules():
            for attr, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self.bindings.append(f"{modname}.{attr}")
        self._patch_pool()
        left = self.unwrapped()
        if left:
            raise RuntimeError(f"bindings left unwrapped: {', '.join(left)}")

    def _patch_pool(self) -> None:
        cli = sys.modules["thinshell.cli"]
        if getattr(cli, "ThreadPoolExecutor", None) is not ThreadPoolExecutor:
            return
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        cli.ThreadPoolExecutor = TracedPool

    def unwrapped(self) -> list[str]:
        """Places in thinshell's namespaces that still reach an original:
        module attributes, members of module-level containers, and default
        arguments of module-level functions."""
        found = []

        def original(value) -> bool:
            entry = self._originals.get(id(value))
            return entry is not None and entry[0] is value

        for modname, mod in _thinshell_modules():
            for attr, value in vars(mod).items():
                where = f"{modname}.{attr}"
                if original(value):
                    found.append(where)
                elif isinstance(value, dict):
                    found += [f"{where}[{k!r}]" for k, v in value.items() if original(v)]
                elif isinstance(value, (list, tuple, set, frozenset)):
                    found += [f"{where}[...]" for v in value if original(v)]
                elif callable(value) and hasattr(value, "__defaults__"):
                    defaults = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
                    found += [f"{where} (default argument)" for v in defaults if original(v)]
        return found

    # -- results -------------------------------------------------------------

    def next_round(self) -> None:
        """Start a new round: ``summary`` covers only what follows."""
        with self._lock:
            self._round_start = len(self.spans)
            self._w_density_keys.clear()
            self._batches.clear()

    def summary(self) -> dict:
        """Per-layer metrics named ``<module>.<function>.<stat>`` of the
        current round."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for span in self.spans[self._round_start:]:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
        calls = out["sumdensity.w_density.calls"]
        # ratios over zero attempts read 1.0: nothing was repeated or rejected
        out["sumdensity.w_density.unique_frac"] = len(self._w_density_keys) / calls if calls else 1.0
        points = sum(count for count, _, _ in self._batches)
        drawn = sum(count / rate for count, rate, _ in self._batches if rate > 0)
        out["sampler.accept_frac"] = points / drawn if drawn else 1.0
        out["sampler.batch_mb"] = sum(nbytes for _, _, nbytes in self._batches) / 2**20
        return out

    def write(self, path) -> None:
        """Span records as JSON lines, written once when the run ends."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def _thinshell_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "thinshell" or name.startswith("thinshell."))]

"""Outside-in tracer: times the calls into each su11 layer from the benchmark.

``Tracer.install`` replaces each target's attribute with a timing wrapper,
in every ``su11`` module namespace that holds the same object (the package
imports names across modules, so patching one namespace would miss calls);
``restore`` puts every original back.  Each call records a span

    (target name, start, end, parent span index, run id)

kept in memory and written out by ``write_spans`` when the run ends.  A
span's self time is its duration minus the durations of its child spans;
calls are nested on one thread, so children never overlap.  Summed over all
spans, self times equal the summed durations of the root spans, so the layer
self times plus the time outside every span (``trace.unattributed_s``) add
up to the traced wall time exactly.

Targets that the package no longer defines (private hot spots that later
changes may delete) are skipped, and the metrics they feed are reported as
absent with the reason instead of failing the run.  Counts are computed from
each call's arguments and result, so they repeat exactly for one seed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Target:
    """``owner`` is a module path, or ``module:Class`` for a method."""

    group: str
    owner: str
    attr: str

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"


SUITES = (
    "su11_membership_suite", "parseval_suite", "frequency_support_suite",
    "spike_equality_suite", "order_sensitivity_suite", "linearization_suite",
    "theorem1_suite", "theorem2_suite",
)

TARGETS = (
    Target("nft_core.product", "su11.nft_core", "product_on_grid_arrays"),
    Target("spectral_norms.refine", "su11.spectral_norms", "_refine"),
    Target("spectral_norms.weight_sampler", "su11.spectral_norms:WeightSampler", "on_grid"),
    Target("spectral_norms.weight_sampler", "su11.spectral_norms:WeightSampler", "logsq_on_grid"),
    Target("inequality_harness.hy_ratio", "su11.inequality_harness", "hy_ratio"),
    Target("inequality_harness.theorem_margin", "su11.inequality_harness", "theorem1_margin"),
    Target("inequality_harness.theorem_margin", "su11.inequality_harness", "theorem2_margin"),
    Target("inequality_harness.ledger", "su11.inequality_harness", "proof_ledger"),
    Target("inequality_harness.ledger", "su11.inequality_harness:_TraceGrids", "level"),
    Target("extremizer_search.walk", "su11.extremizer_search:_WalkEvaluator", "ratio"),
    Target("extremizer_search.walk", "su11.extremizer_search:_WalkEvaluator", "_lhs_on_grid"),
    Target("extremizer_search.local_search", "su11.extremizer_search", "local_search"),
    Target("extremizer_search.multi_start", "su11.extremizer_search", "multi_start"),
    *(Target(f"verification.{s}", "su11.verification", s) for s in SUITES),
    Target("cli.emit_report", "su11.cli", "emit_report"),
    Target("cli.run", "su11.cli", "run"),
)

# Every per-layer metric: (name, unit, better, target keys it needs).
_PRODUCT = ("su11.nft_core.product_on_grid_arrays",)
_REFINE = ("su11.spectral_norms._refine",)
_SAMPLER = ("su11.spectral_norms:WeightSampler.on_grid",
            "su11.spectral_norms:WeightSampler.logsq_on_grid")
_LEDGER = ("su11.inequality_harness.proof_ledger",)
_RATIO = ("su11.extremizer_search:_WalkEvaluator.ratio",)
_LEVEL = ("su11.extremizer_search:_WalkEvaluator._lhs_on_grid",)
_LEVEL_BUILD = ("su11.inequality_harness:_TraceGrids.level",)
METRICS = (
    ("nft_core.product.calls", "count", "lower", _PRODUCT),
    ("nft_core.product.points", "count", "lower", _PRODUCT),
    ("nft_core.product.factor_steps", "count", "lower", _PRODUCT),
    ("nft_core.product.bytes_computed", "B", "lower", _PRODUCT),
    ("nft_core.product.self_s", "s", "lower", _PRODUCT),
    ("nft_core.product.call_us_p50", "us", "lower", _PRODUCT),
    ("nft_core.product.call_us_p90", "us", "lower", _PRODUCT),
    ("spectral_norms.refine.calls", "count", "lower", _REFINE),
    ("spectral_norms.refine.levels", "count", "lower", _REFINE),
    ("spectral_norms.refine.levels_per_call", "frac", "higher", _REFINE),
    ("spectral_norms.refine.max_grid", "count", "lower", _REFINE),
    ("spectral_norms.refine.nonconverged", "count", "lower", _REFINE),
    ("spectral_norms.refine.self_s", "s", "lower", _REFINE),
    ("spectral_norms.refine.call_us_p50", "us", "lower", _REFINE),
    ("spectral_norms.refine.call_us_p90", "us", "lower", _REFINE),
    ("spectral_norms.weight_sampler.builds", "count", "lower", _SAMPLER),
    ("spectral_norms.weight_sampler.hit_ratio", "frac", "higher", _SAMPLER),
    ("spectral_norms.weight_sampler.self_s", "s", "lower", _SAMPLER),
    ("inequality_harness.hy_ratio.calls", "count", "lower", ("su11.inequality_harness.hy_ratio",)),
    ("inequality_harness.hy_ratio.self_s", "s", "lower", ("su11.inequality_harness.hy_ratio",)),
    ("inequality_harness.theorem_margin.calls", "count", "lower",
     ("su11.inequality_harness.theorem1_margin", "su11.inequality_harness.theorem2_margin")),
    ("inequality_harness.theorem_margin.self_s", "s", "lower",
     ("su11.inequality_harness.theorem1_margin", "su11.inequality_harness.theorem2_margin")),
    ("inequality_harness.ledger.calls", "count", "lower", _LEDGER),
    ("inequality_harness.ledger.self_s", "s", "lower", _LEDGER),
    ("inequality_harness.ledger.call_us_p50", "us", "lower", _LEDGER),
    ("inequality_harness.ledger.call_us_p90", "us", "lower", _LEDGER),
    ("inequality_harness.ledger.levels_built", "count", "lower", _LEVEL_BUILD),
    ("extremizer_search.walk.evals", "count", "lower", _RATIO),
    ("extremizer_search.walk.levels", "count", "lower", _LEVEL),
    ("extremizer_search.walk.accept_ratio", "frac", "higher",
     _RATIO + ("su11.extremizer_search.local_search",)),
    ("extremizer_search.walk.self_s", "s", "lower", _RATIO),
    ("extremizer_search.walk.eval_us_p50", "us", "lower", _RATIO),
    ("extremizer_search.walk.eval_us_p90", "us", "lower", _RATIO),
    ("extremizer_search.local_search.calls", "count", "lower", ("su11.extremizer_search.local_search",)),
    ("extremizer_search.local_search.self_s", "s", "lower", ("su11.extremizer_search.local_search",)),
    ("extremizer_search.multi_start.self_s", "s", "lower", ("su11.extremizer_search.multi_start",)),
    *((f"verification.{s}.self_s", "s", "lower", (f"su11.verification.{s}",)) for s in SUITES),
    ("cli.emit_report.calls", "count", "lower", ("su11.cli.emit_report",)),
    ("cli.emit_report.bytes", "B", "lower", ("su11.cli.emit_report",)),
    ("cli.emit_report.self_s", "s", "lower", ("su11.cli.emit_report",)),
    ("cli.run.self_s", "s", "lower", ("su11.cli.run",)),
    ("trace.wall_s", "s", "lower", ()),
    ("trace.untraced_wall_s", "s", "lower", ()),
    ("trace.overhead_frac", "frac", "lower", ()),
    ("trace.unattributed_s", "s", "lower", ()),
)

SELF_GROUPS = tuple(m[0][: -len(".self_s")] for m in METRICS if m[0].endswith(".self_s"))

# complex128 traffic of the product recurrence per grid point: a and b are
# initialised, then per nonzero factor the phase array is written and a, b
# and the phase read and a, b written; plus one read of the float64 t grid.
_C128 = 16


def product_bytes(points: int, factors: int) -> int:
    """Computed (not measured) bytes moved by one product call."""
    return points * (8 + _C128 * (2 + 6 * factors))


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for the calls into every target while installed."""

    def __init__(self):
        self.group_of = {t.key: t.group for t in TARGETS}
        self.spans: list[tuple] = []
        self.run_id = ""
        self.absent: dict[str, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._walk_best: dict[int, float] = {}
        self._hooks = {
            "su11.nft_core.product_on_grid_arrays": (None, self._after_product),
            "su11.spectral_norms._refine": (None, self._after_refine),
            "su11.spectral_norms:WeightSampler.on_grid": (self._before_on_grid, None),
            "su11.spectral_norms:WeightSampler.logsq_on_grid": (self._before_logsq, None),
            "su11.inequality_harness:_TraceGrids.level": (self._before_level, None),
            "su11.extremizer_search:_WalkEvaluator.ratio": (None, self._after_ratio),
            "su11.cli.emit_report": (None, self._after_emit),
        }

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every present target; record absent ones with the reason."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "su11" or name.startswith("su11."))]
        for target in TARGETS:
            try:
                owner = _resolve(target.owner)
            except (ImportError, AttributeError) as exc:
                self.absent[target.key] = f"{target.owner} not found: {exc}"
                continue
            original = vars(owner).get(target.attr)
            if not callable(original):
                self.absent[target.key] = f"{target.owner} defines no {target.attr}"
                continue
            before, after = self._hooks.get(target.key, (None, None))
            wrapper = self._wrap(target.key, original, before, after)
            if isinstance(owner, type):
                self._patch(owner, target.attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, obj, name, original, wrapper):
        setattr(obj, name, wrapper)
        self._patches.append((obj, name, original))

    def restore(self):
        """Put back every patched attribute, last patch first."""
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, key, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((key, 0.0, 0.0, parent, self.run_id))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, parent, self.run_id)
            if after is not None:
                after(result, args, parent)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- count hooks (computed from arguments and results) -------------------

    def _after_product(self, _result, args, _parent):
        seq, ts = args[0], args[1]
        points = int(np.size(ts))
        factors = sum(1 for v in seq.values if v != 0)
        c = self.counts
        c["product.points"] += points
        c["product.factor_steps"] += points * factors
        c["product.bytes"] += product_bytes(points, factors)

    def _after_refine(self, result, args, _parent):
        history = result.history
        c = self.counts
        c["refine.levels"] += 1 + len(history)
        # the returned value always comes from the last level sampled, so
        # one level per call is useful; the rest were tried to certify it
        c["refine.useful_frac"] += 1.0 / (1 + len(history))
        top = 2 * history[-1][0] if history else args[2].initial_grid
        c["refine.max_grid"] = max(c["refine.max_grid"], top)
        c["refine.nonconverged"] += 0 if result.converged else 1

    def _before_on_grid(self, _args):
        self.counts["sampler.lookups"] += 1

    def _before_logsq(self, args):
        sampler, grid = args[0], args[1]
        # a lookup of its own unless on_grid (already counted) called it
        caller = self.spans[self._stack[-1]][0] if self._stack else ""
        if caller != "su11.spectral_norms:WeightSampler.on_grid":
            self.counts["sampler.lookups"] += 1
        cache = getattr(sampler, "_logsq", None)
        if cache is None:
            self.absent.setdefault(_SAMPLER[1], "WeightSampler keeps no _logsq cache")
        elif grid not in cache:
            self.counts["sampler.builds"] += 1

    def _before_level(self, args):
        grids, grid = args[0], args[1]
        cache = getattr(grids, "_cache", None)
        if cache is None:
            self.absent.setdefault(_LEVEL_BUILD[0], "_TraceGrids keeps no _cache")
        elif grid not in cache:
            self.counts["ledger.levels_built"] += 1

    def _after_ratio(self, result, _args, parent):
        # the walk's own acceptance rule: a return that beats the running
        # best of its local_search (the parent span); the first return sets it
        best = self._walk_best.get(parent)
        if best is not None and result > best:
            self.counts["walk.accepts"] += 1
        if best is None or result > best:
            self._walk_best[parent] = result

    def _after_emit(self, _result, args, _parent):
        self.counts["emit.bytes"] += Path(args[2]).stat().st_size

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer group over all recorded spans."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (key, start, end, _, _) in enumerate(self.spans):
            out[self.group_of[key]] += (end - start) - child[i]
        return out

    def root_time(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def _durations_us(self, key: str) -> np.ndarray:
        return np.array([(end - start) * 1e6 for k, start, end, _, _ in self.spans if k == key])

    def metrics(self, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
        """Every per-layer metric as ``{name: {"value", "unit"}}``, plus
        ``{name: reason}`` for the absent ones, which read 0."""
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        c = self.counts

        def pct(key, q):
            d = self._durations_us(key)
            return float(np.percentile(d, q)) if d.size else 0.0

        product = "su11.nft_core.product_on_grid_arrays"
        refine = "su11.spectral_norms._refine"
        ledger = "su11.inequality_harness.proof_ledger"
        ratio = "su11.extremizer_search:_WalkEvaluator.ratio"
        refine_calls = calls[refine]
        evals = calls[ratio]
        lookups = c["sampler.lookups"]
        values = {
            "nft_core.product.calls": calls[product],
            "nft_core.product.points": c["product.points"],
            "nft_core.product.factor_steps": c["product.factor_steps"],
            "nft_core.product.bytes_computed": c["product.bytes"],
            "nft_core.product.call_us_p50": pct(product, 50),
            "nft_core.product.call_us_p90": pct(product, 90),
            "spectral_norms.refine.calls": refine_calls,
            "spectral_norms.refine.levels": c["refine.levels"],
            "spectral_norms.refine.levels_per_call":
                c["refine.useful_frac"] / refine_calls if refine_calls else 0.0,
            "spectral_norms.refine.max_grid": c["refine.max_grid"],
            "spectral_norms.refine.nonconverged": c["refine.nonconverged"],
            "spectral_norms.refine.call_us_p50": pct(refine, 50),
            "spectral_norms.refine.call_us_p90": pct(refine, 90),
            "spectral_norms.weight_sampler.builds": c["sampler.builds"],
            "spectral_norms.weight_sampler.hit_ratio":
                1.0 - c["sampler.builds"] / lookups if lookups else 0.0,
            "inequality_harness.hy_ratio.calls": calls["su11.inequality_harness.hy_ratio"],
            "inequality_harness.theorem_margin.calls":
                calls["su11.inequality_harness.theorem1_margin"]
                + calls["su11.inequality_harness.theorem2_margin"],
            "inequality_harness.ledger.calls": calls[ledger],
            "inequality_harness.ledger.call_us_p50": pct(ledger, 50),
            "inequality_harness.ledger.call_us_p90": pct(ledger, 90),
            "inequality_harness.ledger.levels_built": c["ledger.levels_built"],
            "extremizer_search.walk.evals": evals,
            "extremizer_search.walk.levels":
                calls["su11.extremizer_search:_WalkEvaluator._lhs_on_grid"],
            "extremizer_search.walk.accept_ratio": c["walk.accepts"] / evals if evals else 0.0,
            "extremizer_search.walk.eval_us_p50": pct(ratio, 50),
            "extremizer_search.walk.eval_us_p90": pct(ratio, 90),
            "extremizer_search.local_search.calls":
                calls["su11.extremizer_search.local_search"],
            "cli.emit_report.calls": calls["su11.cli.emit_report"],
            "cli.emit_report.bytes": c["emit.bytes"],
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.unattributed_s": traced_wall - self.root_time(),
        }
        selfs = self.self_times()
        for group in SELF_GROUPS:
            values[f"{group}.self_s"] = selfs.get(group, 0.0)
        out, absent = {}, {}
        for name, unit, _, needs in METRICS:
            missing = [self.absent[k] for k in needs if k in self.absent]
            if missing:
                absent[name] = "; ".join(missing)
            out[name] = {"value": 0.0 if missing else float(values[name]), "unit": unit}
        return out, absent

    def write_spans(self, path: Path):
        """Spans as tab-separated rows: index, name, start, end, parent, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun_id\n")
            for i, (key, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i}\t{key}\t{start!r}\t{end!r}\t{parent}\t{run_id}\n")

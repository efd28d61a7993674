"""Tracing of normtower from outside the program.

`install()` wraps the public functions and methods of each module under
`src/normtower` without editing them: a function is rebound in every
normtower module that holds it (so `from .snf import smith_normal_form` in
`lattice`, `lambda_modules` and `groupring` is covered), and a method is
replaced on its class.

Two kinds of wrapper:
- a span records name, start, end and parent in memory;
- a hot leaf kernel (`FieldDesc.mul`, `poly_mul`, `TruncSeries.__mul__`)
  keeps only a summed count and time, since one span per call would cost
  more than the call. Its time is charged to the innermost open span.

Self time is a span's duration minus the part of it that child spans cover,
minus the leaf-kernel time inside it. Counts such as SNF cells and
polynomial coefficient products are computed from argument shapes and
return values, so they repeat exactly for equal inputs; the one exception is
`cli.write_report.bytes`, since report.json holds run times.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (layer, metric name, module, attribute path, kind); kind is "span" or "leaf"
TARGETS = (
    ("snf", "smith_normal_form", "snf", "smith_normal_form", "span"),
    ("snf", "span_contains_all", "snf", "span_contains_all", "span"),
    ("snf", "kernel_basis", "snf", "kernel_basis", "span"),
    ("lattice", "galois_span", "lattice", "galois_span", "span"),
    ("lattice", "Lattice.rank", "lattice", "Lattice.rank", "span"),
    ("lattice", "Lattice.equals", "lattice", "Lattice.equals", "span"),
    ("lattice", "check_exact_sequence", "lattice", "check_exact_sequence", "span"),
    ("lattice", "cyclicity_check", "lattice", "cyclicity_check", "span"),
    ("lattice", "with_precision_retry", "lattice", "with_precision_retry", "span"),
    ("tower", "TowerElt.mul", "tower", "TowerElt.__mul__", "span"),
    ("tower", "TowerElt.galois", "tower", "TowerElt.galois", "span"),
    ("tower", "TowerElt.trace_to", "tower", "TowerElt.trace_to", "span"),
    ("tower", "build_tower", "tower", "build_tower", "span"),
    ("unramified", "FieldDesc.mul", "unramified", "FieldDesc.mul", "leaf"),
    ("unramified", "build_unramified", "unramified", "build_unramified", "span"),
    ("points", "point_log", "points", "point_log", "span"),
    ("points", "plusminus_point_log", "points", "plusminus_point_log", "span"),
    ("points", "verify_trace_relations", "points", "verify_trace_relations", "span"),
    ("groupring", "omega_family", "groupring", "omega_family", "span"),
    ("groupring", "poly_mul", "groupring", "poly_mul", "leaf"),
    ("lambda_modules", "flatten", "lambda_modules", "flatten", "span"),
    ("lambda_modules", "module_report", "lambda_modules", "module_report", "span"),
    ("lambda_modules", "freeness_test", "lambda_modules", "freeness_test", "span"),
    ("lambda_modules", "kernel_freeness_property", "lambda_modules",
     "kernel_freeness_property", "span"),
    ("lambda_modules", "coinvariant_rank_law", "lambda_modules", "coinvariant_rank_law", "span"),
    ("series", "TruncSeries.mul", "series", "TruncSeries.__mul__", "leaf"),
    ("series", "TruncSeries.compose", "series", "TruncSeries.compose", "span"),
    ("series", "TruncSeries.reversion", "series", "TruncSeries.reversion", "span"),
    ("curve", "formal_log", "curve", "formal_log", "span"),
    ("curve", "formal_exp", "curve", "formal_exp", "span"),
    ("curve", "composition_work_precision", "curve", "composition_work_precision", "span"),
    ("honda", "series_bundle", "honda", "series_bundle", "span"),
    ("honda", "honda_log", "honda", "honda_log", "span"),
    ("honda", "honda_exp", "honda", "honda_exp", "span"),
    ("honda", "composite_with_curve", "honda", "composite_with_curve", "span"),
    ("localpoints", "local_point_direct", "localpoints", "local_point_direct", "span"),
    ("localpoints", "torsion_probe", "localpoints", "torsion_probe", "span"),
    ("cli", "emit_tables", "cli", "emit_tables", "span"),
    ("cli", "write_report", "cli", "write_report", "span"),
)

# metric suffixes reported per traced name; "calls" and "self_s" unless listed
STATS = {
    "smith_normal_form": ("calls", "self_s", "cells", "max_rows", "max_cols",
                          "object_calls", "uv_used_ratio"),
    "galois_span": ("calls", "self_s", "columns"),
    "with_precision_retry": ("calls", "retries", "retry_ratio"),
    "build_unramified": ("calls", "self_s"),
    "omega_family": ("calls", "self_s", "distinct_ratio"),
    "poly_mul": ("calls", "self_s", "coeff_products"),
    "flatten": ("calls", "self_s", "dim_sum"),
    "freeness_test": ("calls", "rungs"),
    "kernel_freeness_property": ("self_s",),
    "coinvariant_rank_law": ("self_s",),
    "composition_work_precision": ("value",),
    "series_bundle": ("calls", "self_s", "attempts", "work_prec", "digits_ratio"),
    "emit_tables": ("self_s", "bytes"),
    "write_report": ("self_s", "bytes"),
}

PROC_METRICS = ("cpu_s", "wait_s", "tracing_overhead_s", "verdict_wall_s", "speed_ratio")

# stats computed from argument shapes and return values, not measured
COMPUTED = ("cells", "max_rows", "max_cols", "columns", "coeff_products", "dim_sum",
            "work_prec", "value", "bytes")


def metric_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = [f"{layer}.{name}.{stat}" for layer, name, *_ in TARGETS
             for stat in STATS.get(name, ("calls", "self_s"))]
    return names + [f"proc.{m}" for m in PROC_METRICS]


def unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    if stat in ("work_prec", "value"):
        return "digits"
    if stat == "bytes":
        return "bytes"
    return "count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 at top level
    leaf_s: float = 0.0  # summed leaf-kernel time directly inside this span


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals clipped
    to it (children may overlap each other), minus its leaf-kernel time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered - s.leaf_s)
    return out


class Tracer:
    """Spans and leaf totals of one traced repetition, held in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._leaf_stack: list[float] = []   # inner leaf time of open leaf calls
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.maxima: dict[str, float] = defaultdict(float)
        self._uv_flags: list[list[bool]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            rec = Span(name, perf_counter(), 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                open_.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, after=None):
        spans, open_, stack = self.spans, self._open, self._leaf_stack
        calls, selfs = self.leaf_calls, self.leaf_self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = stack.pop()
                calls[name] += 1
                selfs[name] += dur - inner
                if stack:
                    stack[-1] += dur
                elif open_:
                    spans[open_[-1]].leaf_s += dur
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, name, module, attr, kind in TARGETS:
            mod = importlib.import_module(f"normtower.{module}")
            owner, _, key = attr.rpartition(".")
            make = self.span if kind == "span" else self.leaf
            if owner:
                cls = getattr(mod, owner)
                self._set(cls, key, make(name, cls.__dict__[key], AFTER.get(name)))
                continue
            fn = getattr(mod, key)
            inner = _count_retries(self, fn) if name == "with_precision_retry" else fn
            wrapped = make(name, inner, AFTER.get(name))
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("normtower"):
                    for k, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, k, wrapped)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name (proc.* excluded)."""
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        for s, st in zip(self.spans, self_times(self.spans)):
            calls[s.name] += 1
            selfs[s.name] += st
        for name, n in self.leaf_calls.items():
            calls[name] += n
            selfs[name] += self.leaf_self[name]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "smith_normal_form.uv_used_ratio": ratio(
                sum(f[0] for f in self._uv_flags), calls["smith_normal_form"]),
            "with_precision_retry.retry_ratio": ratio(
                c["with_precision_retry.retries"], calls["with_precision_retry"]),
            "omega_family.distinct_ratio": ratio(
                len(self.distinct["omega_family"]), calls["omega_family"]),
            "series_bundle.digits_ratio": ratio(
                c["series_bundle.target"], c["series_bundle.work_prec"]),
            "composition_work_precision.value": self.maxima["composition_work_precision"],
            "smith_normal_form.max_rows": self.maxima["smith_normal_form.rows"],
            "smith_normal_form.max_cols": self.maxima["smith_normal_form.cols"],
        }
        out = {}
        for layer, name, *_ in TARGETS:
            for stat in STATS.get(name, ("calls", "self_s")):
                key = f"{name}.{stat}"
                if key in derived:
                    value = derived[key]
                elif stat == "calls":
                    value = calls[name]
                elif stat == "self_s":
                    value = selfs[name]
                else:
                    value = c[key]
                out[f"{layer}.{key}"] = value
        return out

    def self_total(self) -> float:
        """Summed self time of every span and leaf kernel."""
        return sum(self_times(self.spans)) + sum(self.leaf_self.values())


def _count_retries(tracer: Tracer, retry):
    """with_precision_retry(p, d, n, N, fn): count every call of fn beyond the
    first as a retry."""

    def wrapper(p, d, n_max, N, fn):
        runs = [0]

        def counted(tower):
            runs[0] += 1
            return fn(tower)

        try:
            return retry(p, d, n_max, N, counted)
        finally:
            tracer.counts["with_precision_retry.retries"] += max(runs[0] - 1, 0)

    return wrapper


# -- exact counts from argument shapes and return values ----------------------

def _snf_after(tr: Tracer, args, kwargs, res) -> None:
    m, n = res.shape
    tr.counts["smith_normal_form.cells"] += m * n * min(m, n)
    tr.maxima["smith_normal_form.rows"] = max(tr.maxima["smith_normal_form.rows"], m)
    tr.maxima["smith_normal_form.cols"] = max(tr.maxima["smith_normal_form.cols"], n)
    tr.counts["smith_normal_form.object_calls"] += res.U.dtype == object
    flag = [False]
    tr._uv_flags.append(flag)
    res.__dict__["_uv_flag"] = flag
    res.__class__ = _watched_class(type(res))


_WATCHED: dict[type, type] = {}


def _watched_class(cls: type) -> type:
    """A subclass of SnfResult that marks its call when a caller reads U or V."""
    if cls not in _WATCHED:
        def __getattribute__(self, key):
            if key == "U" or key == "V":
                object.__getattribute__(self, "__dict__")["_uv_flag"][0] = True
            return object.__getattribute__(self, key)

        _WATCHED[cls] = type(f"Watched{cls.__name__}", (cls,),
                             {"__getattribute__": __getattribute__})
    return _WATCHED[cls]


def _galois_span_after(tr, args, kwargs, lat) -> None:
    tr.counts["galois_span.columns"] += lat.mat.shape[1]


def _omega_after(tr, args, kwargs, fam) -> None:
    tr.distinct["omega_family"].add((fam.p, fam.n))


def _poly_mul_after(tr, args, kwargs, out) -> None:
    a, b = args
    tr.counts["poly_mul.coeff_products"] += sum(1 for x in a if x) * len(b)


def _flatten_after(tr, args, kwargs, fm) -> None:
    tr.counts["flatten.dim_sum"] += fm.dim


def _freeness_after(tr, args, kwargs, rep) -> None:
    N = args[1] if len(args) > 1 else kwargs["N"]
    tr.counts["freeness_test.rungs"] += (rep["certified_at"][0] - N) // 4 + 1


def _work_prec_after(tr, args, kwargs, value) -> None:
    key = "composition_work_precision"
    tr.maxima[key] = max(tr.maxima[key], value)


def _composite_after(tr, args, kwargs, rep) -> None:
    # series_bundle builds one composite per precision attempt
    if any(tr.spans[i].name == "series_bundle" for i in tr._open):
        tr.counts["series_bundle.attempts"] += 1


def _bundle_after(tr, args, kwargs, b) -> None:
    tr.counts["series_bundle.work_prec"] += b.field.N
    tr.counts["series_bundle.target"] += b.target


def _bytes_after(name):
    def after(tr, args, kwargs, result) -> None:
        paths = result.values() if isinstance(result, dict) else [result]
        tr.counts[f"{name}.bytes"] += sum(p.stat().st_size for p in paths)
    return after


AFTER = {
    "smith_normal_form": _snf_after,
    "galois_span": _galois_span_after,
    "omega_family": _omega_after,
    "poly_mul": _poly_mul_after,
    "flatten": _flatten_after,
    "freeness_test": _freeness_after,
    "composition_work_precision": _work_prec_after,
    "series_bundle": _bundle_after,
    "composite_with_curve": _composite_after,
    "emit_tables": _bytes_after("emit_tables"),
    "write_report": _bytes_after("write_report"),
}

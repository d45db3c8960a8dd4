"""In-memory span tracer that wraps the lab's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
function at every binding in the loaded ``besov_wave_lab.*`` modules (the
solver and experiment modules import names directly, so patching only the
defining module would miss most calls), patches the traced methods on their
classes, and wraps every transform entry point of ``numpy.fft`` and
``scipy.fft``.  A span is (name, start_ns, end_ns, parent index); self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name).  A dotted attribute is a method.
SPANNED = [
    ("besov_wave_lab.cli", "main", "cli.main"),
    ("besov_wave_lab.experiments", "run_experiment", "experiments.run_experiment"),
    ("besov_wave_lab.profiles", "build_profile", "profiles.build_profile"),
    ("besov_wave_lab.reporting", "ExperimentReport.save", "reporting.save"),
    ("besov_wave_lab.grid", "dealiased_power", "grid.dealiased_power"),
    ("besov_wave_lab.grid", "dealiased_product", "grid.dealiased_product"),
    ("besov_wave_lab.grid", "apply_symbol", "grid.apply_symbol"),
    ("besov_wave_lab.littlewood_paley", "DyadicBlocks.block_norms",
     "littlewood_paley.block_norms"),
    ("besov_wave_lab.littlewood_paley", "DyadicBlocks.block", "littlewood_paley.block"),
    ("besov_wave_lab.littlewood_paley", "DyadicBlocks.low_pass", "littlewood_paley.block"),
    ("besov_wave_lab.littlewood_paley", "DyadicBlocks.high_pass", "littlewood_paley.block"),
    ("besov_wave_lab.littlewood_paley", "DyadicBlocks.tilde", "littlewood_paley.block"),
    ("besov_wave_lab.norms", "x_norm", "norms.x_norm"),
    ("besov_wave_lab.norms", "besov_seminorm", "norms.besov_seminorm"),
    ("besov_wave_lab.norms", "lebesgue_norm", "norms.lebesgue_norm"),
    ("besov_wave_lab.propagator", "damped_L", "propagator.symbol"),
    ("besov_wave_lab.propagator", "damped_dtL", "propagator.symbol"),
    ("besov_wave_lab.propagator", "linear_solution", "propagator.linear_solution"),
    ("besov_wave_lab.paraproduct", "para_T", "paraproduct.para_T"),
    ("besov_wave_lab.paraproduct", "para_R", "paraproduct.para_R"),
    ("besov_wave_lab.paraproduct", "leibniz_ratio", "paraproduct.leibniz_ratio"),
    ("besov_wave_lab.solver", "duhamel_integral", "solver.duhamel_integral"),
    ("besov_wave_lab.solver", "psi_apply", "solver.psi_apply"),
    ("besov_wave_lab.solver", "picard_solve", "solver.picard_solve"),
    ("besov_wave_lab.solver", "etd_oracle", "solver.etd_oracle"),
]

# Called too often, and too cheaply, for a span: counted only.
COUNTED = [
    ("besov_wave_lab.grid", "make_grid", "grid.make_grid.calls"),
    ("besov_wave_lab.grid", "GridField.__post_init__", "grid.GridField.built"),
]

# Transform entry points: complex ones cost 5 n log2 n, real ones 2.5 n log2 n.
FFT_MODULES = ("numpy.fft", "scipy.fft")
COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
REAL_FFTS = (
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)
FFT_SPAN = "grid.fft"


def _fft_axes(name: str, args: tuple, kwargs: dict, ndim: int) -> list[int]:
    """Transformed axes, from the (x, n|s, axis|axes, ...) signature both
    numpy.fft and scipy.fft share."""
    given = kwargs.get("axis", kwargs.get("axes"))
    if given is None and len(args) > 2:
        given = args[2]
    if name.endswith("2") and given is None:
        given = (-2, -1)
    if given is None and name.endswith("n"):
        shape = kwargs.get("s", args[1] if len(args) > 1 else None)
        given = range(-len(shape), 0) if shape is not None else range(ndim)
    if given is None:
        given = -1
    if isinstance(given, int):
        given = (given,)
    return [a % ndim for a in given]


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Flat span records: name id, start ns, end ns, parent index (-1 = root).
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, name: str, after=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name_id, clock(), 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_fft(self, name: str):
        coef = 5.0 if name in COMPLEX_FFTS else 2.5

        def after(args, kwargs, result):
            # numpy names the input a, scipy names it x.
            in_shape = np.shape(args[0] if args else kwargs.get("a", kwargs.get("x")))
            out_shape = np.shape(result)
            # The real side of a real transform is the larger array.
            shape = in_shape if math.prod(in_shape) >= math.prod(out_shape) else out_shape
            axes = _fft_axes(name, args, kwargs, len(shape))
            length = math.prod(shape[a] for a in axes)
            points = math.prod(shape)
            self._count("grid.fft.points", points)
            if length > 1:
                self._count("grid.fft.flops_computed", coef * points * math.log2(length))

        return after

    def _after_picard(self, args, kwargs, result):
        self._count("solver.picard.iterations", result[1].iterations)

    def _after_etd(self, args, kwargs, result):
        self._count("solver.etd.steps", result[1].steps)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in the loaded modules."""
        importlib.import_module("besov_wave_lab.cli")
        lab = [m for k, m in sorted(sys.modules.items())
               if k == "besov_wave_lab" or k.startswith("besov_wave_lab.")]
        after = {"solver.picard_solve": self._after_picard,
                 "solver.etd_oracle": self._after_etd}
        for module_name, attr, name in SPANNED:
            self._patch(lab, module_name, attr,
                        lambda fn, n=name: self._spanned(fn, n, after.get(n)))
        for module_name, attr, key in COUNTED:
            self._patch(lab, module_name, attr, lambda fn, k=key: self._counted(fn, k))
        for module_name in FFT_MODULES:
            if importlib.util.find_spec(module_name.split(".")[0]) is None:
                continue
            module = importlib.import_module(module_name)
            for fname in COMPLEX_FFTS + REAL_FFTS:
                fn = getattr(module, fname, None)
                if fn is not None:
                    setattr(module, fname,
                            self._spanned(fn, FFT_SPAN, self._after_fft(fname)))

    @staticmethod
    def _patch(lab_modules, module_name: str, attr: str, make) -> None:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for module in lab_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for index, (name_id, start, end, _) in enumerate(self.spans):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        return totals

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{self.names[name_id]}\t{start}\t{end}\t{parent}\n")


def layer_metrics(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    """The per-layer metrics of one traced run (all but trace.overhead_ratio)."""
    spans = tracer.span_totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict[str, float]:
        return spans.get(name, empty)

    metrics: dict[str, float] = {}
    for name in (
        "grid.fft", "grid.dealiased_power", "grid.apply_symbol", "grid.dealiased_product",
        "littlewood_paley.block_norms", "littlewood_paley.block",
        "norms.besov_seminorm", "norms.lebesgue_norm",
        "solver.duhamel_integral", "propagator.symbol", "propagator.linear_solution",
        "paraproduct.para_T", "paraproduct.para_R",
    ):
        metrics[f"{name}.calls"] = span(name)["calls"]
        metrics[f"{name}.self_s"] = span(name)["self_s"]
    metrics["norms.x_norm.calls"] = span("norms.x_norm")["calls"]
    for name in (
        "norms.x_norm", "solver.picard_solve", "solver.etd_oracle",
        "paraproduct.leibniz_ratio", "profiles.build_profile",
        "experiments.run_experiment", "reporting.save",
    ):
        metrics[f"{name}.total_s"] = span(name)["total_s"]
    metrics["solver.psi_apply.self_s"] = span("solver.psi_apply")["self_s"]
    metrics["solver.etd_oracle.self_s"] = span("solver.etd_oracle")["self_s"]
    for key in ("grid.fft.points", "grid.fft.flops_computed", "grid.make_grid.calls",
                "grid.GridField.built", "solver.picard.iterations", "solver.etd.steps"):
        metrics[key] = tracer.counts.get(key, 0)
    steps = metrics["solver.etd.steps"]
    metrics["solver.etd.s_per_step"] = (
        metrics["solver.etd_oracle.total_s"] / steps if steps else 0.0
    )
    metrics["reporting.bytes_written"] = sum(
        p.stat().st_size for p in out_dir.iterdir() if p.is_file()
    )
    return metrics


# Per-layer metrics that must repeat exactly across traced runs of one seed.
# reporting.bytes_written is left out: the report's timing block holds the
# run time, whose printed width varies.
EXACT_COUNTS = (
    "grid.fft.calls", "grid.fft.points", "grid.fft.flops_computed",
    "grid.dealiased_power.calls", "grid.apply_symbol.calls",
    "grid.dealiased_product.calls", "grid.make_grid.calls", "grid.GridField.built",
    "littlewood_paley.block_norms.calls", "littlewood_paley.block.calls",
    "norms.x_norm.calls", "norms.besov_seminorm.calls", "norms.lebesgue_norm.calls",
    "solver.duhamel_integral.calls", "solver.picard.iterations", "solver.etd.steps",
    "propagator.symbol.calls", "propagator.linear_solution.calls",
    "paraproduct.para_T.calls", "paraproduct.para_R.calls",
)

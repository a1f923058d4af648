"""Span tracer behind the per-layer benchmark metrics.

``Tracer.install`` replaces the public functions of the obmlab layers, in
every obmlab module that has bound them, with wrappers that record a span:
name, parent span, start and end.  scipy's ``solve_banded`` is traced as
``obm`` calls it, and the mms source hooks and case builds as the
benchmark calls them.  numpy's FFT calls made by ``obmlab.fields`` are
counted, not timed, and snapshot writes add up the bytes they put on disk.
Spans stay in memory until ``metrics`` reduces them at the end of the
operation.  Tracing is meant for a throw-away process: nothing is undone.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("fields", "thermo", "mhd", "obm", "relent", "mms")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn")
DIAGNOSTICS = ("mhd.entropy_production_terms", "mhd.total_energy",
               "mhd.ballistic_energy")
# children of relent.convergence_study that are not its own evaluation
STUDY_SOLVES = ("relent.well_prepared_data", "mhd.run_prim", "obm.step_obm",
                "mhd.entropy_production_terms")

# name -> unit of every per-layer metric, in report order
METRICS = {
    "cli.import_s": "s",
    "cli.sympy_import_s": "s",
    "fields.fft_per_step": "count/step",
    "fields.self_s": "s",
    "fields.snapshot_s": "s",
    "fields.snapshot_mb": "MB",
    "thermo.calls_per_step": "count/step",
    "thermo.self_s": "s",
    "mhd.steps": "count",
    "mhd.step_prim_s": "s",
    "mhd.cfl_limits_per_step": "count/step",
    "mhd.entropy_terms_per_step": "count/step",
    "mhd.diagnostics_s": "s",
    "obm.steps": "count",
    "obm.step_obm_s": "s",
    "obm.solve_banded_per_step": "count/step",
    "obm.solve_banded_s": "s",
    "relent.record_s": "s",
    "relent.well_prepared_s": "s",
    "mms.build_s": "s",
    "mms.source_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# metrics that must repeat exactly from run to run
COUNTS = tuple(name for name, unit in METRICS.items() if unit != "s")


class _View:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []
        self.fft_calls = 0
        self.snapshot_bytes = 0

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span."""
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _sized(self, fn):
        def sized(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            self.snapshot_bytes += os.path.getsize(path)
        return sized

    def install(self) -> None:
        modules = [importlib.import_module(f"obmlab.{name}")
                   for name in LAYERS + ("cli",)]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.span(f"{layer}.{attr}", fn)
                if attr == "write_snapshot":
                    wrapped = self._sized(wrapped)
                for caller in modules:
                    for name, value in list(vars(caller).items()):
                        if value is fn:
                            setattr(caller, name, wrapped)
        fields, obm, mms = modules[0], modules[3], modules[5]
        obm.solve_banded = self.span("scipy.solve_banded", obm.solve_banded)
        fft = _View(np.fft, **{name: self._counted(getattr(np.fft, name))
                               for name in FFT_FUNCTIONS})
        fields.np = _View(np, fft=fft)
        tracer = self
        for case in (mms.PrimCase, mms.ObmCase):
            case.__init__ = self.span("mms.build", case.__init__)
            source = case.source

            def traced_source(self, grid, _source=source):
                return tracer.span("mms.source", _source(self, grid))

            case.source = traced_source

    def spans(self) -> list:
        """(name, parent, start, end) of every span, in call order."""
        return list(zip(self.names, self.parents, self.starts, self.ends))

    def metrics(self) -> dict:
        """Per-layer counts and times of everything traced so far.

        Self time is a span's duration less that of its direct children.
        Per-step counts divide by all solver steps, compressible and limit,
        except those named after one solver's steps."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        names = np.array(self.names)
        inner = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(inner, parents[nested], dur[nested])
        calls = Counter(self.names)
        layer = np.array([n.split(".")[0] for n in self.names])

        def total(*wanted):
            return float(dur[np.isin(names, wanted)].sum())

        def own(name):
            return float((dur - inner)[layer == name].sum())

        def per(count, steps):
            return count / steps if steps else 0.0

        study = np.flatnonzero(names == "relent.convergence_study")
        solves = nested & np.isin(names, STUDY_SOLVES) & np.isin(parents, study)
        mhd_steps = calls["mhd.step_prim"]
        obm_steps = calls["obm.step_obm"]
        steps = mhd_steps + obm_steps
        thermo_calls = sum(c for n, c in calls.items() if n.startswith("thermo."))
        return {
            "fields.fft_per_step": per(self.fft_calls, steps),
            "fields.self_s": own("fields"),
            "fields.snapshot_s": total("fields.write_snapshot"),
            "fields.snapshot_mb": self.snapshot_bytes / 1e6,
            "thermo.calls_per_step": per(thermo_calls, steps),
            "thermo.self_s": own("thermo"),
            "mhd.steps": mhd_steps,
            "mhd.step_prim_s": total("mhd.step_prim"),
            "mhd.cfl_limits_per_step": per(calls["mhd.cfl_limits"], mhd_steps),
            "mhd.entropy_terms_per_step":
                per(calls["mhd.entropy_production_terms"], mhd_steps),
            "mhd.diagnostics_s": total(*DIAGNOSTICS),
            "obm.steps": obm_steps,
            "obm.step_obm_s": total("obm.step_obm"),
            "obm.solve_banded_per_step":
                per(calls["scipy.solve_banded"], obm_steps),
            "obm.solve_banded_s": total("scipy.solve_banded"),
            "relent.record_s": float(dur[study].sum() - dur[solves].sum()),
            "relent.well_prepared_s": total("relent.well_prepared_data"),
            "mms.build_s": total("mms.build"),
            "mms.source_s": total("mms.source"),
            "trace.spans": len(self.names),
        }

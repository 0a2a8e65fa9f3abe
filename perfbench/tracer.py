"""Run capture and span tracing, installed from outside the package.

Both wrap public functions at the places their callers look them up (a
module global or a class attribute), so nothing under src/ changes. The run
log is on for every pass: it keeps what each sampler run returned for the
checks made after the pass's clock stops. The tracer is on only in traced
passes: it records one span per call (name, start, end, parent) in memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Callable, Optional

from stochanneal import cli, experiments, io_ingest, maxcut, reference, sampler
from stochanneal.device import SCHEMES
from stochanneal.maxcut import cut_value
from stochanneal.surface import DeviceSurface

LAYERS = ("io_ingest", "maxcut", "surface", "sampler", "experiments", "cli", "reference")


@dataclasses.dataclass
class RunRecord:
    inst: maxcut.MaxCutInstance
    best_x: object
    best_cut: int
    iterations: int
    cycles: int

    def problem(self) -> Optional[str]:
        cut = cut_value(self.inst, self.best_x)
        if cut != self.best_cut:
            return f"{self.inst.name}: cut_value(best_x) = {cut} != best_cut {self.best_cut}"
        if self.cycles != self.iterations:
            return f"{self.inst.name}: {self.cycles} device cycles != {self.iterations} iterations"
        return None


class RunLog:
    """What each sampler run returned, kept without its energy trace."""

    def __init__(self):
        self.records: list[RunRecord] = []
        original = sampler.run

        def run(inst, cfg, surface, run_index=0):
            trace = original(inst, cfg, surface, run_index)
            self.records.append(RunRecord(inst, trace.best_x, int(trace.best_cut),
                                          int(trace.iterations),
                                          int(trace.cycles_per_device.sum())))
            return trace

        # ensemble finds run in sampler; proxy_best_known finds it in experiments
        sampler.run = experiments.run = run


def _graph_key(inst) -> int:
    return hash((inst.n, inst.edges))


def _run_attrs(args, kwargs, trace):
    cfg = args[1]
    return {"scheme": cfg.scheme, "stops": cfg.stop_on_convergence,
            "converged": trace.converged_at is not None,
            "iterations": int(trace.iterations), "trace_points": int(trace.energies.size)}


def _convergence_key(args, kwargs, result):
    instances, cfg = args[0], args[1]
    # convergence_scaling runs the ideal scheme whatever scheme cfg names
    effective = dataclasses.replace(cfg, scheme="ideal", stop_on_convergence=True)
    return {"key": (tuple(hash((i.n, i.edges, i.best_known)) for i in instances),
                    repr(effective))}


# (span name, the namespaces callers look the function up in, attribute, attrs)
SITES = (
    ("sampler.run", (sampler, experiments), "run", _run_attrs),
    ("sampler.ensemble", (experiments, cli), "ensemble", None),
    ("sampler.make_state", (sampler,), "make_state", None),
    ("maxcut.build_form", (sampler,), "build_form",
     lambda a, k, r: {"graph": _graph_key(a[0])}),
    ("surface.eval_mu", (DeviceSurface,), "eval_mu", None),
    ("surface.hrs_for_mu", (DeviceSurface,), "hrs_for_mu", None),
    ("io_ingest.generate_instance", (io_ingest, experiments, cli), "generate_instance", None),
    ("io_ingest.read_instance", (cli,), "read_instance", None),
    ("io_ingest.write_instance", (cli,), "write_instance", None),
    ("io_ingest.write_results", (cli,), "write_results", None),
    ("io_ingest.write_manifest", (cli,), "write_manifest", None),
    ("experiments.build_size_ladder", (experiments,), "build_size_ladder", None),
    ("experiments.proxy_best_known", (experiments,), "proxy_best_known", None),
    ("experiments.convergence_scaling", (experiments,), "convergence_scaling", _convergence_key),
    ("experiments.max_solvable_size", (experiments,), "max_solvable_size", None),
    ("experiments.d2d_experiment", (experiments,), "d2d_experiment", None),
    ("experiments.max_meaningful_iterations", (experiments,), "max_meaningful_iterations", None),
    ("experiments.settling_energy_ensemble", (experiments,), "settling_energy_ensemble", None),
    ("reference.get_reference", (reference, cli), "get_reference", None),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for none
    attrs: Optional[dict]


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        saved = []
        try:
            for name, owners, attr, attrs in SITES:
                for owner in owners:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of this pass; `wall` is the pass's host time."""
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for s in spans:
            children.setdefault(s.parent, []).append(s)

        def named(name):
            return [s for s in spans if s.name == name]

        def total(*names):
            return sum(s.end - s.start for n in names for s in named(n))

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for idx, s in enumerate(spans):
            covered = sum(c.end - c.start for c in children.get(idx, ()))
            layer_self[s.name.split(".")[0]] += (s.end - s.start) - covered

        runs = named("sampler.run")
        loop = {}
        for idx, s in enumerate(spans):
            if s.name == "sampler.run":
                setup = sum(c.end - c.start for c in children.get(idx, ())
                            if c.name == "sampler.make_state")
                loop[idx] = (s.end - s.start) - setup
        loop_s = sum(loop.values())
        iters_per_s = {}
        for scheme in SCHEMES:
            picked = [i for i, s in enumerate(spans)
                      if s.name == "sampler.run" and s.attrs["scheme"] == scheme]
            busy = sum(loop[i] for i in picked)
            done = sum(spans[i].attrs["iterations"] for i in picked)
            iters_per_s[scheme] = done / busy if busy > 0 else 0.0
        stopping = [s for s in runs if s.attrs["stops"]]

        forms = named("maxcut.build_form")
        conv = named("experiments.convergence_scaling")
        conv_keys = [s.attrs["key"] for s in conv]
        drift = [s for s in named("sampler.ensemble")
                 if s.parent >= 0 and spans[s.parent].name == "experiments.max_solvable_size"]

        out = {
            "sampler.iterations": sum(s.attrs["iterations"] for s in runs),
            "sampler.runs": len(runs),
            "sampler.loop_s": loop_s,
            "sampler.loop_share": loop_s / wall,
            **{f"sampler.iters_per_s.{k}": v for k, v in iters_per_s.items()},
            "sampler.make_state_s": total("sampler.make_state"),
            "sampler.make_state_calls": len(named("sampler.make_state")),
            "sampler.converged_frac": (sum(s.attrs["converged"] for s in stopping)
                                       / len(stopping) if stopping else 0.0),
            "sampler.trace_points": sum(s.attrs["trace_points"] for s in runs),
            "maxcut.build_form_s": total("maxcut.build_form"),
            "maxcut.build_form_calls": len(forms),
            "maxcut.build_form_reuse": (len({s.attrs["graph"] for s in forms}) / len(forms)
                                        if forms else 0.0),
            "surface.hrs_for_mu_s": total("surface.hrs_for_mu"),
            "surface.hrs_for_mu_calls": len(named("surface.hrs_for_mu")),
            "surface.eval_mu_s": total("surface.eval_mu"),
            "surface.eval_mu_calls": len(named("surface.eval_mu")),
            "io_ingest.generate_instance_s": total("io_ingest.generate_instance"),
            "io_ingest.read_instance_s": total("io_ingest.read_instance"),
            "io_ingest.write_s": total("io_ingest.write_instance", "io_ingest.write_results",
                                       "io_ingest.write_manifest"),
            "experiments.proxy_s": total("experiments.proxy_best_known"),
            "experiments.convergence_s": total("experiments.convergence_scaling"),
            "experiments.drift_s": sum(s.end - s.start for s in drift),
            "experiments.convergence_repeat_frac": (
                (len(conv_keys) - len(set(conv_keys))) / len(conv_keys) if conv_keys else 0.0),
            "experiments.trace_analysis_s": total("experiments.max_meaningful_iterations",
                                                  "experiments.settling_energy_ensemble"),
            "cli.gen_s": total("cli.gen"),
            "cli.solve_s": total("cli.solve"),
        }
        out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]

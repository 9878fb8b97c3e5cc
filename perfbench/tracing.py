"""Spans and counts at the package's layer boundaries, for the traced run.

Each traced function is wrapped where its caller looks it up (a module
attribute, a class attribute, or the CLI's sweep table), so calls made
inside the package are seen too.  A span records its name, start, end and
parent span; spans stay in memory until `write`.  A span's self time is
its duration minus the durations of its direct children.
"""

import functools
import gzip
import json
import math
import os
import statistics
import time

from squeezeamp import cli, drive, experiments, fitting, fock, frame, gaussian, lindblad
from squeezeamp import spinmotion

MODULES = ("fock", "gaussian", "drive", "spinmotion", "lindblad", "frame", "fitting",
           "experiments", "cli")

# (owner, attribute, span name)
SPANS = (
    (fock, "hermitian_propagator", "fock.hermitian_propagator"),
    (gaussian, "displaced_squeezed_populations", "gaussian.displaced_squeezed_populations"),
    (gaussian, "squeezed_vacuum", "gaussian.squeezed_vacuum"),
    (gaussian, "displacement_operator", "gaussian.displacement_operator"),
    (drive, "hamiltonian_lab", "drive.hamiltonian_lab"),
    (experiments, "simulate_full_vs_rwa", "drive.simulate_full_vs_rwa"),
    (spinmotion, "u_sideband", "spinmotion.u_sideband"),
    (spinmotion, "bsb_signal", "spinmotion.bsb_signal"),
    (lindblad, "lindblad_evolve", "lindblad.lindblad_evolve"),
    (lindblad, "trace_distance", "lindblad.trace_distance"),
    (frame, "evolve_frame_segment", "frame.evolve_frame_segment"),
    (frame.FrameResult, "lab_density", "frame.lab_density"),
    (experiments, "fit_state_model", "fitting.fit_state_model"),
    (cli, "fit_state_model", "fitting.fit_state_model"),
    (fitting, "extract_populations", "fitting.extract_populations"),
    (experiments, "sample_probability", "experiments.sample_probability"),
    (experiments.SweepResult, "write", "experiments.write"),
    (cli, "main", "cli.main"),
)
SPANS += tuple((cli._SWEEPS, key, "experiments.sweep") for key in cli._SWEEPS)

# (owner, attribute, count name): calls too frequent and too small for spans
COUNTS = (
    (frame.FrameMap, "lowering_matrix", "frame.steps"),
    (fitting, "model_populations", "fitting.residual_evals"),
)

#: Span names whose per-call latency percentiles are reported.
LATENCIES = ("fock.hermitian_propagator",)


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Wraps the layer boundaries while installed; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys((name for _, _, name in COUNTS), 0)
        self.frame_steps = [0, 0]  # steps at the accepted resolution, all steps
        self.output_bytes = 0
        self._stack = []
        self._saved = []

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, owner, key, make):
        original = _get(owner, key)
        self._saved.append((owner, key, original))
        _set(owner, key, make(original))

    def install(self):
        for owner, key, name in SPANS:
            self._wrap(owner, key, lambda fn, name=name: self._span_wrapper(fn, name))
        for owner, key, name in COUNTS:
            self._wrap(owner, key, lambda fn, name=name: self._count_wrapper(fn, name))

        # Useful-step share: the last step run of a segment is the accepted one.
        runs = []

        def step_run(fn):
            def wrapper(rho, base_map, segment, noise, n_steps):
                runs.append(n_steps)
                return fn(rho, base_map, segment, noise, n_steps)
            return wrapper

        def segment(fn):
            def wrapper(*args, **kwargs):
                runs.clear()
                out = fn(*args, **kwargs)
                if runs:
                    self.frame_steps[0] += runs[-1]
                    self.frame_steps[1] += sum(runs)
                return out
            return wrapper

        def write(fn):
            def wrapper(result, outdir):
                base = fn(result, outdir)
                for path in (base + ".csv", base + ".json", os.path.join(outdir, "config.txt")):
                    self.output_bytes += os.path.getsize(path)
                return base
            return wrapper

        self._wrap(frame, "_segment_step_run", step_run)
        self._wrap(frame, "evolve_frame_segment", segment)
        self._wrap(experiments.SweepResult, "write", write)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def metrics(self, rounds, traced_s):
        """Per-layer metrics per round, from everything recorded so far.

        `traced_s` is the wall time of all traced rounds; `<module>.share` is
        the module's self time as a share of it.
        """
        calls, self_s, durations = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            if name in LATENCIES:
                durations.setdefault(name, []).append(end - start)
        out = {}
        for name in sorted({n for _, _, n in SPANS}):
            out[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / rounds, "s")
        for name in LATENCIES:
            samples = sorted(durations.get(name, [0.0]))
            out[f"{name}.p50_us"] = (statistics.median(samples) * 1e6, "us")
            rank = math.ceil(0.99 * len(samples)) - 1
            out[f"{name}.p99_us"] = (samples[rank] * 1e6, "us")
        for name, value in self.counts.items():
            out[name] = (value / rounds, "count")
        useful, total = self.frame_steps
        out["frame.useful_step_share"] = (useful / total if total else 0.0, "ratio")
        out["experiments.output_bytes"] = (self.output_bytes / rounds, "bytes")
        for module in MODULES:
            spent = sum(s for n, s in self_s.items() if n.split(".")[0] == module)
            out[f"{module}.share"] = (spent / traced_s, "ratio")
        return out

    def write(self, path):
        """Gzipped JSON lines: the span names, then one [name index, start, end,
        parent id] per span, with times in seconds from the first span and the
        span id equal to its line number less two."""
        names = sorted({name for name, _, _, _ in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(f"[{index[name]},{start - t0:.9f},{end - t0:.9f},"
                         f"{'null' if parent is None else parent}]\n")

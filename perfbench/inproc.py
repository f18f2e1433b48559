"""One benchmark pass inside a fresh interpreter, optionally traced.

    python perfbench/inproc.py setup  REPORT CONFIG...
    python perfbench/inproc.py plain  REPORT CLI-ARG...
    python perfbench/inproc.py trace  REPORT CLI-ARG...

``setup`` imports the CLI and loads and validates every config, then exits:
the set-up a CLI user pays before the first experiment starts.  ``plain``
runs ``canardctl.cli.main`` with only the integrator entry points and the
per-config dispatcher wrapped; their counts come from the trajectories the
integrator returns.  ``trace`` wraps every layer's public functions at each
name a consumer module bound them to (the package imports with
``from .x import y``, so patching the defining module alone would miss the
callers).  The program itself is not changed.  Both write a JSON report.

Layer attribution: a layer's self time is the time spent inside its wrapped
functions minus the time of wrapped functions they call.  Unwrapped code,
such as the adapter closures the runners hand to the integrator, counts
toward the innermost wrapped caller.
"""

from __future__ import annotations

import dataclasses
import glob
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

# (module, function, layer, counter) for the plain span wrappers
SPANS = (
    ("models", "fold_rhs", "models", "models.rhs_evals"),
    ("models", "vdp_rhs", "models", "models.rhs_evals"),
    ("models", "quadratic_gap_phi2", "models", None),
    ("blowup", "k2_field", "blowup", "blowup.field_evals"),
    ("blowup", "k1_vdp_field", "blowup", "blowup.field_evals"),
    ("controllers", "fast_u", "controllers", "controllers.evals"),
    ("controllers", "slow_u", "controllers", "controllers.evals"),
    ("controllers", "k2_mu", "controllers", "controllers.evals"),
    ("controllers", "k1_vdp_mu", "controllers", "controllers.evals"),
    ("controllers", "composite_u", "controllers", "controllers.evals"),
    ("controllers", "lyapunov_L2", "controllers", None),
    ("controllers", "k1_chart_phi1", "controllers", None),
    ("core", "eval_level_term", "core", "core.level_evals"),
    ("core", "eval_H2", "core", "core.level_evals"),
    ("sim", "convergence_metrics", "sim.convergence", None),
    ("mmo", "classify_loops", "mmo", None),
    ("verify", "run_verification", "verify", None),
    ("cli", "_write_metrics", "cli.metrics", None),
)
# writers whose output size is counted: (module, function, layer, prefix)
WRITERS = (
    ("svgplot", "emit_phase_svg", "svgplot", "svgplot"),
    ("svgplot", "emit_timeseries_svg", "svgplot", "svgplot"),
    ("cli", "_write_trajectory_csv", "cli.csv", "cli.csv"),
)
ENGINES = ("integrate", "integrate_vector")


class Tracer:
    """Span stack with per-layer self time and named counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = [0.0]  # time of wrapped children, per open span

    def span(self, layer, fn, counter=None, after=None):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child
                if counter is not None:
                    counts[counter] += 1
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return _named_like(wrapper, fn)


def _named_like(wrapper, fn):
    # a --jobs pool pickles cli._run_one by module and qualified name, so the
    # wrapper installed under that name must carry them
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    wrapper.__wrapped__ = fn
    return wrapper


def _trajectory_shape(result):
    """(points, events) of an integrate / integrate_vector return value."""
    if hasattr(result, "times"):
        return len(result.times), len(result.events)
    return len(result[0]), len(result[2])


class Patcher:
    """Replaces every binding of a function across the loaded package."""

    def __init__(self):
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if m is not None and (name == "canardctl"
                                              or name.startswith("canardctl."))]
        self.missing = []

    def patch(self, module, name, make_wrapper):
        original = getattr(sys.modules.get(f"canardctl.{module}"), name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapper = make_wrapper(original)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _engine_wrapper(tracer, fn, full):
    """Counts calls, accepted steps and events from returned trajectories;
    with ``full`` also field evaluations and watcher calls."""
    sig = inspect.signature(fn)
    field_arg = next(iter(sig.parameters))  # rhs of integrate, fun of integrate_vector
    counts = tracer.counts

    def wrap_watcher(w):
        return dataclasses.replace(
            w, fn=tracer.span("sim.watcher", w.fn, "sim.watcher_evals"))

    def record(result, evals):
        points, events = _trajectory_shape(result)
        counts["sim.integrate_calls"] += 1
        counts["sim.accepted_steps"] += points - 1
        counts["sim.events"] += events
        if full:
            # 2 evaluations per call (start value, step probe), 6 per attempt;
            # a step cut short by a fault counts as one attempt
            counts["sim.field_evals"] += evals
            counts["sim.attempted_steps"] += math.ceil(max(0, evals - 2) / 6)

    def call(*args, **kwargs):
        evals = [0]
        if full:
            bound = sig.bind(*args, **kwargs)
            field = bound.arguments[field_arg]

            def counted_field(*a):
                evals[0] += 1
                return field(*a)

            bound.arguments[field_arg] = counted_field
            if "watchers" in bound.arguments:
                bound.arguments["watchers"] = [
                    wrap_watcher(w) for w in bound.arguments["watchers"]]
            args, kwargs = bound.args, bound.kwargs
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            partial = getattr(exc, "trajectory", None)
            if partial is not None:
                record(partial, evals[0])
            raise
        record(result, evals[0])
        return result

    return call


def _snapshot(tracer, busy):
    return {"busy_s": busy, "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts)}


def install(tracer, full, report):
    """Wrap the package for a ``plain`` (full=False) or ``trace`` pass.

    A batch run with ``--jobs`` forks its pool workers after this, so they
    inherit the wrappers; each worker rewrites ``REPORT.<pid>`` after every
    config it runs.
    """
    import canardctl.cli  # noqa: F401  (loads every module the CLI uses)

    patcher = Patcher()
    busy = []
    parent = os.getpid()

    def after_run_one(args, kwargs, result, dt):
        busy.append(dt)
        if os.getpid() != parent:
            with open(f"{report}.{os.getpid()}", "w", encoding="utf-8") as fh:
                json.dump(_snapshot(tracer, busy), fh)

    patcher.patch("cli", "_run_one",
                  lambda f: tracer.span("cli", f, "cli.configs", after_run_one))
    for name in ENGINES:
        patcher.patch("sim", name, lambda f: tracer.span(
            "sim", _named_like(_engine_wrapper(tracer, f, full), f)))
    if not full:
        return patcher, busy

    def after_pattern(args, kwargs, result, dt):
        tracer.counts["mmo.loops"] += len(result[1])

    patcher.patch("mmo", "run_pattern",
                  lambda f: tracer.span("mmo", f, None, after_pattern))
    for module, name, layer, counter in SPANS:
        patcher.patch(module, name, lambda f: tracer.span(layer, f, counter))
    for module, name, layer, prefix in WRITERS:
        def make(f, layer=layer, prefix=prefix):
            sig = inspect.signature(f)

            def after(args, kwargs, result, dt):
                path = sig.bind(*args, **kwargs).arguments["path"]
                tracer.counts[f"{prefix}.files"] += 1
                tracer.counts[f"{prefix}.bytes"] += os.path.getsize(path)

            return tracer.span(layer, f, None, after)

        patcher.patch(module, name, make)
    return patcher, busy


def main(argv):
    mode, report, rest = argv[0], argv[1], argv[2:]
    from canardctl import cli

    if mode == "setup":
        for path in rest:
            cli.ExperimentConfig.from_file(path)
        return 0

    tracer = Tracer()
    patcher, busy = install(tracer, mode == "trace", report)
    run = tracer.span("cli", cli.main)
    t0 = time.perf_counter()
    code = run(rest)
    wall = time.perf_counter() - t0
    doc = _snapshot(tracer, busy)
    for part in sorted(glob.glob(glob.escape(report) + ".*")):
        with open(part, encoding="utf-8") as fh:
            worker = json.load(fh)
        os.unlink(part)
        doc["busy_s"] += worker["busy_s"]
        for key in ("self_s", "counts"):
            for name, value in worker[key].items():
                doc[key][name] = doc[key].get(name, 0) + value
    doc.update(mode=mode, exit=code, wall_s=wall, missing=patcher.missing)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

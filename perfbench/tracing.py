"""Traced in-process run: the same calls through gaborflow.cli.main, timed
layer by layer with wrappers installed from here; the library is untouched.

Stage functions become spans (name, start, end, parent, call).  Callees that
can run 10^5 times in one call (the overlap kernel, Siegel checks, Hamiltonian
derivatives, variational steps) are counters: calls and summed time, charged
to the enclosing span so self times stay exact.  Each call also runs once
without wrappers; the difference is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from checks import Checker
from envinfo import import_breakdown
from loop import another_round, child_env

BUILTIN_HAMILTONIANS = ("harmonic", "free", "shear", "anharmonic", "driven")


def _result_size(res, a, kw):
    return int(np.size(res))


def _rows(res, a, kw):
    return int(np.shape(res)[0])


def _point_steps(res, a, kw):
    H = a[0] if a else kw["H"]
    z0 = a[1] if len(a) > 1 else kw["z0"]
    steps = a[3] if len(a) > 3 else kw["steps"]
    return (np.size(z0) // (2 * H.n)) * int(steps)


def _overlap_evals(a, kw):
    Z2 = a[2] if len(a) > 2 else kw["Z2"]
    shape = np.shape(Z2)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# (module, function, span name, measure of the result stored as the span's size)
SPANS = (
    ("cli", "_write_output", "cli.write_output", None),
    ("config", "build_system", "config.build", None),
    ("config", "build_window", "config.build", None),
    ("config", "build_hamiltonian", "config.build", None),
    ("symplectic", "lattice_points", "symplectic.lattice_points", _rows),
    ("gaussians", "siegel_action", "gaussians.siegel_action", None),
    ("frames", "frame_bounds", "frames.frame_bounds", None),
    ("frames", "deficiency_witnesses", "frames.witnesses", None),
    ("frames", "build_test_family", "frames.test_family", None),
    ("frames", "_frame_vectors", "frames.frame_vectors", _result_size),
    ("frames", "_family_gram", "frames.family_gram", None),
    ("frames", "_gram_matrix", "frames.gram", _rows),
    ("frames", "residual_tail_estimate", "frames.tail_estimate", None),
    ("frames", "frame_terms", "frames.frame_terms", None),
    ("dynamics", "integrate", "dynamics.integrate", _point_steps),
    ("dynamics", "flow_map", "dynamics.flow_map", None),
    ("dynamics", "quadratic_flow", "dynamics.quadratic_flow", None),
    ("deformation", "weak_deform", "deformation.weak_deform", None),
    ("deformation", "invariance_check", "deformation.invariance_check", None),
)

# (module, function, counter name, evaluations per call)
COUNTERS = (
    ("gaussians", "_overlap_core", "gaussians.overlap", _overlap_evals),
    ("gaussians", "check_siegel", "gaussians.check_siegel", None),
    ("dynamics", "_variational_rk4_step", "dynamics.variational", None),
)


# The per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "cli.import_s", "cli.import.scipy_s", "cli.write_output_s", "config.build_s",
    "symplectic.lattice_points.calls", "symplectic.lattice_points.s",
    "symplectic.points_enumerated",
    "gaussians.overlap.calls", "gaussians.overlap.evals", "gaussians.overlap.s",
    "gaussians.check_siegel.calls", "gaussians.check_siegel.s",
    "gaussians.siegel_action.calls", "gaussians.siegel_action.s",
    "frames.frame_bounds.calls", "frames.frame_bounds.s", "frames.frame_bounds.self_s",
    "frames.gram.s", "frames.gram.n", "frames.gram.bytes",
    "frames.test_family.s", "frames.witnesses.self_s",
    "frames.frame_vectors.calls", "frames.frame_vectors.evals", "frames.frame_vectors.s",
    "frames.family_gram.s", "frames.frame_terms.calls", "frames.frame_terms.s",
    "dynamics.integrate.calls", "dynamics.integrate.s", "dynamics.integrate.point_steps",
    "dynamics.point_steps_per_s", "dynamics.flow_map.calls",
    "dynamics.derivs.calls", "dynamics.derivs.s", "dynamics.variational.s",
    "dynamics.quadratic_flow.calls", "dynamics.quadratic_flow.s",
    "deformation.weak_deform.calls", "deformation.weak_deform.s",
    "deformation.weak_deform.self_s", "deformation.invariance_check.s",
    "expressions.derivs.calls", "expressions.derivs.s", "trace.overhead_frac",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "child", "agg", "size", "nested")

    def __init__(self, name, start, parent, call, nested):
        self.name, self.start, self.parent, self.call = name, start, parent, call
        self.nested = nested
        self.end = self.child = self.agg = 0.0
        self.size = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child - self.agg


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, list] = {}
        self.active: set[str] = set()
        self.call = -1

    def span(self, name: str, fn, size=None):
        spans, stack = self.spans, self.stack

        def wrapped(*a, **kw):
            node = Span(name, perf_counter(), stack[-1] if stack else None, self.call,
                        any(s.name == name for s in stack))
            spans.append(node)
            stack.append(node)
            try:
                res = fn(*a, **kw)
            finally:
                node.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += node.end - node.start
            if size is not None:
                node.size = size(res, a, kw)
            return res

        return wrapped

    def counter(self, name: str, fn, evals=None):
        stat = self.counters.setdefault(name, [0, 0, 0.0])
        active, stack = self.active, self.stack

        def wrapped(*a, **kw):
            if name in active:
                return fn(*a, **kw)
            outer = not active
            active.add(name)
            t0 = perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                dt = perf_counter() - t0
                active.discard(name)
                stat[0] += 1
                stat[2] += dt
                if evals is not None:
                    stat[1] += evals(a, kw)
                if outer and stack:
                    stack[-1].agg += dt

        return wrapped

    def hamiltonian(self, H):
        """The same Hamiltonian with every callable counted."""
        if not dataclasses.is_dataclass(H):
            return H
        name = "dynamics.derivs" if H.name in BUILTIN_HAMILTONIANS else "expressions.derivs"
        wrap = {k: self.counter(name, getattr(H, k)) for k in ("value", "gradient", "hessian")
                if callable(getattr(H, k, None))}
        sep = getattr(H, "separable", None)
        if dataclasses.is_dataclass(sep):
            wrap["separable"] = dataclasses.replace(sep, **{
                f.name: self.counter(name, getattr(sep, f.name))
                for f in dataclasses.fields(sep) if callable(getattr(sep, f.name))})
        return dataclasses.replace(H, **wrap)


class Patcher:
    """Swaps each target for its wrapper in every gaborflow module that bound
    it, including names bound with `from ... import`."""

    def __init__(self, tracer: Tracer):
        self.swaps = []
        self.missing = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "gaborflow" or k.startswith("gaborflow.")) and m is not None]
        plan = [(mod, fn, False, name, extra) for mod, fn, name, extra in SPANS]
        plan += [(mod, fn, True, name, extra) for mod, fn, name, extra in COUNTERS]
        for mod, fn, is_counter, name, extra in plan:
            orig = getattr(sys.modules.get(f"gaborflow.{mod}"), fn, None)
            if orig is None:
                self.missing.append(f"{mod}.{fn}")
                continue
            if is_counter:
                wrapper = tracer.counter(name, orig, extra)
            elif (mod, fn) == ("config", "build_hamiltonian"):
                def built(*a, _orig=orig, **kw):
                    return tracer.hamiltonian(_orig(*a, **kw))
                wrapper = tracer.span(name, built)
            else:
                wrapper = tracer.span(name, orig, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self.swaps.append((m, attr, orig, wrapper))

    def enable(self):
        for m, attr, _, wrapper in self.swaps:
            setattr(m, attr, wrapper)

    def disable(self):
        for m, attr, orig, _ in self.swaps:
            setattr(m, attr, orig)


def _call_main(cli, argv) -> tuple[float, int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a bare traceback is a failed call, not a crash of the run
            traceback.print_exc()
            code = -1
    return perf_counter() - t0, code, out.getvalue().encode(), err.getvalue()


def _subtree_self(spans: list[Span], root: Span) -> dict[str, float]:
    """Self seconds by span name over the subtree of root, plus counter time."""
    inside = {id(root)}
    out = {"counted callees": root.agg, root.name: root.self_s}
    for s in spans:
        if s.parent is not None and id(s.parent) in inside:
            inside.add(id(s))
            out[s.name] = out.get(s.name, 0.0) + s.self_s
            out["counted callees"] += s.agg
    return out


def layer_metrics(tracer: Tracer, rounds: int, plain_s: float, traced_s: float,
                  import_s: float, scipy_s: float) -> dict:
    """Per-layer values per round of the workload (totals over the traced
    passes divided by the number of rounds), except the import times, the
    largest Gram, the integrator rate and the tracing overhead."""
    total, count, own, size, largest = {}, {}, {}, {}, {}
    for s in tracer.spans:
        if s.nested:
            continue
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        count[s.name] = count.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + s.self_s
        if s.size is not None:
            size[s.name] = size.get(s.name, 0) + s.size
            largest[s.name] = max(largest.get(s.name, 0), s.size)

    def spans(name, prefix=None):
        """calls, s and self_s of one span name, per round."""
        prefix = prefix or name
        return {f"{prefix}.calls": (count.get(name, 0) / rounds, "count"),
                f"{prefix}.s": (total.get(name, 0.0) / rounds, "s"),
                f"{prefix}.self_s": (own.get(name, 0.0) / rounds, "s")}

    def counter(name):
        calls, evals, secs = tracer.counters.get(name, (0, 0, 0.0))
        return {f"{name}.calls": (calls / rounds, "count"),
                f"{name}.evals": (evals / rounds, "count"),
                f"{name}.s": (secs / rounds, "s")}

    every = {}
    for name in sorted(set(total) | {s[2] for s in SPANS}):
        every.update(spans(name))
    for name in sorted(set(tracer.counters) | {c[2] for c in COUNTERS}
                       | {"dynamics.derivs", "expressions.derivs"}):
        every.update(counter(name))
    integrate_s = total.get("dynamics.integrate", 0.0)
    steps = size.get("dynamics.integrate", 0)
    gram_n = largest.get("frames.gram", 0)
    every.update({
        "cli.import_s": (import_s, "s"),
        "cli.import.scipy_s": (scipy_s, "s"),
        "cli.write_output_s": every["cli.write_output.s"],
        "config.build_s": every["config.build.s"],
        "symplectic.points_enumerated": (size.get("symplectic.lattice_points", 0) / rounds,
                                         "count"),
        "frames.gram.n": (gram_n, "count"),
        "frames.gram.bytes": (gram_n * gram_n * 16, "bytes"),
        "frames.frame_vectors.evals": (size.get("frames.frame_vectors", 0) / rounds, "count"),
        "dynamics.integrate.point_steps": (steps / rounds, "count"),
        "dynamics.point_steps_per_s": (steps / integrate_s if integrate_s else 0.0, "1/s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    return {name: every[name] for name in LAYER_METRICS}


def run(calls, seconds: float, root, log) -> dict:
    """Run whole rounds in process, each call once plain and once traced."""
    import_s, scipy_s = import_breakdown(root, child_env(root))
    sys.path.insert(0, str(root / "src"))
    import gaborflow.cli as cli

    tracer = Tracer()
    patcher = Patcher(tracer)
    checker = Checker()
    digests: dict[tuple, bytes] = {}
    attempted = failed = rounds = 0
    plain_s = traced_s = 0.0
    breakdowns = []
    # one round suffices: each call already runs twice, plain and traced
    while another_round(plain_s + traced_s, rounds, seconds, least=1):
        for call in calls:
            # alternate which pass goes first, so warm caches favour neither
            if attempted % 2:
                plain = _call_main(cli, call.argv)
            first = len(tracer.spans)
            tracer.call = attempted
            patcher.enable()
            try:
                traced = _call_main(cli, call.argv)
            finally:
                patcher.disable()
            if not attempted % 2:
                plain = _call_main(cli, call.argv)
            attempted += 1
            plain_s += plain[0]
            traced_s += traced[0]
            if call.kind == "frame-check" and rounds == 0:
                new = tracer.spans[first:]
                breakdowns += [(s.end - s.start, _subtree_self(new, s)) for s in new
                               if s.name == "frames.frame_bounds" and not s.nested]
            _, code, out, err = plain
            problems, _ = checker.check(call, code, out)
            if traced[1:3] != (code, out):
                problems.append("traced output differs from the plain run")
            if digests.setdefault(call.argv, out) != out:
                problems.append("output bytes differ from an earlier run of the same argv")
            if problems:
                failed += 1
                log(f"FAIL {call.label}: " + "; ".join(problems)
                    + (f"; stderr: {err[-300:]}" if err else ""))
        rounds += 1
    return {
        "metrics": layer_metrics(tracer, rounds, plain_s, traced_s, import_s, scipy_s),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
        "missing": patcher.missing,
        "breakdowns": breakdowns,
    }


def dump(tracer: Tracer, path, extra: dict):
    """Write the spans and counters kept in memory during the run."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    doc = dict(extra)
    doc["spans"] = [[s.name, s.start, s.end, index.get(id(s.parent), -1), s.call]
                    for s in tracer.spans]
    doc["counters"] = {k: {"calls": v[0], "evals": v[1], "s": v[2]}
                       for k, v in tracer.counters.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)

"""Spans around every public entry point of ``contraction_lab``, from outside.

``Tracer.installed()`` replaces each public function of the package at every
module attribute that binds it (``integrate`` is bound in ``dynamics``,
``counterexample``, ``entrainment``, ``flowspace``, ``cli`` and the package
itself), plus the class-level hot methods listed in ``METHODS``, and puts
every original back on exit.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out by ``save``.  Calls nest strictly in one thread, so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "contraction_lab"

# (module, class, method, span name)
METHODS = (
    ("dynamics", "VectorField", "__call__", "dynamics.field_eval"),
    ("dynamics", "InputSignal", "eval", "dynamics.signal_eval"),
    ("dynamics", "InputSignal", "eval_left", "dynamics.signal_eval"),
    ("contraction", "RiemannianMetric", "eval", "contraction.metric_eval"),
    ("contraction", "RiemannianMetric", "grad", "contraction.metric_eval"),
    ("flowspace", "FlowMap", "apply", "flowspace.flow_apply"),
)

CLI_COMMANDS = (
    "find-rstar",
    "ges-check",
    "circle-orbit",
    "divergence",
    "entrainment-linear",
    "metric-certify",
    "metric-violate",
    "uniform-contraction",
    "bounded-metric",
    "thm3-example1",
    "thm3-example2",
    "flow-compose",
    "flow-limit",
    "report",
)

COUNT, SECONDS = "count", "s"
LAYER_UNITS = {
    "dynamics.integrate.calls": COUNT,
    "dynamics.integrate.self_s": SECONDS,
    "dynamics.field_evals": COUNT,
    "dynamics.field_eval_s": SECONDS,
    "dynamics.signal_evals": COUNT,
    "dynamics.signal_eval_s": SECONDS,
    "dynamics.steps_accepted": COUNT,
    "dynamics.segments": COUNT,
    "dynamics.evals_per_step": "evals/step",
    "dynamics.steps_per_s": "1/s",
    "linalg.eig_1x1.calls": COUNT,
    "linalg.eig_nxn.calls": COUNT,
    "linalg.eig.self_s": SECONDS,
    "linalg.eig_nxn.s": SECONDS,
    "contraction.contraction_matrix.calls": COUNT,
    "contraction.contraction_matrix.self_s": SECONDS,
    "contraction.metric_evals": COUNT,
    "contraction.region.points": COUNT,
    "contraction.region.self_s": SECONDS,
    "contraction.region.points_per_s": "1/s",
    "contraction.violating_search.s": SECONDS,
    "counterexample.find_r_star.s": SECONDS,
    "counterexample.verify_ges.self_s": SECONDS,
    "parallel.ordered_map.s": SECONDS,
    "entrainment.return_maps": COUNT,
    "entrainment.return_map.s": SECONDS,
    "entrainment.iterations": COUNT,
    "entrainment.detect.self_s": SECONDS,
    "flowspace.flow_applies": COUNT,
    "flowspace.flow_apply.s": SECONDS,
    "flowspace.pieces": COUNT,
    "flowspace.check.self_s": SECONDS,
    "constant_metric.hull_tests": COUNT,
    "constant_metric.hull.s": SECONDS,
    "constant_metric.ratio_evals": COUNT,
    "constant_metric.check.self_s": SECONDS,
    "certificates.serialize.calls": COUNT,
    "certificates.serialize.s": SECONDS,
    "certificates.bytes": "bytes",
    **{f"cli.{command}.s": SECONDS for command in CLI_COMMANDS},
    "trace.spans": COUNT,
    "trace.overhead_s": SECONDS,
}


def _span_name(fn) -> str:
    module = fn.__module__.removeprefix(PACKAGE).lstrip(".").lstrip("_") or PACKAGE
    return f"{module}.{fn.__name__}"


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, name_fn=None, hook=None):
        tracer = self
        fixed = self.id_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.span_start)
            tracer.span_name.append(name_fn(args, kwargs) if name_fn else fixed)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.span_start[sid] = t0
                tracer.span_end[sid] = t1
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return traced

    def _special(self, name, fn):
        """Dynamic span names and result counters for the functions that need them."""
        if name == "linalg.symmetric_eigenvalues":
            one, many = self.id_of(name + ".1x1"), self.id_of(name + ".nxn")
            return (lambda args, kwargs: one if np.size(args[0] if args else kwargs["a"]) == 1 else many), None
        if name == "cli.main":

            def cli_name(args, kwargs):
                argv = list(_bound(fn, args, kwargs).get("argv") or sys.argv[1:])
                command = argv[1] if argv[:1] == ["run"] and len(argv) > 1 else (argv[0] if argv else "none")
                return self.id_of(f"cli.{command}")

            return cli_name, None
        hooks = {
            "dynamics.integrate": self._on_integrate,
            "contraction.check_contraction_region": self._on_region,
            "entrainment.detect_entrainment": self._on_detect,
            "flowspace.check_piecewise_contraction": self._on_piecewise,
            "flowspace.check_limit_contraction": self._on_limit,
            "certificates.dumps_fixed": self._on_dumps,
        }
        hook = hooks.get(name)
        return None, (functools.partial(hook, fn) if hook else None)

    def _on_integrate(self, fn, sid, args, kwargs, traj):
        bound = _bound(fn, args, kwargs)
        t0, t1 = float(bound["t_span"][0]), float(bound["t_span"][1])
        self.counts["steps"] += len(traj.times) - 1
        self.counts["segments"] += 1 + len(bound["signal"].breakpoints_in(t0, t1))

    def _on_region(self, fn, sid, args, kwargs, cert):
        self.counts["region_points"] += int(np.prod(cert.grid_spec["counts"]))

    def _on_detect(self, fn, sid, args, kwargs, verdict):
        self.counts["iterations"] += verdict.iterations

    def _on_piecewise(self, fn, sid, args, kwargs, cert):
        self.counts["pieces"] += _bound(fn, args, kwargs)["schedule"].piece_count()

    def _on_limit(self, fn, sid, args, kwargs, cert):
        self.counts["pieces"] += 2 ** (int(_bound(fn, args, kwargs)["refinement_levels"]) + 1) - 1

    def _on_dumps(self, fn, sid, args, kwargs, text):
        parent = self.span_parent[sid]
        if parent < 0 or self.span_name[parent] != self._ids["certificates.dumps_fixed"]:
            self.counts["bytes"] += len(text.encode("utf-8"))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function and hot method; restore all on exit."""
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            modules = [
                mod
                for key, mod in list(sys.modules.items())
                if (key == PACKAGE or key.startswith(PACKAGE + ".")) and key != PACKAGE + ".__main__"
            ]
            wrappers = {}
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("_") or not isinstance(value, types.FunctionType):
                        continue
                    if not value.__module__.startswith(PACKAGE):
                        continue
                    if value not in wrappers:
                        name = _span_name(value)
                        name_fn, hook = self._special(name, value)
                        wrappers[value] = self._wrap(value, name, name_fn, hook)
                    patch(mod, attr, wrappers[value])
            for module, cls_name, method, name in METHODS:
                base = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
                for cls in _with_subclasses(base):
                    if method in cls.__dict__:
                        patch(cls, method, self._wrap(cls.__dict__[method], name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _arrays(self):
        """(name, parent, start, end) as NumPy arrays."""
        return (
            np.array(self.span_name, dtype=np.intc),
            np.array(self.span_parent, dtype=np.intc),
            np.array(self.span_start, dtype=float),
            np.array(self.span_end, dtype=float),
        )

    def layer_metrics(self) -> dict:
        """Per-layer metrics over every span and counter recorded."""
        name, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def mask(*names, top_level=False):
            ids = [self._ids[n] for n in names if n in self._ids]
            m = np.isin(name, ids)
            if top_level:
                m &= ~np.isin(parent_name, ids)
            return m

        def calls(*names, **kw):
            return float(np.count_nonzero(mask(*names, **kw)))

        def incl(*names, **kw):
            return float(np.sum(dur[mask(*names, **kw)]))

        def self_s(*names):
            return float(np.sum(self_time[mask(*names)]))

        integrate = self._ids.get("dynamics.integrate", -2)
        inside = np.zeros(len(name), dtype=bool)
        cursor = parent.copy()
        while np.any(cursor >= 0):
            live = cursor >= 0
            inside |= live & (name[np.maximum(cursor, 0)] == integrate)
            cursor = np.where(live, parent[np.maximum(cursor, 0)], -1)
        evals_in_integrate = float(np.count_nonzero(mask("dynamics.field_eval") & inside))

        steps = float(self.counts["steps"])
        region_time = incl("contraction.check_contraction_region")
        integrate_time = incl("dynamics.integrate")
        eig = ("linalg.symmetric_eigenvalues.1x1", "linalg.symmetric_eigenvalues.nxn")
        out = {
            "dynamics.integrate.calls": calls("dynamics.integrate"),
            "dynamics.integrate.self_s": self_s("dynamics.integrate"),
            "dynamics.field_evals": calls("dynamics.field_eval"),
            "dynamics.field_eval_s": incl("dynamics.field_eval"),
            "dynamics.signal_evals": calls("dynamics.signal_eval", top_level=True),
            "dynamics.signal_eval_s": incl("dynamics.signal_eval", top_level=True),
            "dynamics.steps_accepted": steps,
            "dynamics.segments": float(self.counts["segments"]),
            "linalg.eig_1x1.calls": calls(eig[0]),
            "linalg.eig_nxn.calls": calls(eig[1]),
            "linalg.eig.self_s": self_s(*eig, "linalg.max_eigenvalue", "linalg.spectral_norm"),
            "linalg.eig_nxn.s": incl(eig[1]),
            "contraction.contraction_matrix.calls": calls("contraction.contraction_matrix"),
            "contraction.contraction_matrix.self_s": self_s("contraction.contraction_matrix"),
            "contraction.metric_evals": calls("contraction.metric_eval"),
            "contraction.region.points": float(self.counts["region_points"]),
            "contraction.region.self_s": self_s("contraction.check_contraction_region"),
            "contraction.violating_search.s": incl("contraction.find_violating_input"),
            "counterexample.find_r_star.s": incl("counterexample.find_r_star"),
            "counterexample.verify_ges.self_s": self_s("counterexample.verify_ges"),
            "parallel.ordered_map.s": incl("parallel.ordered_map"),
            "entrainment.return_maps": calls("entrainment.poincare_map"),
            "entrainment.return_map.s": incl("entrainment.poincare_map"),
            "entrainment.iterations": float(self.counts["iterations"]),
            "entrainment.detect.self_s": self_s("entrainment.detect_entrainment"),
            "flowspace.flow_applies": calls("flowspace.flow_apply"),
            "flowspace.flow_apply.s": incl("flowspace.flow_apply"),
            "flowspace.pieces": float(self.counts["pieces"]),
            "flowspace.check.self_s": self_s("flowspace.check_piecewise_contraction", "flowspace.check_limit_contraction"),
            "constant_metric.hull_tests": calls("constant_metric.hull_contains_ball"),
            "constant_metric.hull.s": incl("constant_metric.hull_contains_ball"),
            "constant_metric.ratio_evals": calls("constant_metric.jacobian_field_ratio"),
            "constant_metric.check.self_s": self_s("constant_metric.check_constant_metric_conditions"),
            "certificates.serialize.calls": calls("certificates.dumps_fixed", top_level=True),
            "certificates.serialize.s": incl("certificates.dumps_fixed", top_level=True),
            "certificates.bytes": float(self.counts["bytes"]),
            **{f"cli.{c}.s": incl(f"cli.{c}") for c in CLI_COMMANDS},
            "trace.spans": float(len(name)),
        }
        out["dynamics.evals_per_step"] = evals_in_integrate / steps if steps else 0.0
        out["dynamics.steps_per_s"] = steps / integrate_time if integrate_time else 0.0
        points = float(self.counts["region_points"])
        out["contraction.region.points_per_s"] = points / region_time if region_time else 0.0
        return out

    def save(self, path) -> None:
        """Write every span and counter (compressed NumPy archive)."""
        name, parent, start, end = self._arrays()
        origin = float(start.min()) if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start - origin,
            end=end - origin,
            counts=np.array(json.dumps(dict(self.counts))),
        )


def _with_subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found

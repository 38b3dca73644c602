"""Span tracing of lpmink's layers from outside the package.

The tracer wraps every public function of each ``lpmink`` module, the
energy profile's evaluation methods, and the scipy calls at the geometry
boundary (``ConvexHull``, ``linprog``). Each wrapped name is patched in
every ``lpmink`` module that binds it, because ``solver``, ``cli`` and
``energy`` import functions by name. Spans are kept in memory and written
out when the run ends.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("sphere", "geometry", "energy", "measures", "solver",
           "identities", "cli")

#: foreign callables bound in lpmink modules, traced under these layer names
FOREIGN = {"ConvexHull": "geometry.qhull", "linprog": "scipy.linprog"}

PROFILE_METHODS = ("phi", "dphi", "d2phi")

#: layers the per-layer metrics read; a missing one is a broken benchmark
REQUIRED = (
    "geometry.wulff_shape", "geometry.qhull", "geometry.chebyshev_center",
    "energy.optimal_center", "energy.profile", "energy.build_profile",
    "solver.solve", "solver.minimize_fixed_eps", "solver.evaluate_offsets",
    "solver.el_residual", "solver.verify",
    "measures.subspace_concentration_check", "measures.positive_hull_check",
    "measures.smooth_discrete", "measures.symmetrize_hemisphere",
    "measures.density_measure", "identities.fp_identity_matrix",
    "sphere.build_grid", "cli.main",
)


class Tracer:
    """Records one span per call of a wrapped function.

    A span is (layer, start, end, parent span id, operation id, failed,
    self time), where self time is the duration minus the time covered by
    the span's children.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self.accepted_steps = 0
        self._stack = []  # [span id, time covered by children]
        self._patches = []

    def wrap(self, layer, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            frame = [sid, 0.0]
            self._stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[sid] = (layer, start, end, parent, self.op, failed,
                                   end - start - frame[1])
        return traced

    def _count_steps(self, fn):
        """Count accepted descent steps through ``energy_trace``.

        ``minimize_fixed_eps`` appends the energy of its starting point and
        of every accepted step to ``energy_trace`` when given a list; the
        list survives a raised LineSearchError, where the return value
        does not.
        """
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            steps = kwargs.setdefault("energy_trace", [])
            start = len(steps)
            try:
                return fn(*args, **kwargs)
            finally:
                self.accepted_steps += max(len(steps) - start - 1, 0)
        return counted

    def install(self):
        """Patch every traced name; raise if one the metrics need is missing."""
        mods = {name: importlib.import_module("lpmink." + name) for name in MODULES}
        wrappers = {}  # id(original) -> wrapper
        layers = set()
        for modname, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                inner = obj
                if modname == "solver" and name == "minimize_fixed_eps":
                    inner = self._count_steps(obj)
                wrappers[id(obj)] = self.wrap("%s.%s" % (modname, name), inner)
                layers.add("%s.%s" % (modname, name))
        for name, layer in FOREIGN.items():
            for mod in mods.values():
                obj = vars(mod).get(name)
                if obj is not None and id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(layer, obj)
                    layers.add(layer)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not name.startswith("__"):
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        profile_cls = getattr(mods["energy"], "EnergyProfile", None)
        methods = {name: vars(profile_cls).get(name) if profile_cls else None
                   for name in PROFILE_METHODS}
        if all(methods.values()):
            for name, method in methods.items():
                self._patches.append((profile_cls, name, method))
                setattr(profile_cls, name, self.wrap("energy.profile", method))
            layers.add("energy.profile")
        missing = sorted(set(REQUIRED) - layers)
        if missing:
            self.uninstall()
            raise RuntimeError("traced names missing from lpmink: %s"
                               % ", ".join(missing))
        # every module must now see the wrapper, not the original
        for mod in mods.values():
            for name, obj in vars(mod).items():
                if id(obj) in wrappers and not name.startswith("__"):
                    self.uninstall()
                    raise RuntimeError("lpmink.%s still binds the unwrapped %s"
                                       % (mod.__name__, name))

    def uninstall(self):
        for owner, name, obj in reversed(self._patches):
            setattr(owner, name, obj)
        self._patches = []

    def layer_stats(self):
        """{layer: {"calls", "s", "self_s", "failed"}} over all spans."""
        stats = {}
        for layer, start, end, _, _, failed, self_s in self.spans:
            row = stats.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "failed": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
            row["failed"] += int(failed)
        return stats

    def child_calls(self, layer, parent_layer):
        """Number of ``layer`` spans whose parent span is ``parent_layer``."""
        return sum(1 for span in self.spans
                   if span[0] == layer and span[3] is not None
                   and self.spans[span[3]][0] == parent_layer)

    def write(self, path):
        """One JSON array per span, after a first line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["layer", "start", "end", "parent", "op",
                                 "failed", "self_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, records, untraced_s, traced_s):
    """The per-layer metrics of a traced pass, keyed as in BENCHMARK.json."""
    stats = tracer.layer_stats()

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    wulff_calls = get("geometry.wulff_shape", "calls")
    stages = get("solver.minimize_fixed_eps", "calls")
    trials = max(tracer.child_calls("solver.evaluate_offsets",
                                    "solver.minimize_fixed_eps") - stages, 0)
    steps = tracer.accepted_steps
    m = {
        "geometry.wulff_shape.calls": (wulff_calls, "count"),
        "geometry.wulff_shape.self_s": (get("geometry.wulff_shape", "self_s"), "s"),
        "geometry.wulff_shape.failed": (get("geometry.wulff_shape", "failed"), "count"),
        "geometry.qhull.calls": (get("geometry.qhull", "calls"), "count"),
        "geometry.qhull.s": (get("geometry.qhull", "s"), "s"),
        "geometry.qhull.per_body": (
            tracer.child_calls("geometry.qhull", "geometry.wulff_shape")
            / wulff_calls if wulff_calls else 0.0, "count/body"),
        "geometry.chebyshev_center.calls": (get("geometry.chebyshev_center", "calls"), "count"),
        "geometry.chebyshev_center.s": (get("geometry.chebyshev_center", "s"), "s"),
        "energy.optimal_center.calls": (get("energy.optimal_center", "calls"), "count"),
        "energy.optimal_center.self_s": (get("energy.optimal_center", "self_s"), "s"),
        "energy.optimal_center.failed": (get("energy.optimal_center", "failed"), "count"),
        "energy.profile.calls": (get("energy.profile", "calls"), "count"),
        "energy.profile.s": (get("energy.profile", "s"), "s"),
        "energy.build_profile.s": (get("energy.build_profile", "s"), "s"),
        "solver.outer_iters": (steps, "count"),
        "solver.stages": (stages, "count"),
        "solver.ms_per_iter": (
            1e3 * get("solver.minimize_fixed_eps", "s") / steps if steps else 0.0, "ms"),
        "solver.evaluate_offsets.calls": (get("solver.evaluate_offsets", "calls"), "count"),
        "solver.evaluate_offsets.self_s": (get("solver.evaluate_offsets", "self_s"), "s"),
        "solver.backtracks": (max(trials - steps, 0), "count"),
        "solver.ls_accept_ratio": (steps / trials if trials else 0.0, "ratio"),
        "solver.minimize_fixed_eps.self_s": (get("solver.minimize_fixed_eps", "self_s"), "s"),
        "solver.el_residual.s": (get("solver.el_residual", "s"), "s"),
        "solver.verify.calls": (get("solver.verify", "calls"), "count"),
        "solver.verify.s": (get("solver.verify", "s"), "s"),
        "measures.subspace_concentration_check.s": (
            get("measures.subspace_concentration_check", "s"), "s"),
        "measures.positive_hull_check.s": (get("measures.positive_hull_check", "s"), "s"),
        "measures.smooth_discrete.s": (get("measures.smooth_discrete", "s"), "s"),
        "measures.symmetrize_hemisphere.s": (get("measures.symmetrize_hemisphere", "s"), "s"),
        "measures.density_measure.s": (get("measures.density_measure", "s"), "s"),
        "identities.fp_identity_matrix.s": (get("identities.fp_identity_matrix", "s"), "s"),
        "sphere.build_grid.s": (get("sphere.build_grid", "s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.bytes_written": (sum(r.get("bytes", 0) for r in records), "bytes"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}

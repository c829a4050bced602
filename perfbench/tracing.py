"""Timing and counting wrappers around polyvem's public functions.

`Tracer.install` replaces each traced name in every polyvem module that
binds it (a function imported by name elsewhere is replaced there too),
and `uninstall` puts the originals back, so untraced rounds run the
unwrapped program.  A name the program no longer has is skipped and its
metrics are reported as absent.

Spans nest through a stack: a span's self time is its duration minus the
durations of its direct child spans.  A span entered again while it is
already open (find_or_compute recursing into its dependencies) is counted
but not timed again, so its time stays inside the outer call.
"""

import functools
import sys
import time

# (owner, attribute, span name, kind) where owner is "module" or
# "module:Class" or "module:DICT"; kind "time" records a span, "count"
# only counts calls
TRACED = [
    ("polyvem.mesh:PolyMesh", "__init__", "mesh.build", "time"),
    ("polyvem.mesh", "read_mesh", "mesh.read", "time"),
    ("polyvem.mesh", "write_mesh", "mesh.write", "time"),
    ("polyvem.mesh", "cut_mesh", "mesh.cut", "time"),
    ("polyvem.mesh", "merge_meshes", "mesh.merge", "time"),
    ("polyvem.mesh", "build_global_dofs", "mesh.dofmap", "time"),
    ("polyvem.geometry:Facet", "contains", "geometry.contains", "count"),
    ("polyvem.geometry", "triangulate", "geometry.triangulate", "time"),
    ("polyvem.quadrature", "polygon_rule", "quadrature.rule", "time"),
    ("polyvem.localmat", "find_or_compute", "localmat.matrix", "time"),
    ("polyvem.localmat", "load_vector", "localmat.load", "time"),
    ("polyvem.system", "assemble", "system.assemble", "time"),
    ("polyvem.system", "apply_dirichlet", "system.dirichlet", "time"),
    ("polyvem.system", "solve", "system.solve", "time"),
    ("polyvem.system:SOLVERS", "jacobi_cg", "system.cg", "time"),
    ("polyvem.system", "error_norms", "system.error_norms", "time"),
    ("polyvem.cli", "main", "cli.main", "time"),
]

# per-layer metric -> (span name, field, unit); field is "time", "self",
# "calls" or "iterations"
METRICS = {
    "mesh.build_s": ("mesh.build", "time", "s"),
    "mesh.build_calls": ("mesh.build", "calls", "count"),
    "mesh.read_s": ("mesh.read", "time", "s"),
    "mesh.write_s": ("mesh.write", "time", "s"),
    "mesh.cut_s": ("mesh.cut", "time", "s"),
    "mesh.merge_s": ("mesh.merge", "time", "s"),
    "geometry.contains_calls": ("geometry.contains", "calls", "count"),
    "cli.self_s": ("cli.main", "self", "s"),
    "mesh.dofmap_s": ("mesh.dofmap", "time", "s"),
    "mesh.dofmap_calls": ("mesh.dofmap", "calls", "count"),
    "localmat.matrix_s": ("localmat.matrix", "time", "s"),
    "localmat.matrix_requests": ("localmat.matrix", "calls", "count"),
    "localmat.load_s": ("localmat.load", "time", "s"),
    "quadrature.rule_s": ("quadrature.rule", "time", "s"),
    "quadrature.rule_calls": ("quadrature.rule", "calls", "count"),
    "geometry.triangulate_s": ("geometry.triangulate", "time", "s"),
    "geometry.triangulate_calls": ("geometry.triangulate", "calls", "count"),
    "system.assemble_s": ("system.assemble", "time", "s"),
    "system.assemble_self_s": ("system.assemble", "self", "s"),
    "system.error_norms_s": ("system.error_norms", "time", "s"),
    "system.dirichlet_s": ("system.dirichlet", "time", "s"),
    "system.solve_s": ("system.solve", "time", "s"),
    "system.reduce_s": ("system.solve", "self", "s"),
    "system.cg_s": ("system.cg", "time", "s"),
    "system.cg_iterations": ("system.solve", "iterations", "count"),
}


def _resolve(owner):
    module, _, inner = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, inner) if inner else obj


class Tracer:
    def __init__(self):
        self._installed = []
        self.missing = set()
        self.reset()

    def reset(self):
        self.time = {}
        self.self_time = {}
        self.calls = {}
        self.iterations = {}
        self._stack = []  # [name, child seconds] of each open span
        self._open = set()

    # -- wrappers --------------------------------------------------------

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            if name in self._open:
                return fn(*args, **kwargs)
            self._open.add(name)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._open.discard(name)
                self.time[name] = self.time.get(name, 0.0) + elapsed
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
            if hasattr(report, "iterations"):
                self.iterations[name] = self.iterations.get(name, 0) + report.iterations
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name that exists; remember the rest."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("polyvem")]
        for owner, attr, name, kind in TRACED:
            try:
                target = _resolve(owner)
                original = target[attr] if isinstance(target, dict) else getattr(target, attr)
            except (KeyError, AttributeError):
                self.missing.add(name)
                continue
            wrapped = (self._span if kind == "time" else self._counter)(name, original)
            if isinstance(target, dict):
                bindings = [(target, attr)]
            elif isinstance(target, type):
                bindings = [(target, attr)]
            else:
                # the defining module plus every module that imported the
                # function by name
                bindings = [(m, key) for m in modules for key, value in vars(m).items()
                            if value is original]
            for holder, key in bindings:
                self._set(holder, key, wrapped)
                self._installed.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._installed):
            self._set(holder, key, original)
        self._installed = []

    @staticmethod
    def _set(holder, key, value):
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Per-layer metric values of everything recorded since reset;
        None marks a metric whose traced name is missing."""
        out = {}
        for metric, (name, field, _) in METRICS.items():
            if name in self.missing:
                out[metric] = None
            elif field == "time":
                out[metric] = self.time.get(name, 0.0)
            elif field == "self":
                out[metric] = self.self_time.get(name, 0.0)
            elif field == "calls":
                out[metric] = self.calls.get(name, 0)
            else:
                out[metric] = self.iterations.get(name, 0)
        return out

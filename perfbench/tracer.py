"""Spans around gpmg's functions, installed from outside the package.

`HOOKS` is the one table of hooked names: dotted paths below the `gpmg`
package, each mapped to the span it records. A module-level function is
replaced in every `gpmg` module that imported it by name; a method is
replaced on its class. A name that no longer resolves is reported as
absent, and so is every metric that depends on it.

A span records its name, start, end, parent span and a few attributes read
at the boundary (the resolved linear method, CG iterations, the Schur
scalar, ...). A span's self time is its duration minus the durations of its
child spans; the code is single threaded, so children never overlap.
"""

import functools
import importlib
import sys
import time
import weakref

HOOKS = {
    "mesh.build_hierarchy": "mesh.hierarchy",
    "newton.build_contexts": "newton.contexts",
    "assembly.FemSpace.__init__": "assembly.space",
    "assembly.Operators.__init__": "assembly.operators",
    "assembly.assemble_field_weighted_mass": "assembly.field_mass",
    "assembly.prolongation_matrix": "assembly.prolongation",
    "eigsolve.scf_solve": "eigsolve.scf",
    "eigsolve.smallest_eigpair": "eigsolve.eigpair",
    "linsolve.SpdSolver.__init__": "linsolve.spd_setup",
    "linsolve.SpdSolver.solve": "linsolve.spd_solve",
    "linsolve.VCycleHierarchy.apply": "linsolve.vcycle",
    "linsolve.solve_bordered": "linsolve.bordered",
    "linsolve._solve_bordered_full": "linsolve.full_fallback",
    "newton.assemble_newton_system": "newton.system",
    "newton._build_vcycle": "newton.vcycle_setup",
    "newton.LevelContext.riesz_norm": "newton.riesz",
    "newton.resi": "newton.resi",
    "newton._traced_resi": "newton.trace_resi",
    "newton.mixing_iteration": "newton.mixing",
    "newton.multigrid_newton": "newton.driver",
    "newton.multigrid_mixing": "newton.driver",
}

DRIVERS = ("newton.multigrid_newton", "newton.multigrid_mixing")
# The hooks the untraced run needs for setup_s and solve_s.
E2E_HOOKS = ("mesh.build_hierarchy", "newton.build_contexts", *DRIVERS)
SETUP_SPANS = ("mesh.hierarchy", "newton.contexts")
DRIVER_SPAN = "newton.driver"


def _observe_spd_setup(attrs, args, result, memo):
    attrs["method"] = args[0].method


def _observe_spd_solve(attrs, args, result, memo):
    solver = args[0]
    counts = solver.iteration_counts
    seen = memo.get(solver, 0)
    memo[solver] = len(counts)
    attrs["cg_iterations"] = int(sum(counts[seen:]))


def _observe_bordered(attrs, args, result, memo):
    attrs["schur"] = float(result.schur)


def _observe_riesz(attrs, args, result, memo):
    attrs["first"] = args[0] not in memo
    memo[args[0]] = True


def _observe_scf(attrs, args, result, memo):
    attrs["iterations"] = int(result.scf_iterations)


def _observe_driver(attrs, args, result, memo):
    attrs["rows"] = [[r.level, r.n_dofs, r.wall_time_ms] for r in result[1]]


# Attributes read at the boundary; keyed like HOOKS. An observer that fails
# (the object changed shape) leaves its attributes out, which marks the
# metrics that need them as absent.
OBSERVERS = {
    "linsolve.SpdSolver.__init__": _observe_spd_setup,
    "linsolve.SpdSolver.solve": _observe_spd_solve,
    "linsolve.solve_bordered": _observe_bordered,
    "newton.LevelContext.riesz_norm": _observe_riesz,
    "eigsolve.scf_solve": _observe_scf,
    "newton.multigrid_newton": _observe_driver,
    "newton.multigrid_mixing": _observe_driver,
}


def _resolve(dotted):
    """(owner, attribute, object) for a dotted name below `gpmg`."""
    module, *path = dotted.split(".")
    owner = importlib.import_module(f"gpmg.{module}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    if isinstance(owner, type):
        # only a method the class defines itself, not an inherited slot
        return owner, path[-1], vars(owner)[path[-1]]
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    """Records spans in memory; `install` replaces the hooked callables."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._memo = weakref.WeakKeyDictionary()

    def install(self, names):
        for dotted in names:
            try:
                owner, attr, original = _resolve(dotted)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(dotted)
                continue
            wrapper = self._wrap(HOOKS[dotted], original, OBSERVERS.get(dotted))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "gpmg" or name.startswith("gpmg."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "attrs": {}}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["attrs"]["raised"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    observe(span["attrs"], args, result, self._memo)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            return result
        return wrapper

    def top_level_seconds(self, names):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None and s["name"] in names)


def self_times(spans):
    """Span id -> duration minus the durations of its children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Per-layer metrics: name -> (unit, hooks it needs). `layer_metrics`
# computes them from one traced solve's spans.
PER_LAYER = {
    "mesh.hierarchy_s": ("s", ["mesh.build_hierarchy"]),
    "assembly.space_s": ("s", ["assembly.FemSpace.__init__"]),
    "assembly.operators_s": ("s", ["assembly.Operators.__init__"]),
    "assembly.field_mass_s": ("s", ["assembly.assemble_field_weighted_mass"]),
    "assembly.field_mass_calls": ("count", ["assembly.assemble_field_weighted_mass"]),
    "assembly.prolongation_s": ("s", ["assembly.prolongation_matrix"]),
    "linsolve.spd_setup_s": ("s", ["linsolve.SpdSolver.__init__"]),
    "linsolve.method_direct": ("count", ["linsolve.SpdSolver.__init__"]),
    "linsolve.method_mg_cg": ("count", ["linsolve.SpdSolver.__init__"]),
    "linsolve.spd_solve_s": ("s", ["linsolve.SpdSolver.solve"]),
    "linsolve.spd_solves": ("count", ["linsolve.SpdSolver.solve"]),
    "linsolve.cg_iterations": ("count", ["linsolve.SpdSolver.solve"]),
    "linsolve.vcycle_s": ("s", ["linsolve.VCycleHierarchy.apply"]),
    "linsolve.vcycle_applies": ("count", ["linsolve.VCycleHierarchy.apply"]),
    "linsolve.bordered_s": ("s", ["linsolve.solve_bordered"]),
    "linsolve.bordered_calls": ("count", ["linsolve.solve_bordered"]),
    "linsolve.full_fallbacks": ("count", ["linsolve._solve_bordered_full"]),
    "linsolve.schur_min": ("1", ["linsolve.solve_bordered"]),
    "newton.system_s": ("s", ["newton.assemble_newton_system"]),
    "newton.vcycle_setup_s": ("s", ["newton._build_vcycle"]),
    "newton.riesz_first_s": ("s", ["newton.LevelContext.riesz_norm"]),
    "newton.riesz_rest_s": ("s", ["newton.LevelContext.riesz_norm"]),
    "newton.resi_s": ("s", ["newton.resi"]),
    "newton.resi_calls": ("count", ["newton.resi"]),
    "newton.trace_resi_s": ("s", ["newton._traced_resi"]),
    "newton.theta_trials": ("count", ["newton.mixing_iteration", "newton.resi"]),
    "newton.theta_accept_ratio": ("ratio", ["newton.mixing_iteration",
                                            "newton.resi"]),
    "newton.finest_step_s": ("s", ["newton._traced_resi", *DRIVERS]),
    "newton.finest_us_per_dof": ("us/dof", ["newton._traced_resi", *DRIVERS]),
    "newton.cost_growth": ("ratio", ["newton._traced_resi", *DRIVERS]),
    "eigsolve.scf_s": ("s", ["eigsolve.scf_solve"]),
    "eigsolve.scf_iterations": ("count", ["eigsolve.scf_solve"]),
    "eigsolve.eigpair_s": ("s", ["eigsolve.smallest_eigpair"]),
    "eigsolve.eigpair_calls": ("count", ["eigsolve.smallest_eigpair"]),
    "trace.coverage": ("ratio", list(DRIVERS)),
    "trace.overhead": ("ratio", []),
}


def absent_metrics(absent_hooks):
    """Names of the per-layer metrics that need one of the absent hooks."""
    absent = set(absent_hooks)
    return {name for name, (_, hooks) in PER_LAYER.items()
            if absent.intersection(hooks)}


def layer_metrics(spans):
    """Per-layer metrics of one traced solve (all but trace.overhead).

    `_s` metrics are self times summed over a span name, except
    newton.trace_resi_s, which is the inclusive time of the finest-space
    diagnostic, and newton.finest_step_s, the finest row's time minus that
    diagnostic. A value is None when an attribute it needs is missing.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def self_s(name):
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def attrs(name, key):
        vals = [s["attrs"].get(key) for s in by_name.get(name, [])]
        return None if None in vals else vals

    def duration(s):
        return s["end"] - s["start"]

    out = {
        "mesh.hierarchy_s": self_s("mesh.hierarchy"),
        "assembly.space_s": self_s("assembly.space"),
        "assembly.operators_s": self_s("assembly.operators"),
        "assembly.field_mass_s": self_s("assembly.field_mass"),
        "assembly.field_mass_calls": count("assembly.field_mass"),
        "assembly.prolongation_s": self_s("assembly.prolongation"),
        "linsolve.spd_setup_s": self_s("linsolve.spd_setup"),
        "linsolve.spd_solve_s": self_s("linsolve.spd_solve"),
        "linsolve.spd_solves": count("linsolve.spd_solve"),
        "linsolve.vcycle_s": self_s("linsolve.vcycle"),
        "linsolve.vcycle_applies": count("linsolve.vcycle"),
        "linsolve.bordered_s": self_s("linsolve.bordered"),
        "linsolve.bordered_calls": count("linsolve.bordered"),
        "linsolve.full_fallbacks": count("linsolve.full_fallback"),
        "newton.system_s": self_s("newton.system"),
        "newton.vcycle_setup_s": self_s("newton.vcycle_setup"),
        "newton.resi_s": self_s("newton.resi"),
        "newton.resi_calls": count("newton.resi"),
        "newton.trace_resi_s": sum(map(duration, by_name.get("newton.trace_resi", []))),
        "eigsolve.scf_s": self_s("eigsolve.scf"),
        "eigsolve.eigpair_s": self_s("eigsolve.eigpair"),
        "eigsolve.eigpair_calls": count("eigsolve.eigpair"),
    }

    methods = attrs("linsolve.spd_setup", "method")
    out["linsolve.method_direct"] = None if methods is None else methods.count("direct")
    out["linsolve.method_mg_cg"] = None if methods is None else methods.count("mg_cg")
    iters = attrs("linsolve.spd_solve", "cg_iterations")
    out["linsolve.cg_iterations"] = None if iters is None else sum(iters)
    schur = attrs("linsolve.bordered", "schur")
    out["linsolve.schur_min"] = min(schur) if schur else None
    scf = attrs("eigsolve.scf", "iterations")
    out["eigsolve.scf_iterations"] = None if scf is None else sum(scf)

    firsts = attrs("newton.riesz", "first")
    if firsts is None:
        out["newton.riesz_first_s"] = out["newton.riesz_rest_s"] = None
    else:
        riesz = by_name.get("newton.riesz", [])
        out["newton.riesz_first_s"] = sum(own[s["id"]] for s in riesz
                                          if s["attrs"]["first"])
        out["newton.riesz_rest_s"] = sum(own[s["id"]] for s in riesz
                                         if not s["attrs"]["first"])

    # The first resi inside a mixing step is the reference residual of the
    # prolongated iterate; each later one tries one theta.
    mixing = by_name.get("newton.mixing", [])
    resi_children = [sum(1 for r in by_name.get("newton.resi", [])
                         if r["parent"] == m["id"]) for m in mixing]
    trials = sum(max(n - 1, 0) for n in resi_children)
    out["newton.theta_trials"] = trials
    out["newton.theta_accept_ratio"] = len(mixing) / trials if trials else 0.0

    drivers = by_name.get(DRIVER_SPAN, [])
    rows = attrs(DRIVER_SPAN, "rows")
    diag = by_name.get("newton.trace_resi", [])
    if rows and len(rows[-1]) >= 2 and len(diag) >= len(rows[-1]):
        steps = [(ms / 1e3 - duration(d), n)
                 for (_, n, ms), d in zip(rows[-1], diag[-len(rows[-1]):])]
        out["newton.finest_step_s"] = steps[-1][0]
        per_dof = [t / n * 1e6 for t, n in steps]
        out["newton.finest_us_per_dof"] = per_dof[-1]
        out["newton.cost_growth"] = per_dof[-1] / per_dof[-2]
    else:
        out["newton.finest_step_s"] = out["newton.finest_us_per_dof"] = None
        out["newton.cost_growth"] = None
    total = sum(map(duration, drivers))
    out["trace.coverage"] = (
        1.0 - sum(own[d["id"]] for d in drivers) / total if total else None)
    return out

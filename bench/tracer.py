"""In-memory span tracer for the conestab layers.

`install(tracer)` wraps the public functions and methods listed in
TARGETS at every binding that holds them: the defining module, every
other conestab module that imported the object by name (``sweep`` binds
``solve_kkt``, ``model`` binds ``svec``, ``conditions`` binds
``natural_residual``), and the package namespace.  Methods are wrapped
on their class, so bound-method callbacks handed to the checkers are
traced too.  `uninstall` restores the originals; the untraced run never
sees a wrapper.

A span is (name, start, end, parent, operation id).  Spans stay in
compact arrays until the run ends; `summarize` turns them into the
per-layer metrics.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute path)
TARGETS = [
    ("linalg.sym_eig", "linalg", "sym_eig"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("cones.svec", "cones", "svec"),
    ("cones.smat", "cones", "smat"),
    ("cones.project", "cones", "Cone.project"),
    ("cones.proj_jacobian", "cones", "Cone.proj_jacobian"),
    ("cones.frame", "cones", "Cone.frame"),
    ("cones.cc_project", "cones", "ConeFrame.cc_project"),
    ("cones.polar_project", "cones", "ConeFrame.polar_project"),
    ("cones.normal_project", "cones", "ConeFrame.normal_project"),
    ("cones.dir_deriv_jac", "cones", "ConeFrame.dir_deriv_jac"),
    ("kkt.natural_map", "kkt", "natural_map"),
    ("kkt.natural_residual", "kkt", "natural_residual"),
    ("kkt.solve_kkt", "kkt", "solve_kkt"),
    ("kkt.solve_kkt_multistart", "kkt", "solve_kkt_multistart"),
    ("kkt.recover_multipliers", "kkt", "recover_multipliers"),
    ("conditions.check_rcq", "conditions", "check_rcq"),
    ("conditions.check_srcq", "conditions", "check_srcq"),
    ("conditions.check_nondegeneracy", "conditions", "check_nondegeneracy"),
    ("conditions.check_sosc", "conditions", "check_sosc"),
    ("conditions.affine_hull_probe", "conditions", "affine_hull_probe"),
    ("conditions.kernel_probe", "conditions", "kernel_probe"),
    ("conditions.assemble_report", "conditions", "assemble_report"),
    ("sweep.run_sweep", "sweep", "run_sweep"),
    ("sweep.fit_exponent", "sweep", "fit_exponent"),
    ("model.load_problem", "model", "load_problem"),
    ("cli.main", "cli", "main"),
]


class Tracer:
    """Span store plus counters taken at the same call boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.counters = {}
        self._saved = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def record(self, name, start, end, parent=-1, op=-1):
        """Append a finished span built by hand, as the tests do."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span; hook(tracer, args, result) runs after."""
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def spans(self):
        """The spans as numpy arrays (name ids index `self.names`)."""
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}


def _sym_eig_hook(tracer, args, result):
    tracer.peak("linalg.sym_eig.max_order", len(result[0]))


def _solve_hook(tracer, args, result):
    tracer.add("kkt.newton_iters", result.iterations)
    tracer.add("kkt.solve_kkt.converged", int(result.converged))


def _sweep_hook(tracer, args, result):
    tracer.add("sweep.records", len(result.records))
    tracer.add("sweep.solved", sum(1 for r in result.records if r.solved))


HOOKS = {"linalg.sym_eig": _sym_eig_hook, "kkt.solve_kkt": _solve_hook,
         "sweep.run_sweep": _sweep_hook}


def _conestab_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "conestab" or k.startswith("conestab."))]


def install(tracer):
    """Wrap every TARGETS entry at every binding; see the module doc."""
    modules = _conestab_modules()
    for name, modname, path in TARGETS:
        owner = sys.modules["conestab." + modname]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, HOOKS.get(name)))
            tracer._saved.append((cls, attr, original))
            continue
        original = getattr(owner, path)
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    tracer._saved.append((mod, attr, original))


def uninstall(tracer):
    for owner, attr, original in reversed(tracer._saved):
        setattr(owner, attr, original)
    tracer._saved = []


# ---------------------------------------------------------------------------
# Span arithmetic


def union_length(starts, ends):
    """Total length covered by a set of intervals."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] > reach[:-1]
    first = np.flatnonzero(new)
    return float(np.sum(np.maximum.reduceat(e, first) - s[first]))


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Spans come from one synchronous call stack, so the children of a span
    are disjoint and lie inside it, and the covered time is the sum of
    their durations.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def _within(starts, outer_s, outer_e):
    """Mask of points lying inside one of a set of disjoint intervals."""
    if len(outer_s) == 0 or len(starts) == 0:
        return np.zeros(len(starts), dtype=bool)
    order = np.argsort(outer_s)
    os_, oe = outer_s[order], outer_e[order]
    k = np.searchsorted(os_, starts, side="right") - 1
    ok = k >= 0
    inside = np.zeros(len(starts), dtype=bool)
    inside[ok] = starts[ok] <= oe[k[ok]]
    return inside


def summarize(tracer, passes=1):
    """Per-layer metrics per pass from the recorded spans and counters."""
    sp = tracer.spans()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*names):
        m = np.zeros(len(sp["name"]), dtype=bool)
        for n in names:
            if n in ids:
                m |= sp["name"] == ids[n]
        return m

    def calls(*names):
        return int(np.count_nonzero(mask(*names)))

    def secs(*names):
        m = mask(*names)
        return union_length(sp["start"][m], sp["end"][m])

    def under(outer, *names):
        m, o = mask(*names), mask(outer)
        return int(np.count_nonzero(_within(sp["start"][m], sp["start"][o],
                                            sp["end"][o])))

    st = self_times(sp)

    def self_s(name):
        return float(np.sum(st[mask(name)]))

    c = tracer.counters
    solves = calls("kkt.solve_kkt")
    records = c.get("sweep.records", 0)
    per_pass = {
        "linalg.sym_eig.calls": calls("linalg.sym_eig"),
        "linalg.sym_eig.s": secs("linalg.sym_eig"),
        "linalg.nullspace.s": secs("linalg.nullspace"),
        "cones.svec.calls": calls("cones.svec"),
        "cones.smat.calls": calls("cones.smat"),
        "cones.svec_smat.s": secs("cones.svec", "cones.smat"),
        "kkt.solve_kkt.calls": solves,
        "kkt.solve_kkt.s": secs("kkt.solve_kkt"),
        "kkt.newton_iters": c.get("kkt.newton_iters", 0),
        "kkt.natural_map.calls": calls("kkt.natural_map"),
        "kkt.natural_map.s": secs("kkt.natural_map"),
        "kkt.recover_multipliers.s": secs("kkt.recover_multipliers"),
        "conditions.assemble_report.self_s":
            self_s("conditions.assemble_report"),
        "conditions.kernel_probe.tmatrix_evals":
            under("conditions.kernel_probe", "cones.dir_deriv_jac"),
        "conditions.check_rcq.projections":
            under("conditions.check_rcq", "cones.cc_project",
                  "cones.polar_project"),
        "conditions.check_sosc.projections":
            under("conditions.check_sosc", "cones.cc_project",
                  "cones.polar_project"),
        "sweep.cold_fallbacks": _children_of(sp, ids, "sweep.run_sweep",
                                             "kkt.solve_kkt_multistart"),
        "model.load_problem.s": secs("model.load_problem"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for layer in ("project", "proj_jacobian", "frame", "cc_project",
                  "polar_project", "normal_project", "dir_deriv_jac"):
        per_pass["cones.%s.calls" % layer] = calls("cones." + layer)
        per_pass["cones.%s.s" % layer] = secs("cones." + layer)
    for check in ("check_rcq", "check_srcq", "check_nondegeneracy",
                  "check_sosc", "affine_hull_probe", "kernel_probe"):
        per_pass["conditions.%s.s" % check] = secs("conditions." + check)
    for step in ("run_sweep", "fit_exponent"):
        per_pass["sweep.%s.s" % step] = secs("sweep." + step)
    out = {k: v / passes for k, v in per_pass.items()}
    # maxima and ratios are not per-pass sums
    out["linalg.sym_eig.max_order"] = c.get("linalg.sym_eig.max_order", 0)
    out["kkt.solve_converged_ratio"] = (
        c.get("kkt.solve_kkt.converged", 0) / solves if solves else 0.0)
    out["sweep.solved_ratio"] = (c.get("sweep.solved", 0) / records
                                 if records else 0.0)
    return out


def _children_of(sp, ids, parent_name, child_name):
    if parent_name not in ids or child_name not in ids:
        return 0
    child = sp["name"] == ids[child_name]
    par = sp["parent"][child]
    par = par[par >= 0]
    return int(np.count_nonzero(sp["name"][par] == ids[parent_name]))


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".s") or metric.endswith("self_s") or \
            metric.endswith("overhead_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def save(tracer, path, op_names):
    """Write the spans, the name table and the operation names."""
    np.savez_compressed(path, names=np.array(tracer.names),
                        op_names=np.array(op_names), **tracer.spans())

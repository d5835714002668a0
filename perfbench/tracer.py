"""Spans around the calls into each ``lrsim`` module, from outside the library.

:meth:`Tracer.install` replaces module attributes and class methods of an
imported ``lrsim`` with wrappers.  A function that other modules imported by
name (``from ..operators import wedge_projector_matrix``,
``from scipy.linalg import cho_solve``) is replaced under each of those names
too, so calls through any of them are seen.  :meth:`Tracer.uninstall` puts
the originals back.

Each call records one span: name, start, end, parent span and operation id,
kept in flat in-memory arrays and written out by :meth:`Tracer.save`.  A
span's self time is its duration minus the durations of its children; the
self times of all spans add up to the time covered by top-level spans, so
the traced wall time is their sum plus the time spent outside every span.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("scenario", "integrators", "systems", "operators", "liecore", "diagnostics", "cli")

SYSTEM_KINDS = (
    "lr", "lplusr", "geodesic-lpr", "coupled", "coupled-reduced", "ncoupled", "support",
    "rubber-support", "rubber-chaplygin", "cotangent", "lstar-geodesic", "gsr",
)

# (module, attribute, span name); attributes bound to the same object in any
# other lrsim module are wrapped as well
FUNCTIONS = (
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("scenario", "build_scenario", "scenario.build_scenario"),
    ("integrators", "integrate", "integrators.integrate"),
    ("integrators", "step", "integrators.step"),
    ("operators", "wedge_projector_matrix", "operators.wedge_projector_matrix"),
    ("liecore", "vec_to_skew", "liecore.vec_to_skew"),
    ("liecore", "skew_to_vec", "liecore.skew_to_vec"),
    ("liecore", "ad", "liecore.ad"),
    ("liecore", "adjoint_matrix", "liecore.adjoint_matrix"),
    ("liecore", "wedge_complement_basis", "liecore.wedge_complement_basis"),
    ("liecore", "householder_frame", "liecore.householder_frame"),
    ("diagnostics", "conservation_report", "diagnostics.conservation_report"),
    ("diagnostics", "constraint_report", "diagnostics.constraint_report"),
    ("diagnostics", "epsilon_limit_study", "diagnostics.epsilon_limit_study"),
    ("diagnostics", "reduction_equivalence", "diagnostics.reduction_equivalence"),
    ("diagnostics", "hamiltonization_check", "diagnostics.hamiltonization_check"),
    ("diagnostics", "reconstruct_contact", "diagnostics.reconstruct_contact"),
    ("diagnostics", "functional_independence_rank", "diagnostics.functional_independence_rank"),
    ("diagnostics", "measure_divergence", "diagnostics.measure_divergence"),
    ("cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("cli", "build_report", "cli.build_report"),
    ("cli", "write_reports", "cli.write_reports"),
    ("cli", "verification_checks", "cli.verification_checks"),
)

# third-party functions imported by name: wrapped only in the listed modules
FOREIGN = (
    ("integrators.expm", "expm", ("integrators",)),
    ("systems.linalg.cho", "cho_factor",
     ("systems.lr", "systems.coupled", "systems.support", "systems.chaplygin")),
    ("systems.linalg.cho", "cho_solve",
     ("systems.lr", "systems.coupled", "systems.support", "systems.chaplygin")),
)

TIMED = (
    [name for _, _, name in FUNCTIONS]
    + ["integrators.expm", "systems.linalg.cho", "systems.project",
       "systems.trace_coefficients", "operators.solve_vec", "operators.apply_vec"]
    + [f"systems.rhs.{kind}" for kind in SYSTEM_KINDS]
)


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name in TIMED:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.s", "s", "lower"))
    specs += [
        ("integrators.steps", "count", "lower"),
        ("integrators.rhs_per_step", "calls/step", "lower"),
        ("integrators.expm.per_rotation_step", "calls/step", "lower"),
        ("systems.trace_coefficients.per_state", "calls/state", "lower"),
        ("systems.trace_polynomial.per_state", "calls/state", "lower"),
        ("systems.multiplier_errors", "count", "lower"),
        ("diagnostics.measure_divergence.warning_frac", "frac", "lower"),
        ("cli.write_trajectory_csv.bytes", "B", "lower"),
        ("cli.checks", "count", "higher"),
        ("cli.checks_failed", "count", "lower"),
    ]
    for module in MODULES + ("outside",):
        specs.append((f"module.{module}.self_s", "s", "lower"))
        specs.append((f"module.{module}.share", "frac", "lower"))
    specs += [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts = defaultdict(float)
        self.op_id = -1
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _enter(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx, ok):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if not ok:
            self.failed[idx] = 1

    def wrap(self, name, fn, after=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx, False)
                raise
            self._exit(idx, True)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_rhs(self, fn, multiplier_error):
        ids = {kind: self._id(f"systems.rhs.{kind}") for kind in SYSTEM_KINDS}

        def traced(system, y):
            nid = ids.get(system.kind)
            idx = self._enter(self._id(f"systems.rhs.{system.kind}") if nid is None else nid)
            try:
                result = fn(system, y)
            except BaseException as exc:
                self._exit(idx, False)
                if isinstance(exc, multiplier_error):
                    self.counts["multiplier_errors"] += 1
                raise
            self._exit(idx, True)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lrsim_modules):
        """Wrap the public functions; ``lrsim_modules`` maps 'cli' -> module etc."""
        mods = lrsim_modules
        hooks = {
            "integrators.step": self._after_step,
            "diagnostics.conservation_report": self._after_report,
            "diagnostics.measure_divergence": self._after_divergence,
            "cli.write_trajectory_csv": self._after_csv,
            "cli.verification_checks": self._after_checks,
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(mods[module], attr)
            wrapper = self.wrap(name, original, after=hooks.get(name))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, attr, where in FOREIGN:
            for module in where:
                self._set(mods[module], attr, self.wrap(name, getattr(mods[module], attr)))

        system_cls = mods["systems"].System
        multiplier_error = mods["systems"].MultiplierError
        classes = [system_cls]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            if "rhs" in vars(cls) and cls is not system_cls:
                self._set(cls, "rhs", self.wrap_rhs(vars(cls)["rhs"], multiplier_error))
        self._set(system_cls, "project", self.wrap("systems.project", system_cls.project))
        support = mods["systems.support"]._SupportBase
        self._set(support, "trace_coefficients",
                  self.wrap("systems.trace_coefficients", support.trace_coefficients))
        self._set(support, "trace_polynomial", self._counting(support.trace_polynomial))
        inertia = mods["operators"].InertiaOperator
        self._set(inertia, "solve_vec", self.wrap("operators.solve_vec", inertia.solve_vec))
        self._set(inertia, "apply_vec", self.wrap("operators.apply_vec", inertia.apply_vec))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counters taken at the wrapped calls ---------------------------------

    def _counting(self, fn):
        """Count calls made under a conservation report, per operation, without a span."""
        report_id = self._id("diagnostics.conservation_report")

        def counted(*args, **kwargs):
            if any(self.name_id[i] == report_id for i in self._stack[1:]):
                self.counts[("report_polynomials", self.op_id)] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_step(self, args, kwargs, result):
        if kwargs.get("method", args[3] if len(args) > 3 else "rk4-projected") == "lie-rk4":
            system = args[0]
            rotations = sum(1 for comp in system.components if comp.kind == "rotation")
            self.counts["lie_rotation_steps"] += rotations

    def _after_report(self, args, kwargs, result):
        traj = args[0]
        if hasattr(traj.system, "trace_coefficients"):
            self.counts[("report_states", self.op_id)] += len(traj)

    def _after_divergence(self, args, kwargs, result):
        self.counts["divergence_warnings"] += bool(result.warning)

    def _after_csv(self, args, kwargs, result):
        self.counts["csv_bytes"] += os.path.getsize(args[0])

    def _after_checks(self, args, kwargs, result):
        self.counts["checks"] += len(result)
        self.counts["checks_failed"] += sum(1 for check in result if not check.passed)

    # -- results -------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path):
        """Write every span (name, start, end, parent, operation id) to ``path``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def _under(self, arr, name):
        """Per span: whether a span called ``name`` is among its ancestors."""
        if name not in self._ids:
            return np.zeros(arr["parent"].size, dtype=bool)
        target = self._ids[name]
        parent = arr["parent"]
        has_parent = parent >= 0
        safe = np.where(has_parent, parent, 0)
        flag = has_parent & (arr["name_id"][safe] == target)
        hop = np.where(has_parent, safe, -1)
        # pointer doubling: after k rounds flag covers 2^k ancestors
        while np.any(hop >= 0):
            valid = hop >= 0
            idx = np.where(valid, hop, 0)
            flag = flag | (valid & flag[idx])
            hop = np.where(valid, hop[idx], -1)
        return flag

    def layer_metrics(self, traced_wall, untraced_wall):
        arr = self.arrays()
        ids, parent = arr["name_id"], arr["parent"]
        dur = arr["end"] - arr["start"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        self_time = dur - child
        nnames = len(self.names)
        calls = np.bincount(ids, minlength=nnames)
        self_by_name = np.bincount(ids, weights=self_time, minlength=nnames)

        def calls_of(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        def self_of(name):
            return float(self_by_name[self._ids[name]]) if name in self._ids else 0.0

        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls_of(name)
            out[f"{name}.s"] = self_of(name)

        in_integrate = self._under(arr, "integrators.integrate")
        step_id = self._ids.get("integrators.step", -1)
        steps = int(np.sum((ids == step_id) & in_integrate & (arr["failed"] == 0)))
        rhs_ids = [self._ids[n] for n in self.names if n.startswith("systems.rhs.")]
        rhs_in_integrate = int(np.sum(np.isin(ids, rhs_ids) & in_integrate))
        out["integrators.steps"] = steps
        out["integrators.rhs_per_step"] = rhs_in_integrate / steps if steps else 0.0
        rot_steps = self.counts["lie_rotation_steps"]
        out["integrators.expm.per_rotation_step"] = (
            calls_of("integrators.expm") / rot_steps if rot_steps else 0.0
        )

        # trace fits and polynomial evaluations per reported state, worst
        # operation (support.yaml at seed 0)
        tc_id = self._ids.get("systems.trace_coefficients", -1)
        in_report = self._under(arr, "diagnostics.conservation_report")
        fits = np.bincount(arr["op"][(ids == tc_id) & in_report] + 1, minlength=1)
        fits_per_state = polys_per_state = 0.0
        for key, states in self.counts.items():
            if isinstance(key, tuple) and key[0] == "report_states" and states:
                op = key[1]
                op_fits = fits[op + 1] if op + 1 < fits.size else 0
                fits_per_state = max(fits_per_state, op_fits / states)
                polys = self.counts.get(("report_polynomials", op), 0.0)
                polys_per_state = max(polys_per_state, polys / states)
        out["systems.trace_coefficients.per_state"] = float(fits_per_state)
        out["systems.trace_polynomial.per_state"] = float(polys_per_state)
        out["systems.multiplier_errors"] = int(self.counts["multiplier_errors"])
        md_calls = calls_of("diagnostics.measure_divergence")
        out["diagnostics.measure_divergence.warning_frac"] = (
            self.counts["divergence_warnings"] / md_calls if md_calls else 0.0
        )
        out["cli.write_trajectory_csv.bytes"] = int(self.counts["csv_bytes"])
        out["cli.checks"] = int(self.counts["checks"])
        out["cli.checks_failed"] = int(self.counts["checks_failed"])

        module_self = dict.fromkeys(MODULES, 0.0)
        for name, total in zip(self.names, self_by_name):
            module_self[name.split(".")[0]] += float(total)
        module_self["outside"] = traced_wall - float(np.sum(self_time))
        for module, total in module_self.items():
            out[f"module.{module}.self_s"] = total
            out[f"module.{module}.share"] = total / traced_wall if traced_wall > 0 else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out


def lrsim_modules():
    """The lrsim modules the tracer patches, keyed by their short names."""
    import lrsim.cli  # noqa: F401  (imports every other module)

    names = ("scenario", "integrators", "operators", "liecore", "diagnostics", "cli",
             "systems", "systems.lr", "systems.coupled", "systems.support", "systems.chaplygin",
             "systems.base")
    return {name: sys.modules[f"lrsim.{name}"] for name in names}

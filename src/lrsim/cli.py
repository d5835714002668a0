"""Command line interface: run scenarios, verify their conservation claims.

``run`` integrates a scenario and writes ``trajectory.csv`` (time plus the
flattened state, 17 significant digits), ``report.txt`` (human-readable
drifts) and ``report.json`` (the same, machine-readable).

``verify`` runs the diagnostic battery, which is the table
:data:`CHECKS_BY_KIND`: every kind gets the conservation drift and
constraint checks, then the rows its entry lists, in order (invariant
measure divergences, the penalty-limit study, the coupled W reconstruction,
the time-rescaling cross-check, ...).  A kind with no entry fails at import.

Exit codes: 0 success / all checks passed, 1 some check failed (for
``run``: a constraint residual outside the tolerance ``verify`` applies to
it), 2 parse or schema error, 3 validation error (for ``verify`` also a run
of zero steps), 4 runtime integration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import liecore as lie
from .integrators import METHODS, IntegrationError, integrate
from .scenario import SYSTEM_KINDS, ScenarioParseError, ScenarioValidationError, load_scenario
from .systems import CotangentSystem, CoupledReducedSystem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

ENERGY_TOL = 1e-8
CONSTRAINT_TOL = 1e-8
GEOMETRY_TOL = 1e-9
NOETHER_TOL = 1e-8
MOMENTUM_TOL = 1e-8
TRACE_TOL = 1e-8
W_RECONSTRUCTION_TOL = 1e-7
NCOUPLED_FIELD_TOL = 1e-10
EPSILON_FINAL_TOL = 1e-4
DIVERGENCE_TOL = 1e-5
RATIO_SPREAD_TOL = 1e-8
HAMILTONIZATION_TOL = 1e-6
DUAL_PATH_TOL = 1e-7
CONTACT_TOL = 1e-9

_GEOMETRY_SUFFIXES = ("_orthogonality", "_norm")


def _fmt(value):
    return format(float(value), ".17g")


def write_trajectory_csv(path, traj):
    names = ["t"] + traj.system.column_names()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for t, y in zip(traj.times, traj.states):
            fh.write(",".join([_fmt(t)] + [_fmt(v) for v in y]) + "\n")


def build_report(scenario, traj):
    quantities = scenario.diagnostics or None
    drifts = diag.conservation_report(traj, quantities)
    constraints = diag.constraint_report(traj)
    return {
        "scenario": scenario.name,
        "system": scenario.system.kind,
        "n": scenario.system.n,
        "method": scenario.integrator.method,
        "h": scenario.integrator.h,
        "steps": scenario.integrator.steps,
        "quantities": {
            q.name: {
                "initial": q.initial,
                "max_abs_drift": q.max_abs_drift,
                "max_rel_drift": q.max_rel_drift,
            }
            for q in drifts
        },
        "constraints": constraints,
    }


def write_reports(outdir, report):
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [
        f"scenario: {report['scenario']}",
        f"system: {report['system']} (n={report['n']})",
        f"integrator: {report['method']}, h={_fmt(report['h'])}, steps={report['steps']}",
        "",
        "conserved quantities (initial, max abs drift, max rel drift):",
    ]
    for name, vals in report["quantities"].items():
        lines.append(
            f"  {name}: {_fmt(vals['initial'])}, {_fmt(vals['max_abs_drift'])}, "
            f"{_fmt(vals['max_rel_drift'])}"
        )
    lines.append("")
    lines.append("constraint residuals (max over trajectory):")
    for name, val in report["constraints"].items():
        lines.append(f"  {name}: {_fmt(val)}")
    with open(outdir / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_run(args):
    scenario = load_scenario(args.scenario, overrides=_overrides(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        traj = integrate(scenario.system, scenario.initial, scenario.integrator)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        if exc.partial is not None:
            write_trajectory_csv(outdir / "trajectory.csv", exc.partial)
        return EXIT_RUNTIME
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    report = build_report(scenario, traj)
    write_reports(outdir, report)
    print(f"wrote {outdir / 'trajectory.csv'} ({len(traj)} rows)")
    failed = [check for check in _constraint_checks(report["constraints"]) if not check.passed]
    for check in failed:
        print(f"{check.name} = {check.value:.3e} is outside its tolerance {check.tol:.1e}",
              file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- verification battery ---------------------------------------------------

@dataclass
class Check:
    name: str
    value: float
    tol: float
    note: str = ""

    @property
    def passed(self):
        return self.value < self.tol


def _drift_checks(traj):
    checks = []
    for q in diag.conservation_report(traj):
        if q.name.startswith("noether"):
            checks.append(Check(f"drift[{q.name}]", q.max_abs_drift, NOETHER_TOL))
        elif q.name.startswith("trace"):
            checks.append(Check(f"drift[{q.name}]", q.max_rel_drift, TRACE_TOL))
        elif q.name == "momentum_norm":
            checks.append(Check(f"drift[{q.name}]", q.max_rel_drift, MOMENTUM_TOL))
        else:
            checks.append(Check(f"drift[{q.name}]", q.max_rel_drift, ENERGY_TOL))
    return checks + _constraint_checks(diag.constraint_report(traj))


def _constraint_checks(constraints):
    """One check per worst residual: unit-norm and orthogonality residuals
    against GEOMETRY_TOL, all others against CONSTRAINT_TOL."""
    return [
        Check(
            f"constraint[{name}]",
            resid,
            GEOMETRY_TOL if name.endswith(_GEOMETRY_SUFFIXES) else CONSTRAINT_TOL,
        )
        for name, resid in constraints.items()
    ]


def _divergence_checks(name, field, density, states):
    """One check over the stacked divergence estimates at ``states``."""
    est = diag.measure_divergence(field, density, states)
    # np.max keeps a NaN estimate, where Python's max(0.0, nan) drops it
    worst = np.max(np.abs(est.value))
    return Check(name, worst, DIVERGENCE_TOL, f"{len(states)} states")


def _sample_sphere_states(n, count, rng):
    states = []
    for _ in range(count):
        gamma = rng.normal(size=n)
        gamma /= np.linalg.norm(gamma)
        p = rng.normal(size=n)
        p -= gamma * (gamma @ p)
        states.append(np.concatenate([gamma, p]))
    return states


def verification_checks(scenario, traj):
    """The shared drift and constraint checks, then the rows of the scenario's
    kind in :data:`CHECKS_BY_KIND`, all drawing from one ``default_rng(0)``."""
    checks = _drift_checks(traj)
    rng = np.random.default_rng(0)
    for row in CHECKS_BY_KIND[scenario.system.kind]:
        checks += row(scenario, traj, rng)
    return checks


# --- rows: (scenario, traj, rng) -> [Check]. Each looks diag.<study> up when it
# runs, so perfbench's tracer, which wraps diagnostics by attribute, sees it


def _lr_penalty_limit(scenario, traj, rng):
    system = scenario.system
    if not system.k:
        return []
    wv = rng.normal(size=system.N)
    return _penalty_limit_checks(scenario, system.h_space, np.eye(system.n), wv, table=False)


def _lplusr_penalty_limit(scenario, traj, rng):
    """The penalty study from the run's first state, for ``pi0: {kind: penalty}``."""
    penalty = scenario.forms.get("penalty_form")
    if penalty is None:
        return []
    system = scenario.system
    g0, wv = system.part(traj.states[0], "g"), system.part(traj.states[0], "omega")
    return _penalty_limit_checks(scenario, penalty[0], g0, wv, table=True)


def _reduction(scenario, traj, rng):
    """W_reconstruction: the W that reconstruct_W slaves to the run's (g, omega)
    against the run's own W, which certifies the reduction."""
    w_rec = diag.reconstruct_W(traj, scenario.system.part(scenario.initial, "W"))
    w_dev = float(np.max(np.abs(w_rec - traj.component("W"))))
    return [Check("W_reconstruction", w_dev, W_RECONSTRUCTION_TOL)]


def _closed_form_field(scenario, traj, rng):
    gc_form = scenario.forms.get("gc_form")
    if not gc_form or any(entry is None for entry in gc_form):
        return []
    worst = _gc_field_deviation(scenario.system, gc_form, traj.states[:: max(1, len(traj) // 20)])
    return [Check("closed_form_field", worst, NCOUPLED_FIELD_TOL)]


def _independent_integrals(scenario, traj, rng):
    system = scenario.system
    if system.n != 3:
        return []
    idx = rng.integers(0, len(traj), size=3)
    rank = diag.functional_independence_rank(system.conserved().values(), traj.states[idx])
    return [Check("independent_integrals", 4.0 - rank, 0.5, f"rank {rank}")]


def _rubber_reduced(scenario, traj, rng):
    """The cotangent row on the rubber ball's reduced sphere."""
    system = scenario.system
    cot = CotangentSystem(system.inertia, system.mass, system.radius)
    y0 = np.concatenate(system.to_cotangent(scenario.initial))
    return _reduced_sphere(replace(scenario, system=cot, initial=y0), traj, rng)


def _reduced_sphere(scenario, traj, rng):
    """measure[reduced]; for the special inertia c = m rho^2 also the measure
    ratio and the Hamiltonization from the scenario's initial (gamma, p)."""
    cot, y0 = scenario.system, scenario.initial
    density = diag.reduced_chaplygin_density(cot.inertia, cot.mass, cot.radius)
    states = _sample_sphere_states(cot.n, 100, rng)
    checks = [_divergence_checks("measure[reduced]", cot.rhs, density, states)]
    if cot.inertia.c is None or abs(cot.inertia.c - cot.mass * cot.radius**2) >= 1e-12:
        return checks
    ratios = np.divide(
        *diag.chaplygin_measure_check(np.array(states), cot.inertia, cot.mass, cot.radius)
    )
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    sup_geo, sup_dual, traj_geo = diag.hamiltonization_check(
        cot.inertia, cot.mass, cot.radius, y0[: cot.n], y0[cot.n :], scenario.integrator.h
    )
    geo_drift = diag.conservation_report(traj_geo)[0].max_rel_drift
    return checks + [
        Check("measure_ratio_spread", spread, RATIO_SPREAD_TOL),
        Check("hamiltonization", sup_geo, HAMILTONIZATION_TOL),
        Check("reparametrization_dual_path", sup_dual, DUAL_PATH_TOL),
        Check("drift[geodesic_energy]", geo_drift, ENERGY_TOL),
    ]


def _flow_measure(scenario, traj, rng):
    """measure[<kind>]: the flow's own ``rhs`` against its ``measure_density``.

    The sample is every ``len(traj) // 20``-th run state, and the same states
    again with omega redrawn from the normal distribution, off the run's
    energy and constraint levels.  The LR density is Fedorov and Jovanovic's
    (J. Nonlinear Sci. 14, 2004), the L+R ones, sqrt det B and det B for the
    geodesic flow, Fedorov's; for ``coupled`` with an h_0 constraint and for
    the rubber Chaplygin sphere in (g, omega) the density was only measured
    to pass, not proved.
    """
    system = scenario.system
    run = traj.states[:: max(1, len(traj) // 20)]
    off = run.copy()
    omega = system.part(off, "omega")
    omega[...] = rng.normal(size=omega.shape)
    states = np.concatenate([run, off])
    name = f"measure[{system.kind}]"
    return [_divergence_checks(name, system.rhs, system.measure_density, states)]


def _contact(scenario, traj, rng):
    path = diag.reconstruct_contact(traj)
    return [Check("contact_last_coordinate", float(np.max(np.abs(path[:, -1]))), CONTACT_TOL)]


# the checks after the shared drift and constraint checks, per system kind, in
# the order they run; every kernel kind's measure row goes last, so it draws
# from the rng after the others
CHECKS_BY_KIND = {
    "lr": (_lr_penalty_limit, _flow_measure),
    "lplusr": (_lplusr_penalty_limit, _flow_measure),
    "geodesic-lpr": (_flow_measure,),
    "coupled": (_reduction, _flow_measure),
    "coupled-reduced": (_flow_measure,),
    "ncoupled": (_closed_form_field, _flow_measure),
    "support": (_flow_measure,),
    "rubber-support": (_independent_integrals, _flow_measure),
    "rubber-chaplygin": (_rubber_reduced, _contact, _flow_measure),
    "cotangent": (_reduced_sphere,),
    "lstar-geodesic": (),
    "gsr": (),
}
if set(CHECKS_BY_KIND) != {*SYSTEM_KINDS, CoupledReducedSystem.kind}:
    raise ImportError("CHECKS_BY_KIND needs exactly one row per buildable system kind")


def _penalty_limit_checks(scenario, basis, g0, wv, table):
    """Penalty-limit checks over eps = 1e2, 1e4, 1e6 from g0 and the part of
    the bivector ``wv`` off ``basis``; the errors are printed as a table with
    ``table``, else noted on the first check."""
    n = scenario.system.n
    omega0 = lie.vec_to_skew(wv - basis.vectors @ (basis.vectors.T @ wv), n)
    cfg = replace(scenario.integrator, steps=min(scenario.integrator.steps, 1000))
    study = diag.epsilon_limit_study(
        scenario.system.inertia, basis, g0, omega0, (1e2, 1e4, 1e6), cfg
    )
    decreasing = all(a > b for a, b in zip(study.errors, study.errors[1:]))
    note = "errors " + ", ".join(f"{e:.3e}" for e in study.errors)
    if table:
        print("  penalty-limit error table:")
        for eps, err in zip(study.epsilons, study.errors):
            print(f"    eps={eps:.1e}  sup-error={err:.6e}")
        note = ""
    return [
        Check("epsilon_limit[decreasing]", 0.0 if decreasing else 1.0, 0.5, note),
        Check("epsilon_limit[final]", study.errors[-1], EPSILON_FINAL_TOL),
    ]


def _gc_field_deviation(system, gc_form, states):
    """Largest deviation of the matrix-constraint field from the closed form's over a stack."""
    n = system.n
    g = system.part(states, "g")
    wv = system.part(states, "omega")
    b = system.inertia.matrix
    for (gamma_space, rho), body in zip(gc_form, system.bodies):
        adg = lie.ad_matrix(lie.Ad(g.swapaxes(-1, -2), gamma_space))
        b = b + (body.d / rho**2) * (adg.swapaxes(-1, -2) @ adg)
    iw = lie.vec_to_skew(system.inertia.apply_vec(wv[..., None])[..., 0], n)
    torque = lie.skew_to_vec(lie.ad(iw, lie.vec_to_skew(wv, n)))
    wdot_closed = np.linalg.solve(b, torque[..., None])[..., 0]
    wdot = system.part(system.rhs(states), "omega")
    return float(np.max(np.abs(wdot - wdot_closed)))


def cmd_verify(args):
    scenario = load_scenario(args.scenario, overrides=_overrides(args))
    # a run of no steps compares every state function with itself
    if scenario.integrator.steps == 0:
        raise ScenarioValidationError("verify needs at least one integration step")
    try:
        traj = integrate(scenario.system, scenario.initial, scenario.integrator)
        checks = verification_checks(scenario, traj)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if not checks:
        print("no checks applicable to this scenario")
        return EXIT_OK
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        note = f"  [{check.note}]" if check.note else ""
        print(f"{status}  {check.name}: {check.value:.3e} (tol {check.tol:.1e}){note}")
        failed += not check.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _overrides(args):
    return {"h": args.h, "steps": args.steps, "method": args.method}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lrsim",
        description="Simulate and verify nonholonomic rolling systems on SO(n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario and write CSV + reports")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", required=True, help="output directory")

    ver_p = sub.add_parser("verify", help="run the diagnostic battery for a scenario")
    ver_p.add_argument("scenario")

    for p in (run_p, ver_p):
        p.add_argument("--h", type=float, default=None, help="override step size")
        p.add_argument("--steps", type=int, default=None, help="override step count")
        p.add_argument(
            "--method", choices=METHODS, default=None,
            help="override integrator method",
        )

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_verify(args)
    except ScenarioParseError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"scenario validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Scenario files: declarative descriptions of a system, initial state and run.

A scenario is a YAML mapping.  Vectors are given in ambient coordinates;
constraint subspaces either as generator vector pairs (wedged internally)
or as the named family ``wedge-with`` built from a contact direction.
Skew matrices may be written as full matrices or as sparse bivector
entries ``pairs: [[i, j, value], ...]`` with 1-based i < j.

Schema errors, wrong-typed values among them, raise
:class:`ScenarioParseError` (CLI exit 2); numeric
validation failures, including initial states violating the target
system's constraints, raise :class:`ScenarioValidationError` (exit 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from . import liecore as lie
from .integrators import IntegratorConfig
from .operators import InertiaOperator, OperatorError
from .systems import (
    CotangentSystem,
    CoupledFullSystem,
    CoupledReducedSystem,
    GeodesicLplusRSystem,
    GsrSystem,
    LplusRSystem,
    LRSystem,
    LstarGeodesicSystem,
    NCoupledSystem,
    RubberChaplyginSystem,
    RubberSupportSystem,
    SupportSystem,
    commutator_constraint_matrices,
    penalty_pi0,
)

SYSTEM_KINDS = (
    "lr",
    "lplusr",
    "geodesic-lpr",
    "coupled",
    "ncoupled",
    "support",
    "rubber-support",
    "rubber-chaplygin",
    "cotangent",
    "lstar-geodesic",
    "gsr",
)

VALIDATION_TOL = 1e-8


class ScenarioParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(ValueError):
    pass


@dataclass
class Scenario:
    """A built scenario: the system, its initial state, and the run config.

    ``penalty_form`` is the (basis, epsilon) of a ``pi0: {kind: penalty}``
    entry; ``gc_form`` holds, per ncoupled body, the (Gamma, rho) of a
    ``family: commutator-with`` entry or None.
    """

    name: str
    system: object
    initial: np.ndarray
    integrator: IntegratorConfig
    diagnostics: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)
    penalty_form: tuple | None = None
    gc_form: list | None = None


def load_scenario(path, overrides=None):
    """Parse, build and validate a scenario file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ScenarioParseError(
            f"cannot parse scenario: {exc.problem}",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1,
        ) from exc
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"cannot parse scenario: {exc}") from exc
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario file must contain a mapping")
    return build_scenario(data, name=str(path), overrides=overrides)


def build_scenario(data, name="<memory>", overrides=None):
    kind = _require(data, "system", str)
    if kind not in SYSTEM_KINDS:
        raise ScenarioParseError(
            f"unknown system {kind!r}; expected one of {', '.join(SYSTEM_KINDS)}"
        )
    n = _require(data, "n", int)
    if n < 2:
        raise ScenarioParseError("dimension n must be at least 2")

    try:
        system, forms = _build_system(kind, n, data)
        y0 = _build_initial(system, kind, data)
    except TypeError as exc:
        raise ScenarioParseError(f"wrong-typed scenario value: {exc}") from exc
    except (OperatorError, lie.DimensionError, ValueError) as exc:
        if isinstance(exc, (ScenarioParseError, ScenarioValidationError)):
            raise
        raise ScenarioValidationError(str(exc)) from exc

    try:
        system.validate(y0, tol=VALIDATION_TOL)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc

    cfg = _build_integrator(data.get("integrator", {}), overrides or {})
    diagnostics = data.get("diagnostics", [])
    if diagnostics is not None and not isinstance(diagnostics, list):
        raise ScenarioParseError("diagnostics must be a list of quantity names")
    return Scenario(name, system, y0, cfg, list(diagnostics or []), data, **forms)


# --- pieces -----------------------------------------------------------------

def _require(data, key, typ=None):
    if key not in data:
        raise ScenarioParseError(f"missing required key {key!r}")
    val = data[key]
    if typ is int and isinstance(val, bool):
        raise ScenarioParseError(f"key {key!r} must be an integer")
    if typ is not None and not isinstance(val, typ):
        raise ScenarioParseError(f"key {key!r} must be of type {typ.__name__}")
    return val


def _vector(obj, n, what):
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (n,):
        raise ScenarioParseError(f"{what} must be a vector of {n} numbers")
    return arr


def _skew(obj, n, what):
    """Skew matrix from a full matrix or sparse bivector entries."""
    if isinstance(obj, dict):
        pairs = obj.get("pairs")
        if pairs is None:
            raise ScenarioParseError(f"{what}: expected a matrix or {{pairs: [[i,j,value]]}}")
        mat = np.zeros((n, n))
        for entry in pairs:
            if len(entry) != 3:
                raise ScenarioParseError(f"{what}: each pair entry is [i, j, value]")
            i, j, val = int(entry[0]) - 1, int(entry[1]) - 1, float(entry[2])
            if not (0 <= i < j < n):
                raise ScenarioParseError(f"{what}: invalid bivector indices ({entry[0]}, {entry[1]})")
            mat[i, j] = val
            mat[j, i] = -val
        return mat
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (n, n):
        raise ScenarioParseError(f"{what} must be an {n}x{n} matrix")
    if np.max(np.abs(arr + arr.T)) > 1e-10:
        raise ScenarioValidationError(f"{what} is not skew-symmetric")
    return arr


def _rotation(obj, n, what):
    if isinstance(obj, str):
        if obj == "identity":
            return np.eye(n)
        raise ScenarioParseError(f"{what}: unknown named rotation {obj!r}")
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (n, n):
        raise ScenarioParseError(f"{what} must be an {n}x{n} matrix or 'identity'")
    return arr


def _subspace(spec, n, what):
    """Subspace from generator pairs or the wedge-with family."""
    if not isinstance(spec, dict):
        raise ScenarioParseError(f"{what} must be a mapping")
    if spec.get("family") == "wedge-with":
        gamma = _vector(_require(spec, "gamma"), n, f"{what}.gamma")
        norm = np.linalg.norm(gamma)
        if norm < 1e-12:
            raise ScenarioValidationError(f"{what}.gamma must be nonzero")
        return lie.wedge_subspace_basis(gamma / norm)
    gens = _require(spec, "generators", list)
    mats = []
    for idx, gen in enumerate(gens):
        arr = np.asarray(gen, dtype=float)
        if arr.shape == (2, n):
            mats.append(lie.wedge(arr[0], arr[1]))
        elif arr.shape == (n, n):
            mats.append(_skew(gen, n, f"{what}.generators[{idx}]"))
        else:
            raise ScenarioParseError(
                f"{what}.generators[{idx}] must be a vector pair or an {n}x{n} skew matrix"
            )
    return lie.orthonormal_basis_of(mats, n=n)


def _inertia(data, n):
    spec = data.get("inertia", {"kind": "identity"})
    if not isinstance(spec, dict):
        raise ScenarioParseError("inertia must be a mapping")
    kind = spec.get("kind", "identity")
    N = lie.so_dim(n)
    if kind == "identity":
        return InertiaOperator.identity(n)
    if kind == "scalar":
        return InertiaOperator.scalar(n, float(_require(spec, "value")))
    if kind == "bivector-diag":
        values = np.asarray(_require(spec, "values"), dtype=float)
        if values.shape != (N,):
            raise ScenarioParseError(f"inertia.values must have {N} entries for so({n})")
        return InertiaOperator.from_bivector_diag(n, values)
    if kind == "bivector-dense":
        mat = np.asarray(_require(spec, "matrix"), dtype=float)
        if mat.shape != (N, N):
            raise ScenarioParseError(f"inertia.matrix must be {N}x{N} for so({n})")
        return InertiaOperator.from_bivector_matrix(n, mat)
    if kind == "special":
        axes = _vector(_require(spec, "A"), n, "inertia.A")
        return InertiaOperator.special(axes, float(spec.get("c", 0.0)))
    raise ScenarioParseError(f"unknown inertia kind {kind!r}")


def _pi0(data, n):
    spec = _require(data, "pi0", dict)
    kind = spec.get("kind", "bivector-dense")
    N = lie.so_dim(n)
    if kind == "bivector-diag":
        values = np.asarray(_require(spec, "values"), dtype=float)
        if values.shape != (N,):
            raise ScenarioParseError(f"pi0.values must have {N} entries for so({n})")
        return np.diag(values), None
    if kind == "bivector-dense":
        mat = np.asarray(_require(spec, "matrix"), dtype=float)
        if mat.shape != (N, N):
            raise ScenarioParseError(f"pi0.matrix must be {N}x{N} for so({n})")
        return mat, None
    if kind == "penalty":
        basis = _subspace(spec, n, "pi0")
        eps = float(_require(spec, "epsilon"))
        if eps <= 0:
            raise ScenarioValidationError("pi0.epsilon must be positive")
        return penalty_pi0(basis, eps), (basis, eps)
    raise ScenarioParseError(f"unknown pi0 kind {kind!r}")


def _build_system(kind, n, data):
    """The system and the Scenario fields that record how it was specified."""
    if kind == "lr":
        basis = _subspace(_require(data, "constraints", dict), n, "constraints")
        return LRSystem(_inertia(data, n), basis), {}
    if kind in ("lplusr", "geodesic-lpr"):
        pi0, penalty = _pi0(data, n)
        cls = LplusRSystem if kind == "lplusr" else GeodesicLplusRSystem
        return cls(_inertia(data, n), pi0), {"penalty_form": penalty}
    if kind == "coupled":
        spec = _require(data, "coupling", dict)
        coupling = float(_require(spec, "D"))
        rhos = [float(r) for r in _require(spec, "rhos", list)]
        subspaces = [
            _subspace(s, n, f"coupling.subspaces[{i}]")
            for i, s in enumerate(_require(spec, "subspaces", list))
        ]
        if len(subspaces) != len(rhos):
            raise ScenarioValidationError("coupling needs one rho per subspace")
        h0 = _subspace(spec["h0"], n, "coupling.h0") if "h0" in spec else None
        variant = data.get("variant", "full")
        if variant == "full":
            return CoupledFullSystem(_inertia(data, n), h0, subspaces, coupling, rhos), {}
        if variant == "reduced":
            return CoupledReducedSystem(_inertia(data, n), h0, subspaces, coupling, rhos), {}
        raise ScenarioParseError(f"unknown coupled variant {variant!r}")
    if kind == "ncoupled":
        bodies = _require(data, "bodies", list)
        a_mats, b_mats, couplings = [], [], []
        gc_form = []
        N = lie.so_dim(n)
        for idx, body in enumerate(bodies):
            if not isinstance(body, dict):
                raise ScenarioParseError(f"bodies[{idx}] must be a mapping")
            couplings.append(float(_require(body, "D")))
            if body.get("family") == "commutator-with":
                gamma = _skew(_require(body, "gamma"), n, f"bodies[{idx}].gamma")
                rho = float(_require(body, "rho"))
                if rho == 0:
                    raise ScenarioValidationError(f"bodies[{idx}].rho must be nonzero")
                a_i, b_i = commutator_constraint_matrices([gamma], [rho])
                a_mats.append(a_i[0])
                b_mats.append(b_i[0])
                gc_form.append((gamma, rho))
            else:
                a = np.asarray(_require(body, "A"), dtype=float)
                b = np.asarray(_require(body, "B"), dtype=float)
                if a.ndim != 2 or a.shape[1] != N:
                    raise ScenarioParseError(f"bodies[{idx}].A must have {N} columns")
                a_mats.append(a)
                b_mats.append(b)
                gc_form.append(None)
        return NCoupledSystem(_inertia(data, n), a_mats, b_mats, couplings), {"gc_form": gc_form}
    if kind in ("support", "rubber-support"):
        bodies = _require(data, "bodies", list)
        couplings = [float(_require(b, "D")) for b in bodies]
        rhos = [float(_require(b, "rho")) for b in bodies]
        cls = SupportSystem if kind == "support" else RubberSupportSystem
        return cls(_inertia(data, n), couplings, rhos), {}
    if kind in ("rubber-chaplygin", "cotangent", "gsr"):
        cls = {"rubber-chaplygin": RubberChaplyginSystem, "cotangent": CotangentSystem,
               "gsr": GsrSystem}[kind]
        return cls(
            _inertia(data, n), float(_require(data, "mass")), float(_require(data, "radius"))
        ), {}
    if kind == "lstar-geodesic":
        return LstarGeodesicSystem(_vector(_require(data, "axes"), n, "axes")), {}
    raise ScenarioParseError(f"unknown system {kind!r}")


def _build_initial(system, kind, data):
    init = _require(data, "initial", dict)
    n = system.n
    parts = {}
    # derived components: LR carries the moving constraint covectors, the
    # support systems read their contact directions from the body list
    if kind == "lr":
        g = _rotation(init.get("g", "identity"), n, "initial.g")
        for i in range(system.k):
            a = lie.vec_to_skew(system.h_space.vectors[:, i], n)
            parts[f"alpha{i + 1}"] = lie.Ad(g.T, a)
    if kind in ("support", "rubber-support"):
        for i, body in enumerate(data["bodies"]):
            parts[f"gamma{i + 1}"] = _vector(
                _require(body, "gamma"), n, f"bodies[{i}].gamma"
            )
    for comp in system.components:
        name = comp.name
        if name in parts:
            continue
        if name == "g":
            parts["g"] = _rotation(init.get("g", "identity"), n, "initial.g")
            continue
        if name not in init:
            raise ScenarioParseError(f"initial state is missing component {name!r}")
        val = init[name]
        if comp.kind == "skew":
            parts[name] = _skew(val, n, f"initial.{name}")
        elif comp.kind in ("unit", "vector"):
            parts[name] = _vector(val, comp.size, f"initial.{name}")
        else:
            parts[name] = _rotation(val, n, f"initial.{name}")
    return system.pack(**parts)


def _build_integrator(spec, overrides):
    if not isinstance(spec, dict):
        raise ScenarioParseError("integrator must be a mapping")
    merged = dict(spec)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return IntegratorConfig(
            method=merged.get("method", "rk4-projected"),
            h=float(merged.get("h", 1e-3)),
            steps=int(merged.get("steps", 1000)),
            renormalize_every=int(merged.get("renormalize_every", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad integrator configuration: {exc}") from exc

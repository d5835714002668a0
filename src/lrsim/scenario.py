"""Scenario files: declarative descriptions of a system, initial state and run.

A scenario is a YAML mapping.  Vectors are given in ambient coordinates;
constraint subspaces either as generator vector pairs (wedged internally)
or as the named family ``wedge-with`` built from a contact direction.
Skew matrices may be written as full matrices or as sparse bivector
entries ``pairs: [[i, j, value], ...]`` with 1-based i < j.

Schema errors, wrong-typed values among them, raise
:class:`ScenarioParseError` (CLI exit 2); numeric
validation failures, including initial states violating the target
system's constraints and finite values whose arithmetic overflows, raise
:class:`ScenarioValidationError` (exit 3).
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

    ``forms`` holds the parse results that only the checks of the system's
    kind read: for lplusr and geodesic-lpr, ``penalty_form`` is the
    (basis, epsilon) of a ``pi0: {kind: penalty}`` entry or None; for
    ncoupled, ``gc_form`` holds, per body, the (Gamma, rho) of a
    ``family: commutator-with`` entry or None.
    """

    name: str
    system: object
    initial: np.ndarray
    integrator: IntegratorConfig
    diagnostics: list = field(default_factory=list)
    forms: dict = field(default_factory=dict)


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
    _reject_non_finite(data, "")
    kind = _require(data, "system", str)
    if kind not in SYSTEM_KINDS:
        raise ScenarioParseError(
            f"unknown system {kind!r}; expected one of {', '.join(SYSTEM_KINDS)}"
        )
    n = _number(_require(data, "n"), "n", int)
    if n < 2:
        raise ScenarioParseError("dimension n must be at least 2")

    try:
        system, forms = _build_system(kind, n, data)
        y0 = _build_initial(system, kind, data)
    except TypeError as exc:
        raise ScenarioParseError(f"wrong-typed scenario value: {exc}") from exc
    except OverflowError as exc:
        # Python's float ** raises where numpy would return inf
        raise ScenarioValidationError(f"a scenario value overflows: {exc}") from exc
    except (OperatorError, lie.DimensionError, ValueError) as exc:
        if isinstance(exc, (ScenarioParseError, ScenarioValidationError)):
            raise
        raise ScenarioValidationError(str(exc)) from exc

    try:
        system.validate(y0)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc

    cfg = _build_integrator(data.get("integrator", {}), overrides or {})
    diagnostics = _diagnostics(data.get("diagnostics"), system, y0)
    return Scenario(name, system, y0, cfg, diagnostics, forms)


# --- pieces -----------------------------------------------------------------

def _reject_non_finite(obj, where):
    """Parse error for a number (or a numeric string) that is NaN or infinite."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            _reject_non_finite(val, f"{where}.{key}" if where else str(key))
    elif isinstance(obj, list):
        for idx, val in enumerate(obj):
            _reject_non_finite(val, f"{where}[{idx}]")
    elif isinstance(obj, (int, float, str)) and not isinstance(obj, bool):
        try:
            finite = np.isfinite(float(obj))
        except OverflowError:
            finite = False
        except ValueError:
            return
        if not finite:
            raise ScenarioParseError(f"{where} must be a finite number, got {obj!r}")


def _diagnostics(names, system, y0):
    """The ``diagnostics`` list: conserved-quantity names and ``constraint:<residual>``."""
    if names is None:
        return []
    if not isinstance(names, list):
        raise ScenarioParseError("diagnostics must be a list of quantity names")
    known = [*system.conserved_entries(), *(f"constraint:{r}" for r in system.constraints(y0))]
    for entry in names:
        if entry not in known:
            raise ScenarioParseError(
                f"unknown diagnostics entry {entry!r} for system {system.kind!r}; "
                f"expected one of {', '.join(known)}"
            )
    return names


def _require(data, key, typ=None):
    if key not in data:
        raise ScenarioParseError(f"missing required key {key!r}")
    val = data[key]
    if typ is not None and not isinstance(val, typ):
        raise ScenarioParseError(f"key {key!r} must be of type {typ.__name__}")
    return val


_NUMBER_KINDS = {float: "a number", int: "an integer", np.ndarray: "an array of numbers"}


def _number(val, what, typ=float):
    """The scenario value ``what`` as a float, an int, or (``np.ndarray``)
    a float array from nested lists.

    Numeric strings pass as floats; a bool never passes, and an int must be
    written as one.  Anything else is a parse error that names ``what``.
    """
    try:
        if _has_bool(val) or (typ is int and not isinstance(val, int)):
            raise TypeError
        return np.asarray(val, dtype=float) if typ is np.ndarray else typ(val)
    except (TypeError, ValueError):
        raise ScenarioParseError(
            f"wrong-typed scenario value: {what} must be {_NUMBER_KINDS[typ]}, got {val!r}"
        ) from None


def _has_bool(obj):
    return isinstance(obj, bool) or (isinstance(obj, list) and any(map(_has_bool, obj)))


def _vector(obj, n, what):
    arr = _number(obj, what, np.ndarray)
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
            i = _number(entry[0], f"{what}.pairs index", int) - 1
            j = _number(entry[1], f"{what}.pairs index", int) - 1
            val = _number(entry[2], f"{what}.pairs value")
            if not (0 <= i < j < n):
                raise ScenarioParseError(f"{what}: invalid bivector indices ({entry[0]}, {entry[1]})")
            mat[i, j] = val
            mat[j, i] = -val
        return mat
    arr = _number(obj, what, np.ndarray)
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
    arr = _number(obj, what, np.ndarray)
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
        arr = _number(gen, f"{what}.generators[{idx}]", np.ndarray)
        if arr.shape == (2, n):
            mats.append(lie.wedge(arr[0], arr[1]))
        elif arr.shape == (n, n):
            mats.append(_skew(gen, n, f"{what}.generators[{idx}]"))
        else:
            raise ScenarioParseError(
                f"{what}.generators[{idx}] must be a vector pair or an {n}x{n} skew matrix"
            )
    return lie.orthonormal_basis_of(mats, n=n)


_BIVECTOR_KINDS = ("bivector-diag", "bivector-dense")


def _bivector_matrix(spec, kind, n, what):
    """The N x N matrix of the operator spec ``what``: ``np.diag(values)`` for
    ``bivector-diag``, ``matrix`` for ``bivector-dense``."""
    N = lie.so_dim(n)
    if kind == "bivector-diag":
        values = _number(_require(spec, "values"), f"{what}.values", np.ndarray)
        if values.shape != (N,):
            raise ScenarioParseError(f"{what}.values must have {N} entries for so({n})")
        return np.diag(values)
    mat = _number(_require(spec, "matrix"), f"{what}.matrix", np.ndarray)
    if mat.shape != (N, N):
        raise ScenarioParseError(f"{what}.matrix must be {N}x{N} for so({n})")
    return mat


def _inertia(data, n):
    spec = data.get("inertia", {"kind": "identity"})
    if not isinstance(spec, dict):
        raise ScenarioParseError("inertia must be a mapping")
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return InertiaOperator.identity(n)
    if kind == "scalar":
        return InertiaOperator.scalar(n, _number(_require(spec, "value"), "inertia.value"))
    if kind in _BIVECTOR_KINDS:
        return InertiaOperator(n, _bivector_matrix(spec, kind, n, "inertia"))
    if kind == "special":
        axes = _vector(_require(spec, "A"), n, "inertia.A")
        return InertiaOperator.special(axes, _number(spec.get("c", 0.0), "inertia.c"))
    raise ScenarioParseError(f"unknown inertia kind {kind!r}")


def _pi0(data, n):
    spec = _require(data, "pi0", dict)
    kind = spec.get("kind", "bivector-dense")
    if kind in _BIVECTOR_KINDS:
        return _bivector_matrix(spec, kind, n, "pi0"), None
    if kind == "penalty":
        basis = _subspace(spec, n, "pi0")
        eps = _number(_require(spec, "epsilon"), "pi0.epsilon")
        if eps <= 0:
            raise ScenarioValidationError("pi0.epsilon must be positive")
        return penalty_pi0(basis, eps), (basis, eps)
    raise ScenarioParseError(f"unknown pi0 kind {kind!r}")


def _build_system(kind, n, data):
    """The system and the ``Scenario.forms`` that record how it was specified."""
    if kind == "lr":
        basis = _subspace(_require(data, "constraints", dict), n, "constraints")
        return LRSystem(_inertia(data, n), basis), {}
    if kind in ("lplusr", "geodesic-lpr"):
        pi0, penalty = _pi0(data, n)
        cls = LplusRSystem if kind == "lplusr" else GeodesicLplusRSystem
        return cls(_inertia(data, n), pi0), {"penalty_form": penalty}
    if kind == "coupled":
        spec = _require(data, "coupling", dict)
        coupling = _number(_require(spec, "D"), "coupling.D")
        rhos = [
            _number(r, f"coupling.rhos[{i}]") for i, r in enumerate(_require(spec, "rhos", list))
        ]
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
            couplings.append(_number(_require(body, "D"), f"bodies[{idx}].D"))
            if body.get("family") == "commutator-with":
                gamma = _skew(_require(body, "gamma"), n, f"bodies[{idx}].gamma")
                rho = _number(_require(body, "rho"), f"bodies[{idx}].rho")
                if rho == 0:
                    raise ScenarioValidationError(f"bodies[{idx}].rho must be nonzero")
                a_i, b_i = commutator_constraint_matrices([gamma], [rho])
                a_mats.append(a_i[0])
                b_mats.append(b_i[0])
                gc_form.append((gamma, rho))
            else:
                a = _number(_require(body, "A"), f"bodies[{idx}].A", np.ndarray)
                b = _number(_require(body, "B"), f"bodies[{idx}].B", np.ndarray)
                if a.ndim != 2 or a.shape[1] != N:
                    raise ScenarioParseError(f"bodies[{idx}].A must have {N} columns")
                a_mats.append(a)
                b_mats.append(b)
                gc_form.append(None)
        return NCoupledSystem(_inertia(data, n), a_mats, b_mats, couplings), {"gc_form": gc_form}
    if kind in ("support", "rubber-support"):
        bodies = _require(data, "bodies", list)
        couplings = [_number(_require(b, "D"), f"bodies[{i}].D") for i, b in enumerate(bodies)]
        rhos = [_number(_require(b, "rho"), f"bodies[{i}].rho") for i, b in enumerate(bodies)]
        cls = SupportSystem if kind == "support" else RubberSupportSystem
        return cls(_inertia(data, n), couplings, rhos), {}
    if kind in ("rubber-chaplygin", "cotangent", "gsr"):
        cls = {"rubber-chaplygin": RubberChaplyginSystem, "cotangent": CotangentSystem,
               "gsr": GsrSystem}[kind]
        return cls(
            _inertia(data, n), _number(_require(data, "mass"), "mass"),
            _number(_require(data, "radius"), "radius"),
        ), {}
    if kind == "lstar-geodesic":
        return LstarGeodesicSystem(_vector(_require(data, "axes"), n, "axes")), {}
    raise ScenarioParseError(f"unknown system {kind!r}")


def _build_initial(system, kind, data):
    init = _require(data, "initial", dict)
    n = system.n
    parts = {}
    # derived components: the support systems read their contact directions
    # from the body list, and LRSystem.initial_state derives the moving
    # constraint covectors from g
    if kind in ("support", "rubber-support"):
        for i, body in enumerate(data["bodies"]):
            parts[f"gamma{i + 1}"] = _vector(
                _require(body, "gamma"), n, f"bodies[{i}].gamma"
            )
    for comp in system.components[:2] if kind == "lr" else system.components:
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
    if kind == "lr":
        return system.initial_state(parts["g"], parts["omega"])
    return system.pack(**parts)


def _build_integrator(spec, overrides):
    if not isinstance(spec, dict):
        raise ScenarioParseError("integrator must be a mapping")
    merged = dict(spec)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return IntegratorConfig(
            method=merged.get("method", "rk4-projected"),
            h=_number(merged.get("h", 1e-3), "integrator.h"),
            steps=_number(merged.get("steps", 1000), "integrator.steps", int),
            renormalize_every=_number(
                merged.get("renormalize_every", 1), "integrator.renormalize_every", int
            ),
        )
    except ScenarioParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad integrator configuration: {exc}") from exc

"""Seeded inputs for the benchmark workloads.

Everything here uses numpy and PyYAML only, never ``lrsim``: the program
under test receives the generated files or dicts and nothing else, so a
change to the library cannot change its own inputs.

* :func:`scenario_files` -- the shipped ``scenarios/*.yaml``.  Seed 0 copies
  them byte for byte.  Any other seed jitters inertia values, masses, radii,
  couplings and initial velocities by a factor in [0.9, 1.1] and keeps every
  relation the systems validate: zero entries stay zero (which keeps the
  velocity constraints of the shipped files), slaved partner velocities are
  recomputed from the jittered ones, and ``c = m rho^2`` is kept wherever the
  file has it.
* :func:`ensemble_members` -- random scenario dicts for every system kind that
  carries a rotation component, at n = 3, 4 and 5, integrated with
  ``lie-rk4``.  Within one kind every member has the same structure (number
  of constraints, bodies, subspaces), so a batched kernel could take them as
  one batch.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import yaml

JITTER = 0.1

# kinds with a rotation component, in the order members are drawn
ENSEMBLE_KINDS = (
    "lr",
    "lplusr",
    "geodesic-lpr",
    "coupled",
    "ncoupled",
    "support",
    "rubber-support",
    "rubber-chaplygin",
)
ENSEMBLE_DIMS = (3, 4, 5)
ENSEMBLE_H = 1e-3


# --- small numpy helpers (bivector coordinates are orthonormal) -------------

def _upper(x):
    return x[np.triu_indices(x.shape[0], 1)]


def _skew(v, n):
    x = np.zeros((n, n))
    x[np.triu_indices(n, 1)] = v
    return x - x.T


def _so_dim(n):
    return n * (n - 1) // 2


def _rotation(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _rand_skew(rng, n):
    return _skew(rng.normal(size=_so_dim(n)), n)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _spd(rng, size, lo=0.6, hi=2.4):
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    m = q @ np.diag(rng.uniform(lo, hi, size)) @ q.T
    return 0.5 * (m + m.T)


def _project_out(v, directions):
    """Component of v orthogonal to the span of the given columns."""
    if directions.shape[1] == 0:
        return v
    u, sv, _ = np.linalg.svd(directions, full_matrices=False)
    q = u[:, sv > 1e-12 * max(sv[0], 1.0)]  # an orthonormal basis of the span
    return v - q @ (q.T @ v)


def _project_onto(v, directions):
    return v - _project_out(v, directions)


def _wedge(x, y):
    return np.outer(x, y) - np.outer(y, x)


# --- shipped scenarios, jittered --------------------------------------------

def _factor(rng):
    return float(rng.uniform(1.0 - JITTER, 1.0 + JITTER))


def _jitter_list(values, rng):
    return [float(v) * _factor(rng) if v != 0 else float(v) for v in values]


def _jitter_pairs(spec, rng):
    if isinstance(spec, dict) and "pairs" in spec:
        return {"pairs": [[i, j, float(v) * _factor(rng)] for i, j, v in spec["pairs"]]}
    return spec


def _pairs_to_skew(spec, n):
    if isinstance(spec, dict):
        x = np.zeros((n, n))
        for i, j, v in spec["pairs"]:
            x[int(i) - 1, int(j) - 1] = float(v)
            x[int(j) - 1, int(i) - 1] = -float(v)
        return x
    return np.asarray(spec, dtype=float)


def _skew_to_pairs(x):
    n = x.shape[0]
    return {"pairs": [[i + 1, j + 1, float(x[i, j])]
                      for i in range(n) for j in range(i + 1, n) if x[i, j] != 0.0]}


def _subspace_directions(spec, n):
    """Columns spanning a scenario subspace, in bivector coordinates."""
    if spec.get("family") == "wedge-with":
        gamma = np.asarray(spec["gamma"], dtype=float)
        gamma = gamma / np.linalg.norm(gamma)
        cols = [_upper(_wedge(e, gamma)) for e in np.eye(n)]
    else:
        cols = []
        for gen in spec["generators"]:
            arr = np.asarray(gen, dtype=float)
            cols.append(_upper(_wedge(arr[0], arr[1]) if arr.shape == (2, n) else arr))
    return np.column_stack(cols) if cols else np.zeros((_so_dim(n), 0))


def jitter_scenario(data, rng):
    """A scenario with its values jittered and its structure kept."""
    data = dict(data)
    n = int(data["n"])
    kind = data["system"]
    old_mr2 = None
    if "mass" in data and "radius" in data:
        old_mr2 = float(data["mass"]) * float(data["radius"]) ** 2
        data["mass"] = float(data["mass"]) * _factor(rng)
        data["radius"] = float(data["radius"]) * _factor(rng)
    if "axes" in data:
        data["axes"] = _jitter_list(data["axes"], rng)

    inertia = dict(data.get("inertia", {"kind": "identity"}))
    if inertia.get("kind") == "bivector-diag":
        inertia["values"] = _jitter_list(inertia["values"], rng)
    elif inertia.get("kind") == "scalar":
        inertia["value"] = float(inertia["value"]) * _factor(rng)
    elif inertia.get("kind") == "special":
        inertia["A"] = _jitter_list(inertia["A"], rng)
        c = float(inertia.get("c", 0.0))
        if old_mr2 is not None and abs(c - old_mr2) < 1e-12:
            inertia["c"] = data["mass"] * data["radius"] ** 2
    if "inertia" in data:
        data["inertia"] = inertia

    if "pi0" in data and data["pi0"].get("kind") == "bivector-diag":
        data["pi0"] = dict(data["pi0"], values=_jitter_list(data["pi0"]["values"], rng))

    if "bodies" in data:
        data["bodies"] = [
            dict(b, D=float(b["D"]) * _factor(rng), rho=float(b["rho"]) * _factor(rng))
            for b in data["bodies"]
        ]

    init = dict(data["initial"])
    for name in ("omega", "p", "v"):
        if name in init:
            if isinstance(init[name], dict):
                init[name] = _jitter_pairs(init[name], rng)
            elif np.ndim(init[name]) == 1:
                init[name] = _jitter_list(init[name], rng)

    g = np.eye(n) if init.get("g", "identity") == "identity" else np.asarray(init["g"], float)
    if kind == "coupled":
        spec = dict(data["coupling"])
        spec["D"] = float(spec["D"]) * _factor(rng)
        spec["rhos"] = _jitter_list(spec["rhos"], rng)
        data["coupling"] = spec
        if data.get("variant", "full") == "full":
            # h_i components of W are slaved: <h_i, Ad_g omega + rho_i W> = 0
            omega_space = _upper(g @ _pairs_to_skew(init["omega"], n) @ g.T)
            w = _upper(_pairs_to_skew(init["W"], n))
            for sub, rho in zip(spec["subspaces"], spec["rhos"]):
                dirs = _subspace_directions(sub, n)
                w = _project_out(w, dirs) - _project_onto(omega_space, dirs) / rho
            init["W"] = _skew_to_pairs(_skew(w, n))
    if kind == "ncoupled":
        omega_space = g @ _pairs_to_skew(init["omega"], n) @ g.T
        for idx, body in enumerate(data["bodies"]):
            if body.get("family") == "commutator-with":
                gamma = _pairs_to_skew(body["gamma"], n)
                bracket = gamma @ omega_space - omega_space @ gamma
                init[f"W{idx + 1}"] = [float(v) for v in _upper(bracket) / body["rho"]]
    data["initial"] = init
    return data


def scenario_files(scenario_dir, out_dir, seed):
    """Write the workload's scenario files into ``out_dir``; return their paths.

    Seed 0 copies the shipped files unchanged.  Each other file draws its
    jitter from its own stream, keyed by the seed and the file's position.
    """
    sources = sorted(Path(scenario_dir).glob("*.yaml"))
    if not sources:
        raise FileNotFoundError(f"no scenario files in {scenario_dir}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, src in enumerate(sources):
        dst = out_dir / src.name
        if seed == 0:
            shutil.copyfile(src, dst)
        else:
            rng = np.random.default_rng([seed, index])
            with open(src) as fh:
                data = yaml.safe_load(fh)
            with open(dst, "w") as fh:
                yaml.safe_dump(jitter_scenario(data, rng), fh, sort_keys=False)
        paths.append(dst)
    return paths


# --- ensemble members -------------------------------------------------------

def _member(kind, n, rng, steps):
    N = _so_dim(n)
    g = _rotation(rng, n)
    data = {"system": kind, "n": n,
            "inertia": {"kind": "bivector-dense", "matrix": _spd(rng, N).tolist()}}
    omega = _rand_skew(rng, n)
    extra = {}

    if kind == "lr":
        gen = _rand_skew(rng, n)
        data["constraints"] = {"generators": [gen.tolist()]}
        # right-invariant constraint: omega orthogonal to Ad_{g^-1} of the generator
        alpha = _upper(g.T @ gen @ g)
        omega = _skew(_project_out(_upper(omega), alpha[:, None]), n)
    elif kind in ("lplusr", "geodesic-lpr"):
        inertia = np.asarray(data["inertia"]["matrix"])
        floor = np.linalg.eigvalsh(inertia)[0]
        # eigenvalues above -0.3 * floor keep I + Ad Pi0 Ad positive definite
        data["pi0"] = {"kind": "bivector-dense",
                       "matrix": _spd(rng, N, -0.3 * floor, 1.5).tolist()}
    elif kind == "coupled":
        v0, v1 = rng.normal(size=N), rng.normal(size=N)
        v0 /= np.linalg.norm(v0)
        v1 = _project_out(v1, v0[:, None])
        v1 /= np.linalg.norm(v1)
        rho = float(rng.uniform(0.4, 1.5))
        data["variant"] = "full"
        data["coupling"] = {
            "D": float(rng.uniform(0.5, 2.0)),
            "rhos": [rho],
            "h0": {"generators": [_skew(v0, n).tolist()]},
            "subspaces": [{"generators": [_skew(v1, n).tolist()]}],
        }
        # omega orthogonal to h_0^g; the h_1 part of W is slaved to omega
        omega = _skew(_project_out(_upper(omega), _upper(g.T @ _skew(v0, n) @ g)[:, None]), n)
        omega_space = _upper(g @ omega @ g.T)
        w = _project_out(rng.normal(size=N), v1[:, None]) - _project_onto(omega_space, v1[:, None]) / rho
        extra["W"] = _skew(w, n).tolist()
    elif kind == "ncoupled":
        gamma = _rand_skew(rng, n)
        rho = float(rng.uniform(0.4, 1.2))
        data["bodies"] = [{"D": float(rng.uniform(0.5, 1.5)), "rho": rho,
                           "family": "commutator-with", "gamma": gamma.tolist()}]
        omega_space = g @ omega @ g.T
        w = _upper(gamma @ omega_space - omega_space @ gamma) / rho
        extra["W1"] = w.tolist()
    elif kind in ("support", "rubber-support"):
        count = 2 if kind == "support" else 1
        hi = 1.5 if kind == "support" else 1.0
        data["bodies"] = [{"gamma": _unit(rng, n).tolist(), "D": float(rng.uniform(0.2, 0.8)),
                           "rho": float(rng.uniform(0.4, hi))} for _ in range(count)]
    elif kind == "rubber-chaplygin":
        data["mass"] = float(rng.uniform(0.5, 1.5))
        data["radius"] = float(rng.uniform(0.6, 1.2))
        # no twist: omega lies in R^n ^ gamma, gamma = g^T e_n
        gamma = g.T[:, -1]
        omega = _wedge(rng.normal(size=n), gamma)
    else:
        raise ValueError(f"no ensemble generator for kind {kind!r}")

    data["initial"] = {"g": g.tolist(), "omega": omega.tolist(), **extra}
    data["integrator"] = {"method": "lie-rk4", "h": ENSEMBLE_H, "steps": int(steps)}
    return data


def ensemble_members(seed, steps, kinds=ENSEMBLE_KINDS, dims=ENSEMBLE_DIMS):
    """(name, scenario dict) for one member per kind and dimension."""
    members = []
    for k_index, kind in enumerate(kinds):
        for n in dims:
            rng = np.random.default_rng([seed, k_index, n])
            members.append((f"{kind}-n{n}", _member(kind, n, rng, steps)))
    return members

"""Run configuration: defaults, validation, canonical hashing.

A configuration is a plain nested dict (JSON file on disk).  Validation
reports every offending field by path; the canonical hash (sha256 of the
sorted-key JSON) names the run directory, so identical configurations land
in identical places and rerunning is byte-reproducible.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

from .functionals import TERMS, VARIANT_FAMILY, VARIANTS
from .gloperator import derive_coeffs
from .grid import WINDOW, DomainSpec, build_grid
from .solver import SCHEMES, VALID_SOLVER_BC

DEFAULTS = {
    "seed": 7,
    "domain": {
        "shape": "unit_square",
        "omega_center": [0.5, 0.5],
        "omega_radius": 0.25,
    },
    "grid": {"nx": 64, "ny": 64, "nt": 64, "T": 1.0},
    "coeffs": {"b": 0.3, "c": 0.4, "r0": 0.6, "delta0": 0.1},
    "solver": {"scheme": "imex_cn", "bc": "dirichlet0", "amplitude": 1.0,
               "n_modes": 4},
    "identity": {"n_fields": 10, "lambdas": [2.0, 8.0], "mus": [1.5, 3.0],
                 "threshold": 1e-6},
    "scan": {"lambdas": [2.0, 4.0, 8.0, 16.0, 32.0, 64.0], "mus": [1.5, 2.0, 3.0],
             "variants": ["interior", "boundary", "linear_interior",
                          "linear_boundary"],
             "n_trajectories": 5},
    "stability": {"deltas": [1e-3, 1e-2, 1e-1],
                  "eps_fractions": [0.05, 0.1, 0.2],
                  "variants": ["interior", "boundary"]},
    "output_dir": None,
}


# the largest grid accepted: one complex trajectory, 16 (nx+1)(ny+1)(nt+1)
# bytes, may take at most 1 GiB (256^3 takes 272 MB); so may the arrays that
# a lockstep suite holds for all its members
MAX_TRAJECTORY_BYTES = 2 ** 30


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _merge(base, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError([f"{path[:-1] or 'top level'}: must be a JSON object"])
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError([f"{path}{key}: unknown field"])
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], val, f"{path}{key}.")
        else:
            out[key] = val
    return out


def load_config(path=None, overrides=None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"--config: cannot read {path}: {exc}"]) from None
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _real(x) -> bool:
    """A finite JSON number; bools are not numbers here, nor is an int too
    large for a float."""
    return not isinstance(x, bool) and (
        isinstance(x, int) and _finite(lambda: float(x))
        or isinstance(x, float) and math.isfinite(x))


def _int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(value) -> bool:
    """value() is a finite float; an int too large for a float is not."""
    try:
        return math.isfinite(value())
    except OverflowError:
        return False


# dotted path -> (check, message)
_SCALAR_RULES = {
    "seed": (lambda v: _int(v) and v >= 0, "must be an int >= 0"),
    "output_dir": (lambda v: v is None or isinstance(v, str), "must be a path or null"),
    "domain.shape": (lambda v: v in ("unit_square", "unit_disk"),
                     "must be unit_square or unit_disk"),
    "domain.omega_center": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                            and all(map(_real, v)), "must be a pair of numbers"),
    "domain.omega_radius": (lambda v: _real(v) and v > 0, "must be a positive number"),
    "grid.nx": (lambda v: _int(v) and v >= 16, "must be an int >= 16"),
    "grid.ny": (lambda v: _int(v) and v >= 16, "must be an int >= 16"),
    "grid.nt": (lambda v: _int(v) and v >= 16, "must be an int >= 16"),
    "grid.T": (lambda v: _real(v) and v > 0, "must be a positive number"),
    # the coefficients divide by 1 + b^2
    "coeffs.b": (lambda v: _real(v) and _finite(lambda: 1.0 + v * v),
                 "must be a number with 1 + b^2 finite"),
    "coeffs.c": (_real, "must be a number"),
    "coeffs.r0": (lambda v: _real(v) and 0 < v < 1, "must be a number in (0, 1)"),
    "coeffs.delta0": (lambda v: _real(v) and 0 < v < 0.125,
                      "must be a number in (0, 1/8)"),
    "solver.scheme": (lambda v: v in SCHEMES, f"must be {' or '.join(SCHEMES)}"),
    "solver.bc": (lambda v: v in VALID_SOLVER_BC,
                  f"must be one of {', '.join(VALID_SOLVER_BC)}"),
    "solver.amplitude": (lambda v: _real(v) and v > 0, "must be a positive number"),
    "solver.n_modes": (lambda v: _int(v) and 1 <= v <= 8, "must be an int in 1..8"),
    "identity.n_fields": (lambda v: _int(v) and v >= 1, "must be an int >= 1"),
    "identity.threshold": (lambda v: _real(v) and v > 0, "must be a positive number"),
    "scan.n_trajectories": (lambda v: _int(v) and v >= 1, "must be an int >= 1"),
}

# dotted path -> (least length, check of each entry, message); no entry may
# repeat an earlier one
_LIST_RULES = {
    "identity.lambdas": (1, lambda v: _real(v) and v > 1, "must be a number > 1"),
    "identity.mus": (1, lambda v: _real(v) and v > 1, "must be a number > 1"),
    "scan.lambdas": (2, lambda v: _real(v) and v > 1, "must be a number > 1"),
    "scan.mus": (1, lambda v: _real(v) and v > 1, "must be a number > 1"),
    "scan.variants": (1, lambda v: v in VARIANTS, "unknown variant"),
    "stability.deltas": (1, lambda v: _real(v) and v > 0, "must be a positive number"),
    "stability.eps_fractions": (1, lambda v: _real(v) and 0 < v < 0.5,
                                "must be a number in (0, 0.5)"),
    "stability.variants": (1, lambda v: v in ("interior", "boundary"),
                           "must be interior or boundary"),
}


def _lookup(cfg: dict, path: str):
    for key in path.split("."):
        cfg = cfg[key]
    return cfg


def _oversized_suites(cfg: dict) -> dict:
    """{field: error} for each lockstep suite whose arrays for its members
    would pass MAX_TRAJECTORY_BYTES: stability's u2 with one u1 per entry of
    stability.deltas, each counted at 16 (nx+1)(ny+1)(WINDOW+2) bytes of
    slices (it holds one slice, so the count is conservative), and the
    scan's scan.n_trajectories members, each holding as much and also its
    stacked integrands, WINDOW slices of each, 8 (nx+1)(ny+1) bytes a
    slice, and each cell's per-slice sums, 8 (nt+1) bytes per row, over
    len(mus) x len(lambdas) cells per family of scan.variants
    (bounded by taking each integrand at the volume's size and every row of
    TERMS)."""
    grid, scan, deltas = cfg["grid"], cfg["scan"], cfg["stability"]["deltas"]
    nx, ny, nt = grid["nx"], grid["ny"], grid["nt"]
    if not (_int(nx) and _int(ny) and _int(nt)):
        return {}
    def entries(vals):
        return vals if isinstance(vals, (list, tuple)) else []

    nodes = (nx + 1) * (ny + 1)
    held = 16 * nodes * (WINDOW + 2)
    families = {VARIANT_FAMILY[v] for v in entries(scan["variants"]) if v in VARIANTS}
    cells = len(families) * len(entries(scan["mus"])) * len(entries(scan["lambdas"]))
    scan_each = held + 8 * WINDOW * nodes * len({t.integrand for t in TERMS}) \
        + 8 * (nt + 1) * len(TERMS) * cells
    members = {"scan.n_trajectories": (scan["n_trajectories"], scan_each),
               "stability.deltas": (len(entries(deltas)) + 1, held)}
    return {path: f"{path}: a suite of {m} members would take {each} bytes "
                  f"for each, {m * each} in all, over the limit of "
                  f"{MAX_TRAJECTORY_BYTES}"
            for path, (m, each) in members.items()
            if _int(m) and m * each > MAX_TRAJECTORY_BYTES}


def validate_config(cfg: dict) -> None:
    errs = [f"{path}: {msg}" for path, (ok, msg) in _SCALAR_RULES.items()
            if not ok(_lookup(cfg, path))]
    b, c = cfg["coeffs"]["b"], cfg["coeffs"]["c"]
    if _SCALAR_RULES["coeffs.b"][0](b) and _real(c) and not (
            _finite(lambda: derive_coeffs(b, c).alpha2)
            and _finite(lambda: derive_coeffs(b, c).beta2)):
        errs.append("coeffs.c: must be a number with alpha2 = (1 + bc)/(1 + b^2) "
                    "and beta2 = (c - b)/(1 + b^2) finite")
    oversized = _oversized_suites(cfg)
    errs += oversized.values()
    for path, (least, ok, msg) in _LIST_RULES.items():
        vals = _lookup(cfg, path)
        if not isinstance(vals, (list, tuple)) or len(vals) < least:
            errs.append(f"{path}: must be a list of at least {least} "
                        + ("entry" if least == 1 else "entries"))
            continue
        if path in oversized:
            continue         # one error for the list, not one per entry
        seen = set()         # entries that pass are numbers or strings
        for i, v in enumerate(vals):
            if not ok(v):
                errs.append(f"{path}[{i}]: {msg}")
            elif v in seen:
                errs.append(f"{path}[{i}]: repeats an earlier entry")
            else:
                seen.add(v)
    dims = {k: cfg["grid"][k] for k in ("nx", "ny", "nt")}
    if _int(dims["nx"]) and _int(dims["ny"]) and dims["nx"] != dims["ny"]:
        errs.append("grid.ny: must equal grid.nx (the grid spacing is uniform)")
    if all(map(_int, dims.values())):
        size = 16 * math.prod(n + 1 for n in dims.values())
        if size > MAX_TRAJECTORY_BYTES:
            largest = max(dims, key=dims.get)
            errs.append(f"grid.{largest}: one complex trajectory would take "
                        f"16 (nx+1)(ny+1)(nt+1) = {size} bytes, over the "
                        f"limit of {MAX_TRAJECTORY_BYTES}")
    if errs:
        raise ConfigError(errs)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def build_domain(cfg: dict) -> DomainSpec:
    d = cfg["domain"]
    return DomainSpec(shape=d["shape"], omega_center=tuple(d["omega_center"]),
                      omega_radius=d["omega_radius"])


def build_run_grid(cfg: dict):
    g = cfg["grid"]
    return build_grid(build_domain(cfg), g["nx"], g["ny"], g["nt"], g["T"])

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
from .grid import DomainSpec, build_grid
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


# the most bytes that the arrays of one run may take (a 256^3 trajectory: 272 MB)
MAX_TRAJECTORY_BYTES = 2 ** 30
# complex slices that march holds for each member of a stack: its state and
# its step's temporaries (5.6 to 7.5 traced at 32^2 and 64^2, both schemes)
MARCH_SLICES = 8


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


def load_config(path=None, overrides=None, command=None) -> dict:
    """Defaults, file, then overrides, validated for command (every one if None)."""
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
    validate_config(cfg, command)
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


def _oversized(cfg: dict, command=None) -> dict:
    """{field: error} for the arrays over the limit that command (any if None) holds."""
    grid, scan, st = cfg["grid"], cfg["scan"], cfg["stability"]
    dims = {k: grid[k] for k in ("nx", "ny", "nt")}
    if not all(map(_int, dims.values())):
        return {}
    def entries(vals):
        return vals if isinstance(vals, (list, tuple)) else []

    nodes, nt = (dims["nx"] + 1) * (dims["ny"] + 1), dims["nt"]
    families = {VARIANT_FAMILY[v] for v in entries(scan["variants"]) if v in VARIANTS}
    cells = len(families) * len(entries(scan["mus"])) * len(entries(scan["lambdas"]))
    # command -> (list field, members, fewest members, and each member's real
    # slices of 8 (nx+1)(ny+1) bytes and rows of 8 (nt+1) bytes): the scan's
    # march, its three held slices, the stacked step and the y_t
    # temporary, one slice of each integrand, and a row per term and cell;
    # stability's march and, as if each were a difference, |u|^6, energy and
    # variant rows; solve's one trajectory, verify-identity's grid cap
    trajectory = (None, 1, 1, 2 * (nt + 1), 0)
    holds = {"carleman-scan": ("scan.n_trajectories", scan["n_trajectories"], 1,
                               2 * (3 + 1 + 1 + MARCH_SLICES)
                               + len({t.integrand for t in TERMS}),
                               len(TERMS) * cells),
             "stability": ("stability.deltas", len(entries(st["deltas"])) + 1, 2,
                           2 * MARCH_SLICES, 2 + len(entries(st["variants"]))),
             "solve": trajectory, "verify-identity": trajectory}
    errs = {}
    for name, (field, m, fewest, slices, rows) in holds.items():
        each = 8 * (slices * nodes + rows * (nt + 1))
        if command not in (None, name) or not _int(m) or m * each <= MAX_TRAJECTORY_BYTES:
            continue
        msg = f"a suite of {m} members would take {each} bytes for each, {m * each} in all"
        if field is None:
            field = f"grid.{max(dims, key=dims.get)}"
            msg = f"one complex trajectory would take 16 (nx+1)(ny+1)(nt+1) = {each} bytes"
        elif fewest * each > MAX_TRAJECTORY_BYTES:   # no list length fits
            field = "grid.nt" if rows * (nt + 1) > slices * nodes else "grid.nx"
            msg += f", and {fewest * each} at its fewest members"
        errs.setdefault(field, f"{field}: {msg}, over the limit of {MAX_TRAJECTORY_BYTES}")
    return errs


def validate_config(cfg: dict, command=None) -> None:
    errs = [f"{path}: {msg}" for path, (ok, msg) in _SCALAR_RULES.items()
            if not ok(_lookup(cfg, path))]
    b, c = cfg["coeffs"]["b"], cfg["coeffs"]["c"]
    if _SCALAR_RULES["coeffs.b"][0](b) and _real(c) and not (
            _finite(lambda: derive_coeffs(b, c).alpha2)
            and _finite(lambda: derive_coeffs(b, c).beta2)):
        errs.append("coeffs.c: must be a number with alpha2 = (1 + bc)/(1 + b^2) "
                    "and beta2 = (c - b)/(1 + b^2) finite")
    oversized = _oversized(cfg, command)
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
    nx, ny = cfg["grid"]["nx"], cfg["grid"]["ny"]
    if _int(nx) and _int(ny) and nx != ny:
        errs.append("grid.ny: must equal grid.nx (the grid spacing is uniform)")
    errs += oversized.values()
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

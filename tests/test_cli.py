import contextlib
import csv
import filecmp
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcarleman import cli, functionals, identity, stability
from glcarleman.cli import main
from glcarleman.config import DEFAULTS, ConfigError, config_hash, load_config
from glcarleman.solver import SCHEMES, load_trajectory


def run_in(tmp_path, argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(argv)
    finally:
        os.chdir(cwd)


BASE = ["--grid", "32", "--seed", "3"]
DISK = {"domain": {"shape": "unit_disk", "omega_center": [0.0, 0.0],
                   "omega_radius": 0.35}}
MISPLACED_OMEGA = {"domain": {"omega_center": [0.3, 0.3], "omega_radius": 0.1}}
# configs that one command's memory bound refuses and another's accepts
DELTAS_3000 = {"stability": {"deltas": [1 + k for k in range(3000)]}}
GRID_256_NT_1024 = {"grid": {"nx": 256, "ny": 256, "nt": 1024}}


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg["grid"]["nx"] == 64

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"grid": {"nx": 32}, "bogus": 1}')
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_error_paths_reported(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"grid": {"nx": 4}, "coeffs": {"delta0": 0.5}}')
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        msgs = " ".join(exc.value.errors)
        assert "grid.nx" in msgs
        assert "coeffs.delta0" in msgs

    def test_grid_over_trajectory_limit_allocates_nothing(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"nt": 10 ** 13}}))
        tracemalloc.start()
        try:
            assert run_in(tmp_path, ["--config", str(path), "solve"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "grid.nt:" in capsys.readouterr().err
        assert peak < 1e6

    def test_oversized_suite_skips_the_entry_checks(self):
        # 20,000 deltas at 64^2: the size bound rejects them before the
        # per-entry checks, whose repeat check is quadratic in the length
        with pytest.raises(ConfigError) as exc:
            load_config(None, {"stability": {"deltas": [1e-3] * 20000}})
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith("stability.deltas: a suite of 20001")

    def test_scan_suite_bound_counts_integrands_and_cell_sums(self):
        # 8,000 members at 16^3 take 0.48e9 bytes of held slices (the three
        # held slices, the stacked step, the y_t temporary and the march's 8
        # each), 0.18e9 of one step's integrands and 0.47e9 of per-cell
        # sums: any two of the three are under the limit of 1.07e9, all
        # three are over it, and validation alone rejects them, allocating
        # nothing
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                load_config(None, {"grid": {"nx": 16, "ny": 16, "nt": 16},
                                   "scan": {"n_trajectories": 8000}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.split(":")[0] for e in exc.value.errors] == ["scan.n_trajectories"]
        assert peak < 1e6

    @pytest.mark.parametrize("overrides, command, field", [
        # each command is bounded by the arrays it holds: a suite too large
        # for its own command does not stop another, and a grid too large
        # for solve's one trajectory does not stop a suite
        ({"scan": {"n_trajectories": 10 ** 9}}, "solve", None),
        ({"scan": {"n_trajectories": 10 ** 9}}, "stability", None),
        (DELTAS_3000, "solve", None),
        (DELTAS_3000, "carleman-scan", None),
        (GRID_256_NT_1024, "stability", None),
        (GRID_256_NT_1024, "carleman-scan", None),
        # a suite over the limit at its fewest members names the grid field
        # that dominates its bytes
        ({"grid": {"nx": 16, "ny": 16, "nt": 2 * 10 ** 7}}, "stability", "grid.nt"),
        ({"grid": {"nx": 4096, "ny": 4096}}, "carleman-scan", "grid.nx"),
        # without a command every bound applies, as perfbench loads configs
        ({"scan": {"n_trajectories": 10 ** 9}}, None, "scan.n_trajectories"),
        (DELTAS_3000, None, "stability.deltas"),
        (GRID_256_NT_1024, None, "grid.nt"),
        ({"grid": {"nx": 16, "ny": 16, "nt": 16}, "scan": {"n_trajectories": 8000}},
         None, "scan.n_trajectories"),
    ])
    def test_each_command_is_bounded_by_what_it_holds(self, overrides, command,
                                                       field):
        tracemalloc.start()
        try:
            try:
                load_config(None, overrides, command)
                errors = []
            except ConfigError as exc:
                errors = exc.errors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.split(":")[0] for e in errors] == ([field] if field else [])
        assert peak < 1e6

    @pytest.mark.parametrize("config, argv, field", [
        # 7,562 members fit at 16^3, with the march's 8 slices each
        ({"scan": {"n_trajectories": 8000}}, ["--grid", "16", "carleman-scan"],
         "scan.n_trajectories"),
        (GRID_256_NT_1024, ["solve"], "grid.nt"),
    ])
    def test_run_over_its_command_bound_allocates_nothing(self, tmp_path, capsys,
                                                          config, argv, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        tracemalloc.start()
        try:
            assert run_in(tmp_path, ["--config", str(path)] + argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        assert peak < 1e6

    def test_repeat_check_is_linear(self):
        # 20,000 distinct deltas at 16^3 are under the suite bound, so every
        # entry is checked; one set of the entries seen keeps that linear
        deltas = [1e-3 * (k + 1) for k in range(20000)]
        t = time.perf_counter()
        cfg = load_config(None, {"grid": {"nx": 16, "ny": 16, "nt": 16},
                                 "stability": {"deltas": deltas}})
        assert time.perf_counter() - t < 1.0
        assert cfg["stability"]["deltas"] == deltas
        # an entry equal to an earlier one of another type still repeats it
        with pytest.raises(ConfigError, match=r"stability.deltas\[1\]: repeats"):
            load_config(None, {"stability": {"deltas": [1, 1.0]}})

    @pytest.mark.parametrize("n", [128, 256])
    def test_large_grids_accepted(self, n):
        cfg = load_config(None, {"grid": {"nx": n, "ny": n, "nt": n}})
        assert cfg["grid"]["nt"] == n

    def test_hash_stable(self):
        cfg = load_config()
        assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))

    @pytest.mark.parametrize("config, argv, field", [
        pytest.param(None, ["--lambda", "4", "carleman-scan"], "scan.lambdas",
                     id="one-lambda-flag"),
        # an empty flag is an empty list, not an absent flag
        pytest.param(None, ["--lambda", "", "carleman-scan"], "scan.lambdas",
                     id="empty-lambda-flag"),
        pytest.param(None, ["--mu", "", "verify-identity"], "identity.mus",
                     id="empty-mu-flag"),
        # the flags set the lists of the command that reads them, and no other
        pytest.param(None, ["--lambda", "2,4", "solve"], "--lambda",
                     id="lambda-flag-solve"),
        pytest.param(None, ["--mu", "2", "stability"], "--mu",
                     id="mu-flag-stability"),
        pytest.param({"scan": {"lambdas": []}}, ["carleman-scan"], "scan.lambdas",
                     id="empty-lambdas"),
        # an empty list would pass having checked nothing, and a repeated
        # entry would be compared with itself
        pytest.param({"identity": {"lambdas": []}}, ["verify-identity"],
                     "identity.lambdas", id="empty-identity-lambdas"),
        pytest.param({"identity": {"mus": []}}, ["verify-identity"],
                     "identity.mus", id="empty-identity-mus"),
        pytest.param({"scan": {"variants": []}}, ["carleman-scan"],
                     "scan.variants", id="empty-scan-variants"),
        pytest.param({"stability": {"variants": []}}, ["stability"],
                     "stability.variants", id="empty-stability-variants"),
        pytest.param({"stability": {"eps_fractions": []}}, ["stability"],
                     "stability.eps_fractions", id="empty-eps-fractions"),
        pytest.param({"stability": {"deltas": []}}, ["stability"],
                     "stability.deltas", id="empty-deltas"),
        pytest.param({"scan": {"lambdas": [2, 2]}}, ["carleman-scan"],
                     "scan.lambdas[1]", id="repeated-scan-lambdas"),
        pytest.param({"scan": {"mus": [1.5, 2.0, 1.5]}}, ["carleman-scan"],
                     "scan.mus[2]", id="repeated-scan-mus"),
        pytest.param({"stability": {"variants": ["interior", "interior"]}},
                     ["stability"], "stability.variants[1]",
                     id="repeated-stability-variants"),
        pytest.param({"grid": {"T": "1"}}, ["solve"], "grid.T", id="string-T"),
        pytest.param([{"grid": {"nx": 32}}], ["solve"], "top level",
                     id="top-level-list"),
        pytest.param("missing", ["solve"], "--config", id="missing-file"),
        pytest.param({"seed": 1.5}, ["solve"], "seed", id="float-seed"),
        # disk runs that can only fail are rejected before any work
        pytest.param({**DISK, "solver": {"bc": "neumann0"}}, ["solve"],
                     "solver.bc", id="disk-neumann-solve"),
        pytest.param(DISK, ["stability"], "stability.variants",
                     id="disk-boundary-stability"),
        pytest.param(DISK, ["solve", "--manufactured"], "--manufactured",
                     id="disk-manufactured"),
        # the disk's Carleman integrals are not resolved: no disk scan runs
        pytest.param(DISK, ["carleman-scan"], "domain.shape",
                     id="disk-boundary-scan"),
        pytest.param({**DISK, "scan": {"variants": ["interior", "linear_interior"]}},
                     ["carleman-scan"], "domain.shape", id="disk-interior-scan"),
        pytest.param({**DISK, "solver": {"scheme": "exp_strang"},
                      "scan": {"variants": ["interior", "linear_interior"]}},
                     ["carleman-scan"], "domain.shape", id="disk-exp_strang-scan"),
        # the disk has no transform basis for the exact linear flow; its
        # stability suite is asked for the interior variant only, which it
        # supports
        pytest.param({**DISK, "solver": {"scheme": "exp_strang"}}, ["solve"],
                     "solver.scheme", id="disk-exp_strang-solve"),
        pytest.param({**DISK, "solver": {"scheme": "exp_strang"},
                      "stability": {"variants": ["interior"]}}, ["stability"],
                     "solver.scheme", id="disk-exp_strang-stability"),
        # the backward-Euler scheme is gone
        pytest.param({"solver": {"scheme": "imex_be"}}, ["solve"], "solver.scheme",
                     id="retired-imex_be"),
        # theta^{-4} of the identity suite overflows on the sample set
        pytest.param(DISK, ["verify-identity"], "identity.lambdas",
                     id="disk-identity-envelope"),
        pytest.param(None, ["--lambda", "2,100", "verify-identity"],
                     "identity.lambdas", id="square-identity-envelope"),
        # the boundary observation is on the whole of Gamma: no option for it
        pytest.param({"domain": {"gamma0": "none"}}, ["carleman-scan"],
                     "domain.gamma0", id="gamma0-unknown-field"),
        # a horizon that overflows the weights' time factor 1/(t (T - t)) to
        # 0, or makes it inf, leaves no weight to check
        pytest.param({"grid": {"T": 1e300}}, ["verify-identity"], "grid.T",
                     id="huge-T-identity"),
        pytest.param({"grid": {"T": 1e160}}, ["stability"], "grid.T",
                     id="large-T-stability"),
        pytest.param({"grid": {"T": 1e-300}}, ["carleman-scan"], "grid.T",
                     id="tiny-T-scan"),
        # a scan cell whose power lambda^3 overflows, or whose log offset
        # max 2 ell is -inf at every lambda, and coefficients that divide by
        # an infinite 1 + b^2
        pytest.param({"scan": {"lambdas": [2, 1e103]}}, ["carleman-scan"],
                     "scan.lambdas", id="scan-lambda-power-overflows"),
        pytest.param({"scan": {"mus": [118], "variants": ["boundary"]}},
                     ["carleman-scan"], "scan.mus", id="scan-log-offset-overflows"),
        # a scan cell whose weight exp(2 ell - log_scale + 3 log phi)
        # overflows on a slice: j2 reaches 9 mu + log 4 > log DBL_MAX
        pytest.param({"scan": {"mus": [79]}}, ["--grid", "16", "carleman-scan"],
                     "scan.mus", id="scan-weight-overflows"),
        # a peak the solver's substeps cannot bring under the stiffness cap
        # within MAX_HALVINGS halvings: (T/nt) peak^2 > 512
        pytest.param({"solver": {"amplitude": 182}}, ["solve"], "solver.amplitude",
                     id="amplitude-past-stiffness-cap"),
        pytest.param({"stability": {"deltas": [0.001, 300]}}, ["stability"],
                     "stability.deltas[1]", id="delta-past-stiffness-cap"),
        pytest.param({"coeffs": {"b": 1e300}}, ["solve"], "coeffs.b",
                     id="coeffs-b-square-overflows"),
        # and coefficients alpha2 = (1 + bc)/(1 + b^2) or beta2 that overflow
        pytest.param({"coeffs": {"b": 10, "c": 1e308}}, ["stability"], "coeffs.c",
                     id="coeffs-alpha2-overflows"),
        pytest.param({"coeffs": {"b": 10, "c": 10 ** 400}}, ["solve"], "coeffs.c",
                     id="coeffs-c-int-overflows-a-float"),
        pytest.param({"coeffs": {"b": 10 ** 200}}, ["solve"], "coeffs.b",
                     id="coeffs-b-int-overflows-a-float"),
        pytest.param({"grid": {"T": 10 ** 400}}, ["solve"], "grid.T",
                     id="grid-T-int-overflows-a-float"),
        # grids that build_grid would refuse, after the run directory was made
        pytest.param({"grid": {"nx": 16, "ny": 32, "nt": 16}}, ["solve"],
                     "grid.ny", id="unequal-nx-ny"),
        # a Q_eps window that would hold fewer than two of the 16 steps' nodes
        pytest.param({"grid": {"nx": 16, "ny": 16, "nt": 16},
                      "stability": {"eps_fractions": [0.1, 0.49]}}, ["stability"],
                     "stability.eps_fractions[1]", id="eps-window-without-two-nodes"),
        # two eps that print alike at 6 digits would share one spread's key
        pytest.param({"grid": {"nx": 16, "ny": 16, "nt": 16},
                      "stability": {"eps_fractions": [0.1, 0.2, 0.1000001]}},
                     ["stability"], "stability.eps_fractions[2]",
                     id="eps-fractions-sharing-a-summary-key"),
        pytest.param({"domain": {"omega_center": [0.1, 0.1]}}, ["stability"],
                     "domain.omega_center", id="omega-not-interior"),
        # grids whose one complex trajectory would pass
        # config.MAX_TRAJECTORY_BYTES name their largest field
        pytest.param({"grid": {"nt": 10 ** 13}}, ["solve"], "grid.nt",
                     id="huge-nt"),
        pytest.param({"grid": {"nx": 4096, "ny": 4096}}, ["stability"], "grid.nx",
                     id="huge-nx-ny"),
        # lockstep suites whose members' held slices would pass it
        pytest.param({"scan": {"n_trajectories": 10 ** 9}}, ["carleman-scan"],
                     "scan.n_trajectories", id="huge-scan-suite"),
        pytest.param({"stability": {"deltas": [1 + k for k in range(3000)]}},
                     ["stability"], "stability.deltas", id="huge-stability-suite"),
        # and a stability suite whose (nt+1)-long rows would pass it
        pytest.param({"grid": {"nx": 16, "ny": 16, "nt": 230000},
                      "scan": {"n_trajectories": 1, "lambdas": [2, 4], "mus": [2],
                               "variants": ["interior"]},
                      "stability": {"deltas": [1 + k for k in range(150)]}},
                     ["stability"], "stability.deltas", id="long-stability-suite"),
        # the interior variants need psi1's critical point inside omega
        pytest.param(MISPLACED_OMEGA, ["carleman-scan"], "domain.omega_center",
                     id="square-omega-misses-critical-point"),
        # and on the disk, whatever omega, the scan is refused
        pytest.param({"domain": {**DISK["domain"], "omega_center": [0.5, 0.0],
                                 "omega_radius": 0.2},
                      "scan": {"variants": ["interior", "linear_interior"]}},
                     ["carleman-scan"], "domain.shape",
                     id="disk-omega-misses-critical-point"),
        # an output directory that cannot be made: c.json, the configuration
        # file beside the run, is a file
        pytest.param({}, ["--grid", "16", "--output-dir", "c.json", "solve"],
                     "--output-dir", id="output-dir-names-a-file"),
        pytest.param({}, ["--grid", "16", "--output-dir", "c.json/out", "solve"],
                     "--output-dir", id="output-dir-under-a-file"),
        pytest.param({"output_dir": "c.json"}, ["--grid", "16", "solve"],
                     "output_dir", id="config-output-dir-names-a-file"),
    ])
    def test_malformed_config_fails_closed(self, tmp_path, capsys, config,
                                           argv, field):
        path = tmp_path / "c.json"
        if config is not None and config != "missing":
            path.write_text(json.dumps(config))
        pre = [] if config is None else ["--config", str(path)]
        assert run_in(tmp_path, pre + argv) == 2
        err = capsys.readouterr().err
        assert f"{field}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()


# Arbitrary JSON mostly stops in _merge; CONFIG_LIKE keeps the known section
# and field names so that random values reach validate_config.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
SECTION = {k: JSON if not isinstance(v, dict)
           else st.fixed_dictionaries({}, optional={kk: JSON for kk in v}) | JSON
           for k, v in DEFAULTS.items()}
CONFIG_LIKE = st.fixed_dictionaries({}, optional=SECTION)


@settings(max_examples=300, deadline=None)
@given(value=JSON | CONFIG_LIKE)
def test_load_config_returns_or_raises_config_error(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(value))
    try:
        cfg = load_config(str(path))
    except ConfigError as exc:
        assert exc.errors
    else:
        assert set(cfg) == set(DEFAULTS)


# Any JSON object as --config, with the grid sizes held at 16 and the counts
# that set a run's length kept small, so that each example is cheap; the
# output directory is given on the command line, so a drawn output_dir
# cannot send files elsewhere.
COUNT = st.integers(max_value=3) | st.none() | st.booleans() | st.floats() \
    | st.text(max_size=8)
NUMBER = st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)


def cli_value(default):
    """The default, a number (or list of numbers) of any size, or any JSON."""
    if isinstance(default, list) and all(map(_is_number, default)):
        odd = st.lists(NUMBER, min_size=1, max_size=4)
    else:
        odd = NUMBER if _is_number(default) else st.nothing()
    return st.just(default) | odd | JSON


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def cli_section(name, defaults):
    if not isinstance(defaults, dict):
        return cli_value(defaults)
    fields = {k: COUNT if k in ("n_fields", "n_trajectories")
              else cli_value(v) for k, v in defaults.items()}
    if name == "grid":
        sizes = {k: st.just(16) for k in ("nx", "ny", "nt")}
        return st.fixed_dictionaries(
            sizes, optional={k: v for k, v in fields.items() if k not in sizes})
    return st.fixed_dictionaries({}, optional=fields) | JSON


CLI_CONFIG = st.fixed_dictionaries(
    {"grid": cli_section("grid", DEFAULTS["grid"])},
    optional={k: cli_section(k, v) for k, v in DEFAULTS.items() if k != "grid"})
COMMANDS = ["verify-identity", "solve", "carleman-scan", "stability"]


@settings(max_examples=60, deadline=None)
@given(config=CLI_CONFIG, command=st.sampled_from(COMMANDS))
def test_cli_any_config_exits_cleanly(tmp_path_factory, config, command):
    # an exception escaping main would print a traceback in a real run
    tmp = tmp_path_factory.mktemp("cli-property")
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_in(tmp, ["--config", str(path), "--output-dir", str(tmp / "out"),
                            command])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestCommands:
    def test_verify_identity_pass(self, tmp_path):
        assert run_in(tmp_path, BASE + ["verify-identity"]) == 0
        runs = list((tmp_path / "runs").iterdir())
        rep = json.loads((runs[0] / "identity_report.json").read_text())
        assert rep["passed"]
        assert rep["worst_max_rel"] <= 1e-6
        assert rep["config"]["grid"]["nx"] == 32  # config round-trip

    def test_disk_verify_identity_inside_envelope(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**DISK, "identity": {"lambdas": [1.5],
                                                         "mus": [1.1]}}))
        assert run_in(tmp_path, ["--config", str(path), "--grid", "16",
                                 "verify-identity"]) == 0

    def test_verify_identity_corrupt_fails(self, tmp_path):
        assert run_in(tmp_path, BASE + ["verify-identity",
                                        "--corrupt-term", "B"]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_identity_nan_residual_fails(self, tmp_path):
        # at T = 1e6 the test fields' e^{a t} overflow at the sample times:
        # their nan residuals are no pass
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"T": 1e6}}))
        assert run_in(tmp_path, ["--config", str(path), "--grid", "16",
                                 "verify-identity"]) == 1
        (run,) = (tmp_path / "runs").iterdir()
        rep = json.loads((run / "identity_report.json").read_text())
        assert not rep["passed"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_identity_int_horizon_past_int64(self, tmp_path, capsys):
        # an int T that numpy cannot hold as an int64 is still a number: the
        # run fails on its overflowing test fields, with no traceback
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"T": 2 ** 64}}))
        assert run_in(tmp_path, ["--config", str(path), "--grid", "16",
                                 "verify-identity"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"grid": {"nx": 4}}')
        assert run_in(tmp_path, ["--config", str(p), "solve"]) == 2

    def test_solve_outputs(self, tmp_path):
        assert run_in(tmp_path, BASE + ["solve"]) == 0
        runs = list((tmp_path / "runs").iterdir())
        traj = runs[0] / "trajectory.bin"
        Y, meta = load_trajectory(traj)
        assert meta["nx"] == 32
        energy = (runs[0] / "energy.csv").read_text().splitlines()
        assert energy[0] == "step,t,l2_norm,energy_residual,substeps"
        assert len(energy) == 33

    def test_solve_manufactured_mode(self, tmp_path):
        # the study runs the configured scheme (exp_strang reads orders 1.98
        # and 2.00), so each scheme's table is its own
        tables = []
        for scheme in SCHEMES:
            path = tmp_path / f"{scheme}.json"
            path.write_text(json.dumps({"solver": {"scheme": scheme}}))
            out = tmp_path / scheme
            assert run_in(tmp_path, ["--config", str(path), "--output-dir", str(out)]
                          + BASE + ["solve", "--manufactured"]) == 0
            table = (out / "manufactured.csv").read_text().splitlines()
            assert table[0] == "n,l2_error,order"
            assert len(table) == 4
            summary = json.loads((out / "solve_summary.json").read_text())
            assert summary["passed"]
            assert summary["config"]["solver"]["scheme"] == scheme
            assert all(1.8 <= p <= 2.2 for p in summary["orders"])
            tables.append(table)
        assert tables[0] != tables[1]

    def test_carleman_scan_outputs(self, tmp_path):
        code = run_in(tmp_path, BASE + ["--lambda", "8,16,32", "--mu", "2",
                                        "carleman-scan"])
        assert code == 0
        runs = list((tmp_path / "runs").iterdir())
        summary = json.loads((runs[0] / "carleman_summary.json").read_text())
        assert summary["passed"]
        assert set(summary["variants"]) == {"interior", "boundary",
                                            "linear_interior", "linear_boundary"}
        csv_lines = (runs[0] / "carleman_scan.csv").read_text().splitlines()
        assert "lambda" in csv_lines[0].split(",")

    def test_stability_outputs(self, tmp_path):
        assert run_in(tmp_path, BASE + ["stability"]) == 0
        runs = list((tmp_path / "runs").iterdir())
        summary = json.loads((runs[0] / "stability_summary.json").read_text())
        assert summary["passed"]

    def test_lambda_flag_sets_the_identity_lists_only(self, tmp_path):
        # verify-identity reads no scan section, so one lambda is enough
        assert run_in(tmp_path, ["--grid", "16", "--lambda", "2", "--mu", "1.5",
                                 "verify-identity"]) == 0
        (run,) = (tmp_path / "runs").iterdir()
        cfg = json.loads((run / "identity_report.json").read_text())["config"]
        assert (cfg["identity"]["lambdas"], cfg["identity"]["mus"]) == ([2.0], [1.5])
        assert cfg["scan"] == DEFAULTS["scan"]

    def test_scan_preflight_judges_configured_omega(self, tmp_path, capsys):
        # omega = B((0.3, 0.3), 0.1) misses psi1's critical point (0.5, 0.5)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(MISPLACED_OMEGA))
        assert run_in(tmp_path, ["--config", str(p)] + BASE + ["carleman-scan"]) == 2
        err = capsys.readouterr().err
        assert "domain.omega_center:" in err
        assert "psi1.critical_point_in_omega" in err
        assert "psi1.grad_nonvanishing_outside_omega" in err
        assert not (tmp_path / "runs").exists()
        # psi2 does not depend on omega: a boundary scan goes ahead
        p.write_text(json.dumps({**MISPLACED_OMEGA,
                                 "scan": {"variants": ["boundary"]}}))
        assert run_in(tmp_path, ["--config", str(p), "--grid", "16",
                                 "carleman-scan"]) in (0, 1)
        assert (tmp_path / "runs").exists()

    def test_check_weights_is_no_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_in(tmp_path, BASE + ["check-weights"])
        assert exc.value.code == 2


def count_calls(mp, module, name):
    """Wrap ``module.name`` so that each call appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    mp.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def counted_scan16(tmp_path_factory):
    """A 16^3 seed-7 carleman-scan: (a copy of the node and of y_t of each
    prepare_trajectory call, CSV rows, a copy of each slice the scan takes)."""
    tmp = tmp_path_factory.mktemp("scan16")
    calls, slices = [], []
    prepare, scan = functionals.prepare_trajectory, cli.lambda_scan

    def copied(stream):
        for S in stream:
            slices.append(S.copy())
            yield S

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functionals, "prepare_trajectory", lambda y, yt, *a: calls.append(
            (y.copy(), yt.copy())) or prepare(y, yt, *a))
        mp.setattr(cli, "lambda_scan", lambda stream, *a: scan(copied(stream), *a))
        assert run_in(tmp, ["--grid", "16", "--seed", "7", "carleman-scan"]) == 0
    (run,) = (tmp / "runs").iterdir()
    with open(run / "carleman_scan.csv", newline="", encoding="utf-8") as fh:
        return calls, list(csv.DictReader(fh)), slices


class TestScanPass:
    def test_prepares_each_trajectory_once(self, counted_scan16):
        # step by step: one call per interior node t, with node t of every
        # member and its centred y_t = (y(t+1) - y(t-1)) / (2 dt), bit for
        # bit, so that the calls prepare every interior time of each member
        # once (the members come in the scan's family order already)
        calls, _, slices = counted_scan16
        n = DEFAULTS["scan"]["n_trajectories"]
        dt = DEFAULTS["grid"]["T"] / 16
        assert len(slices) == 17
        assert [(y.shape, yt.shape) for y, yt in calls] == [((n, 17, 17),) * 2] * 15
        for t, (y, yt) in enumerate(calls, start=1):
            assert np.array_equal(y, slices[t])
            assert np.array_equal(yt, (slices[t + 1] - slices[t - 1]) / (2 * dt))
            assert len({y[k].tobytes() for k in range(n)}) == n

    def test_row_order(self, counted_scan16):
        # variant, then trajectory (boundary variants on Dirichlet ones, the
        # even k), then mu, then lambda, all in configuration order
        sc = DEFAULTS["scan"]
        expected = [(v, k, mu, lam) for v in sc["variants"]
                    for k in range(sc["n_trajectories"])
                    if k % 2 == 0 or not v.endswith("boundary")
                    for mu in sc["mus"] for lam in sc["lambdas"]]
        got = [(r["variant"], int(r["trajectory"]), float(r["mu"]),
                float(r["lambda"])) for r in counted_scan16[1]]
        assert got == expected


    def test_boundary_only_scan_solves_dirichlet_members(self, tmp_path,
                                                          counted_scan16):
        # the boundary family needs a Dirichlet trace, so the Neumann members
        # (odd k) are not marched: one Dirichlet stack of three; seeds and
        # trajectory indices are unchanged
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": {"variants": ["boundary"]}}))
        with pytest.MonkeyPatch.context() as mp:
            marches = count_calls(mp, cli, "march")
            assert run_in(tmp_path, ["--config", str(cfg), "--grid", "16",
                                     "--seed", "7", "carleman-scan"]) == 0
        assert [(len(Y0), sc.bc) for Y0, sc, _ in marches] == [(3, "dirichlet0")]
        (run,) = (tmp_path / "runs").iterdir()
        with open(run / "carleman_scan.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))

        def filled(row):
            return {k: v for k, v in row.items() if v != ""}

        assert [filled(r) for r in rows] == [
            filled(r) for r in counted_scan16[1] if r["variant"] == "boundary"]


def test_solve_peak_memory(tmp_path):
    # solve holds its trajectory, and writes it and reduces its energy law
    # slice by slice: the traced peak of a 64^3 run reads 1.46 complex
    # space-time trajectories, the trajectory and the solver's operators
    # and temporaries.  Writing a bytes copy of it and squaring all of it
    # at once peaked at 2.36.
    tracemalloc.start()
    try:
        assert run_in(tmp_path, ["--grid", "64", "--seed", "7", "solve"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 65 ** 3 * 16


@pytest.fixture(scope="module")
def scan32_peak(tmp_path_factory):
    """The traced peak of a default 32^3 seed-7 carleman-scan, in complex
    space-time trajectories."""
    tmp = tmp_path_factory.mktemp("scan32")
    tracemalloc.start()
    try:
        assert run_in(tmp, ["--grid", "32", "--seed", "7", "carleman-scan"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (33 ** 3 * 16)


def test_scan_peak_memory(scan32_peak):
    # The suite is marched in lockstep and each step is scanned as soon as
    # it is solved, so no trajectory is held.  Solving the suite first and
    # keeping it, as the scan once did, peaked at about 12.8 complex
    # space-time trajectories.
    assert scan32_peak <= 14.5


def test_scan_peak_memory_holds_no_window(scan32_peak):
    # Each step is prepared for every member at once from three held
    # slices and weighed, and then dropped.  The peak reads 5.35
    # trajectories (5.75 with a ring buffer and a time derivative that also
    # formed the one-sided end rows): each cell's per-slice sums (0.75),
    # the held slices and the stacked step (0.6), one step's integrands
    # (0.8), the temporaries of preparing and weighing it, and the solver's
    # operators.  Scanning windows of 4 slices, through a halo buffer and
    # stacked integrands of the window, peaked at 9.02.
    assert scan32_peak <= 7.0


def test_scan_peak_memory_does_not_grow_with_nt(tmp_path):
    # each step is scanned and dropped; what grows with nt is each
    # cell's per-slice sums, 8 bytes per (member, row, time node), and each
    # cell's per-slice weight bounds, inside a margin of three quarters of
    # one 32^2 x 16 trajectory; holding the suite, as the scan once did,
    # grew by 4.98 MB
    peaks = []
    for nt in (16, 64):
        cfg = tmp_path / f"nt{nt}.json"
        cfg.write_text(json.dumps({"grid": {"nx": 32, "ny": 32, "nt": nt}}))
        tracemalloc.start()
        try:
            assert run_in(tmp_path, ["--config", str(cfg), "--seed", "7",
                                     "carleman-scan"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sc = DEFAULTS["scan"]
    # every member weighs with j1, the Dirichlet ones (even k) with j2 too
    members = {"j1_interior": sc["n_trajectories"],
               "j2_boundary": (sc["n_trajectories"] + 1) // 2}
    rows = {family: sum(any(functionals.VARIANT_FAMILY[v] == family
                            for v in t.variants) for t in functionals.TERMS)
            for family in members}
    sums = 8 * (64 - 16) * len(sc["mus"]) * len(sc["lambdas"]) \
        * sum(members[f] * rows[f] for f in members)
    assert peaks[1] - peaks[0] < sums + 0.75 * 33 * 33 * 17 * 16


def test_scan_peak_memory_does_not_grow_with_cells(tmp_path):
    # the weight tables are one per (family, mu), shared by every lambda
    # cell, and the volume weights and omega nodes are the grid's, so an
    # added (family, lambda) cell holds no table of (nx+1)(ny+1) nodes:
    # only its per-slice bounds and sums and its reports, about 4.4 KB at
    # 32^2, where one such table of its own per cell grew the peak by
    # 34.3 KB a cell.  Each peak is taken in a fresh interpreter: the first
    # run in a process carries one-time allocations.
    peaks = []
    for n_lambdas in (2, 24):
        cfg = tmp_path / f"l{n_lambdas}.json"
        cfg.write_text(json.dumps({
            "grid": {"nx": 32, "ny": 32, "nt": 16},
            "scan": {"n_trajectories": 1, "mus": [2],
                     "lambdas": list(range(2, 2 + n_lambdas))}}))
        out = fresh_interpreter(tmp_path, f"""if True:
            import tracemalloc
            from glcarleman.cli import main
            tracemalloc.start()
            assert main(["--config", {str(cfg)!r}, "--seed", "7",
                         "carleman-scan"]) in (0, 1)
            print(tracemalloc.get_traced_memory()[1])
            """)
        peaks.append(int(out.splitlines()[-1]))
    # the one member is a Dirichlet one, weighed with both families
    added_cells = 2 * (24 - 2)
    assert (peaks[1] - peaks[0]) / added_cells < 8 * 33 * 33


def copied_fields(mp, module, name):
    """Wrap ``module.name`` so that each call appends a copy of its first
    argument to the returned list."""
    fields = []
    fn = getattr(module, name)

    def copied(*args, **kwargs):
        fields.append(args[0].copy())
        return fn(*args, **kwargs)

    mp.setattr(module, name, copied)
    return fields


def recorded_march(mp, module):
    """Wrap ``module.march`` so that each slice stack it yields is copied
    to the returned list."""
    stacks = []
    march = module.march

    def recorded(*args, **kwargs):
        for step in march(*args, **kwargs):
            stacks.append(step.Y.copy())
            yield step

    mp.setattr(module, "march", recorded)
    return stacks


@pytest.fixture(scope="module")
def counted_stability16(tmp_path_factory):
    """A 16^3 seed-7 stability run: (the field of each gradient call, the
    field of each L^6 slice-sum call, CSV rows, the marched members as
    (17, u2 and each u1, 17, 17))."""
    tmp = tmp_path_factory.mktemp("stability16")
    with pytest.MonkeyPatch.context() as mp:
        grads = copied_fields(mp, stability, "grad_sq")
        norms = copied_fields(mp, stability, "l6_slice_sums")
        stacks = recorded_march(mp, stability)
        assert run_in(tmp, ["--grid", "16", "--seed", "7", "stability"]) == 0
    (run,) = (tmp / "runs").iterdir()
    with open(run / "stability.csv", newline="", encoding="utf-8") as fh:
        return grads, norms, list(csv.DictReader(fh)), np.stack(stacks)


class TestStabilityPass:
    def test_one_gradient_per_difference(self, counted_stability16):
        # one call per march step and difference, step by step, each on that
        # step's slice of one difference: a difference's calls, in order,
        # are its 17 slices, each taken once
        grads, _, _, members = counted_stability16
        n_deltas = len(DEFAULTS["stability"]["deltas"])
        assert [z.shape for z in grads] == [(17, 17)] * 17 * n_deltas
        for i in range(n_deltas):
            assert np.array_equal(np.stack(grads[i::n_deltas]),
                                  members[:, 1 + i] - members[:, 0])

    def test_norms_once_per_difference(self, counted_stability16):
        # one call per march step and member, step by step, u2 first: a
        # member's calls, in order, are its 17 slices, each taken once
        _, norms, _, members = counted_stability16
        n_members = 1 + len(DEFAULTS["stability"]["deltas"])
        assert [u.shape for u in norms] == [(17, 17)] * 17 * n_members
        for i in range(n_members):
            assert np.array_equal(np.stack(norms[i::n_members]),
                                  members[:, i])

    def test_row_order(self, counted_stability16):
        # delta, then eps, then interior before boundary
        st = DEFAULTS["stability"]
        expected = [(v, delta, fr * DEFAULTS["grid"]["T"])
                    for delta in st["deltas"] for fr in st["eps_fractions"]
                    for v in ("interior", "boundary")]
        got = [(r["variant"], float(r["delta"]), float(r["epsilon"]))
               for r in counted_stability16[2]]
        assert got == expected


def test_verify_identity_evaluates_each_case_once(tmp_path):
    # one eval_terms per (field, lambda, mu) serves the cubic and linear forms
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, identity, "eval_terms")
        assert run_in(tmp_path, ["--grid", "16", "--seed", "7",
                                 "verify-identity"]) == 0
    ident = DEFAULTS["identity"]
    assert len(calls) == ident["n_fields"] * len(ident["lambdas"]) * len(ident["mus"])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert run_in(d, BASE + ["--lambda", "8,16,32", "--mu", "2",
                                     "carleman-scan"]) == 0
            assert run_in(d, BASE + ["stability"]) == 0
        ra = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        rb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert ra == rb
        for rel in ra:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    def test_files_do_not_depend_on_blas_threads(self, tmp_path):
        # every space integral of stability and solve is grid.space_sums, an
        # np.einsum, which no BLAS call threads, and each weighted volume row
        # of the scan sums BLAS dots over runs of functionals.DOT_CHUNK
        # nodes: 101^2 nodes are more than the 10,000 elements above which
        # OpenBLAS splits a dot product across threads
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "grid": {"nx": 100, "ny": 100, "nt": 16},
            "scan": {"n_trajectories": 1, "lambdas": [2, 4], "mus": [2]}}))
        runs = []
        for threads in ("1", "2"):
            run = tmp_path / threads
            run.mkdir()
            fresh_interpreter(run, f"""if True:
                from glcarleman.cli import main
                for command in ("solve", "stability", "carleman-scan"):
                    assert main(["--config", {str(config)!r}, command]) == 0
                """, OPENBLAS_NUM_THREADS=threads)
            runs.append(run / "runs")
        files = [sorted(p.relative_to(r) for p in r.rglob("*") if p.is_file())
                 for r in runs]
        assert files[0] == files[1] and len(files[0]) == 7
        for rel in files[0]:
            assert filecmp.cmp(runs[0] / rel, runs[1] / rel, shallow=False), rel


def fresh_interpreter(tmp_path, script, **env):
    """Run `script` in a new Python process that imports glcarleman from
    this checkout, in tmp_path, with `env` added to the environment; returns
    its stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, **env, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestSciPyImport:
    def test_square_run_never_loads_scipy(self, tmp_path):
        # the square's implicit solves are spectral, on numpy.fft
        out = fresh_interpreter(tmp_path, """if True:
            import sys
            from glcarleman.cli import main
            for command in ("solve", "carleman-scan", "stability"):
                assert main(["--grid", "16", "--output-dir", "out", command]) == 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """)
        assert out.splitlines()[-1] == "[]"

    def test_disk_grid_build_loads_scipy(self, tmp_path):
        # the disk's sparse LU needs SciPy: its import is paid in set-up,
        # by the grid build, not in the run
        config = {**DISK, "grid": {"nx": 16, "ny": 16, "nt": 16},
                  "stability": {"variants": ["interior"]}}
        out = fresh_interpreter(tmp_path, f"""if True:
            import sys
            from glcarleman.cli import build_run_grid
            from glcarleman.config import load_config
            cfg = load_config(None, {config!r})
            print("scipy.sparse.linalg" in sys.modules)
            build_run_grid(cfg)
            print("scipy.sparse.linalg" in sys.modules)
            """)
        assert out.split() == ["False", "True"]

import contextlib
import csv
import filecmp
import io
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glcarleman import cli, functionals, identity, stability
from glcarleman.cli import main
from glcarleman.config import DEFAULTS, ConfigError, config_hash, load_config
from glcarleman.solver import load_trajectory


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

    def test_hash_stable(self):
        cfg = load_config()
        assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))

    @pytest.mark.parametrize("config, argv, field", [
        pytest.param(None, ["--lambda", "4", "carleman-scan"], "scan.lambdas",
                     id="one-lambda-flag"),
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
        pytest.param(DISK, ["carleman-scan"], "scan.variants",
                     id="disk-boundary-scan"),
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
        pytest.param({"grid": {"T": 1e160}}, ["check-weights"], "grid.T",
                     id="large-T-check-weights"),
        pytest.param({"grid": {"T": 1e-300}}, ["carleman-scan"], "grid.T",
                     id="tiny-T-scan"),
        # grids that build_grid would refuse, after the run directory was made
        pytest.param({"grid": {"nx": 16, "ny": 32, "nt": 16}}, ["solve"],
                     "grid.ny", id="unequal-nx-ny"),
        pytest.param({"domain": {"omega_center": [0.1, 0.1]}}, ["stability"],
                     "domain.omega_center", id="omega-not-interior"),
        # the interior variants need psi1's critical point inside omega
        pytest.param(MISPLACED_OMEGA, ["carleman-scan"], "domain.omega_center",
                     id="square-omega-misses-critical-point"),
        pytest.param({"domain": {**DISK["domain"], "omega_center": [0.5, 0.0],
                                 "omega_radius": 0.2},
                      "scan": {"variants": ["interior", "linear_interior"]}},
                     ["carleman-scan"], "domain.omega_center",
                     id="disk-omega-misses-critical-point"),
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
COMMANDS = ["verify-identity", "solve", "carleman-scan", "stability",
            "check-weights"]


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
        assert run_in(tmp_path, BASE + ["solve", "--manufactured"]) == 0
        runs = list((tmp_path / "runs").iterdir())
        table = (runs[0] / "manufactured.csv").read_text().splitlines()
        assert table[0] == "n,l2_error,order"
        assert len(table) == 4
        summary = json.loads((runs[0] / "solve_summary.json").read_text())
        assert summary["passed"]
        assert all(1.8 <= p <= 2.2 for p in summary["orders"])

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

    def test_check_weights(self, tmp_path):
        assert run_in(tmp_path, BASE + ["check-weights"]) == 0
        runs = list((tmp_path / "runs").iterdir())
        rep = json.loads((runs[0] / "weights_report.json").read_text())
        assert rep["passed"]
        assert set(rep["admissibility"]) == {"square_psi1", "disk_psi1",
                                             "square_psi2"}

    def test_check_weights_judges_configured_omega(self, tmp_path):
        # omega = B((0.3, 0.3), 0.1) misses psi1's critical point (0.5, 0.5)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(MISPLACED_OMEGA))
        assert run_in(tmp_path, ["--config", str(p)] + BASE + ["check-weights"]) == 1
        runs = list((tmp_path / "runs").iterdir())
        rep = json.loads((runs[0] / "weights_report.json").read_text())
        square = rep["admissibility"]["square_psi1"]["clauses"]
        assert not square["critical_point_in_omega"]
        assert not square["grad_nonvanishing_outside_omega"]
        assert rep["admissibility"]["disk_psi1"]["passed"]


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
    """A 16^3 seed-7 carleman-scan: (prepare_trajectory calls' arguments,
    CSV rows)."""
    tmp = tmp_path_factory.mktemp("scan16")
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, functionals, "prepare_trajectory")
        assert run_in(tmp, ["--grid", "16", "--seed", "7", "carleman-scan"]) == 0
    (run,) = (tmp / "runs").iterdir()
    with open(run / "carleman_scan.csv", newline="", encoding="utf-8") as fh:
        return calls, list(csv.DictReader(fh))


class TestScanPass:
    def test_prepares_each_trajectory_once(self, counted_scan16):
        # window by window: each window of a member is a view of its
        # trajectory with one halo node on each side, and together they hold
        # every interior time of it once
        windows = {}
        for Y, *_ in counted_scan16[0]:
            windows.setdefault(id(Y.base), []).append(Y.shape[0] - 2)
        per_member = [min(functionals.WINDOW, 15 - i)
                      for i in range(0, 15, functionals.WINDOW)]
        assert list(windows.values()) \
            == [per_member] * DEFAULTS["scan"]["n_trajectories"]

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
        # (odd k) are not solved; seeds and trajectory indices are unchanged
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scan": {"variants": ["boundary"]}}))
        with pytest.MonkeyPatch.context() as mp:
            solves = count_calls(mp, cli, "solve")
            assert run_in(tmp_path, ["--config", str(cfg), "--grid", "16",
                                     "--seed", "7", "carleman-scan"]) == 0
        assert len(solves) == 3
        (run,) = (tmp_path / "runs").iterdir()
        with open(run / "carleman_scan.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))

        def filled(row):
            return {k: v for k, v in row.items() if v != ""}

        assert [filled(r) for r in rows] == [
            filled(r) for r in counted_scan16[1] if r["variant"] == "boundary"]


def test_scan_peak_memory(tmp_path):
    # The five trajectories are solved first and kept; the scan then streams
    # their interior times in windows of functionals.WINDOW = 4 slices.  The
    # peak is about 12.8 complex space-time trajectories: the five, each
    # cell's weight factors and one stacked window of integrands.  Windows
    # of 8 slices raise it to about 17.0; whole trajectories to about 41.
    tracemalloc.start()
    try:
        assert run_in(tmp_path, ["--grid", "32", "--seed", "7",
                                 "carleman-scan"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trajectory = 33 ** 3 * 16
    assert peak <= 14.5 * trajectory


@pytest.fixture(scope="module")
def counted_stability16(tmp_path_factory):
    """A 16^3 seed-7 stability run: (grad calls, L^inf L^6 calls, CSV rows)."""
    tmp = tmp_path_factory.mktemp("stability16")
    with pytest.MonkeyPatch.context() as mp:
        grads = count_calls(mp, stability, "grad")
        norms = count_calls(mp, stability, "linf_l6_norm")
        assert run_in(tmp, ["--grid", "16", "--seed", "7", "stability"]) == 0
    (run,) = (tmp / "runs").iterdir()
    with open(run / "stability.csv", newline="", encoding="utf-8") as fh:
        return len(grads), len(norms), list(csv.DictReader(fh))


class TestStabilityPass:
    def test_one_gradient_per_difference(self, counted_stability16):
        assert counted_stability16[0] == len(DEFAULTS["stability"]["deltas"])

    def test_norms_once_per_difference(self, counted_stability16):
        # u2 once for the suite, u1 once for each delta
        assert counted_stability16[1] == 1 + len(DEFAULTS["stability"]["deltas"])

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

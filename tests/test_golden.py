"""Recorded numbers of small CLI runs, so a refactor cannot move them.

The square values were produced by ``--grid 16 --seed 7 carleman-scan``,
``--grid 16 --seed 7 stability`` and ``--grid 16 --seed 7 verify-identity``
with the default configuration otherwise.
The disk values come from ``--grid 32 --seed 7 carleman-scan``,
``--grid 32 --seed 7 stability`` and ``--grid 32 --seed 7 solve`` on the
unit disk with omega = B((0, 0), 0.35), the scan on the interior and
linear_interior variants and the stability run on the interior one only.  The square solve values
come from ``--grid 32 --seed 7 solve`` with ``solver.bc`` set to each
homogeneous boundary condition under both ``solver.scheme`` values, and
the manufactured errors from ``solve --manufactured``.
"""

import csv
import json
import os

import pytest

from glcarleman.cli import main

ARGS = ["--grid", "16", "--seed", "7"]

# variant -> mu -> (c_emp_last, c_emp_drift)
SCAN = {
    "interior": {
        "1.5": (1.0041089420182885, 0.026609824443018813),
        "2.0": (1.0029767680447508, 0.0064275397668383865),
        "3.0": (1.0021163794511845, 0.0016657527179477002)},
    "boundary": {
        "1.5": (0.04687441040702269, 1.2554672929093749e-05),
        "2.0": (0.06249986834114344, 2.105888900360384e-06),
        "3.0": (0.0937499934440962, 6.992892133037876e-08)},
    "linear_interior": {
        "1.5": (1.0040923612285284, 0.02652708627883398),
        "2.0": (1.0029713714602642, 0.0063997710852035615),
        "3.0": (1.0021147025693447, 0.0016608547801438339)},
    "linear_boundary": {
        "1.5": (0.046874357295214046, 1.3687724794103732e-05),
        "2.0": (0.062499856490037566, 2.295506594303082e-06),
        "3.0": (0.09374999285406187, 7.622262102921932e-08)},
}

SPREADS = {
    "boundary_eps_0.05": 1.0038159640930737,
    "boundary_eps_0.1": 1.0016946245221292,
    "boundary_eps_0.2": 1.0088967024328301,
    "interior_eps_0.05": 1.0018056303674223,
    "interior_eps_0.1": 1.0003624740957262,
    "interior_eps_0.2": 1.0109727221673208,
}

# (lambda, mu) -> term_magnitudes of field 0 (the residuals are round-off
# noise of about 1e-15, so they are not pinned)
IDENTITY = {
    (2.0, 1.5): {
        "B": 4587.844635119911,
        "E": 9981.709364071865,
        "J1_Phi_sq": 242876.37745705465,
        "J1_sq": 284837.33527177956,
        "Phi_grad": 16554.04033840227,
        "U": 1516.4823123242375,
        "grad_mod_sq": 58545.28927458409,
        "hess_quad": 17147.88714424673,
        "mixed": 29644.56231028048,
        "sextic": 56821.90800002909,
        "vt_term": 166.80331178469928},
    (2.0, 3.0): {
        "B": 29843.53201404403,
        "E": 5984665.62969027,
        "J1_Phi_sq": 7612675059.244925,
        "J1_sq": 7617470017.114307,
        "Phi_grad": 36359.465699951455,
        "U": 253057.08631285626,
        "grad_mod_sq": 15359320.141164264,
        "hess_quad": 35432.70069874564,
        "mixed": 7864595.626718449,
        "sextic": 5059163749.490774,
        "vt_term": 18738.680082507253},
    (8.0, 1.5): {
        "B": 162580.70489057075,
        "E": 37614578808.97245,
        "J1_Phi_sq": 1.3610093644120235e+17,
        "J1_sq": 1.3610097458027085e+17,
        "Phi_grad": 66216.16135360907,
        "U": 1071087670.0596062,
        "grad_mod_sq": 65045535701.36897,
        "hess_quad": 68591.54857698693,
        "mixed": 33305955661.639606,
        "sextic": 9.073393387691099e+16,
        "vt_term": 46922683.56461151},
    (8.0, 3.0): {
        "B": 1452587.963407901,
        "E": 1.4239266948802924e+21,
        "J1_Phi_sq": 1.379787228829008e+37,
        "J1_sq": 1.379787228829008e+37,
        "Phi_grad": 145437.86279980582,
        "U": 1.1910262007263273e+20,
        "grad_mod_sq": 6.549272418346632e+20,
        "hess_quad": 141730.80279498256,
        "mixed": 3.353493432399563e+20,
        "sextic": 9.198581525526716e+36,
        "vt_term": 4.724525357373668e+17},
}

DISK = {"domain": {"shape": "unit_disk", "omega_center": [0.0, 0.0],
                   "omega_radius": 0.35}}
DISK_ARGS = ["--grid", "32", "--seed", "7"]

# variant -> mu -> (c_emp_last, c_emp_drift); the run exits 1, as its
# drifts at mu = 1.5 and 2 fail the 10% gate.  At mu = 2 and 3 the last
# cell, lambda = 64, keeps 1.2% and 0.085% of its space-time nodes (on 5
# and 1 slices) after the exp(-700) flush, so those values carry the disk
# march's rounding: they are pinned as the substep lu(2 v + s) - v gives them
DISK_SCAN = {
    "interior": {
        "1.5": (55.63190111999631, 42.42843366617538),
        "2.0": (89757054.24646781, 543984.4942732597),
        "3.0": (1.00000540557464, 0.0001997213012422024)},
    "linear_interior": {
        "1.5": (55.63186098904063, 42.43087376132019),
        "2.0": (89756920.97225015, 543983.910792832),
        "3.0": (1.0000054023963723, 0.0001996990579386942)},
}

DISK_SPREADS = {
    "interior_eps_0.05": 1.0090947580223963,
    "interior_eps_0.1": 1.0100672248236735,
    "interior_eps_0.2": 1.0112050650962836,
}
DISK_SOLVE = {"final_l2": 0.03131654441949441,
              "max_energy_residual": 0.031384724572995126}

SQUARE_ARGS = ["--grid", "32", "--seed", "7"]
# run id -> (solver section, recorded summary numbers)
SQUARE_SOLVE = {
    "dirichlet0": ({"bc": "dirichlet0"},
                   {"final_l2": 6.875869575878537e-06,
                    "max_energy_residual": 0.0015925430605835949}),
    "neumann0": ({"bc": "neumann0"},
                 {"final_l2": 2.6993379446148923e-06,
                  "max_energy_residual": 0.0007790353128254823}),
    "imex_be-dirichlet0": ({"scheme": "imex_be", "bc": "dirichlet0"},
                           {"final_l2": 8.120689437281536e-11,
                            "max_energy_residual": 0.021773688927374503}),
    "imex_be-neumann0": ({"scheme": "imex_be", "bc": "neumann0"},
                         {"final_l2": 1.6609685208171353e-07,
                          "max_energy_residual": 0.011932760064990463}),
}

# n -> l2_error; recorded while the study still imposed the reference's
# trace (zero up to rounding) as Dirichlet data, hence rtol 1e-11
MANUFACTURED = {32: 0.00021522734392578907, 64: 5.3750461490026205e-05,
                128: 1.3434081553929905e-05}


def run(tmp_path, command, summary, args=ARGS, config=None, code=0):
    out = tmp_path / command
    pre = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        pre = ["--config", str(path)]
    assert main(pre + args + ["--output-dir", str(out), command]) == code
    with open(os.path.join(out, summary), encoding="utf-8") as fh:
        return json.load(fh)


def check_scan(got, recorded):
    assert set(got) == set(recorded)
    for variant, per_mu in recorded.items():
        assert set(got[variant]) == set(per_mu)
        for mu, (c_last, drift) in per_mu.items():
            cell = got[variant][mu]
            assert cell["c_emp_last"] == pytest.approx(c_last, rel=1e-12)
            assert cell["c_emp_drift"] == pytest.approx(drift, rel=1e-12,
                                                        abs=1e-12)


def test_carleman_scan_golden(tmp_path):
    check_scan(run(tmp_path, "carleman-scan", "carleman_summary.json")["variants"],
               SCAN)


def test_disk_carleman_scan_golden(tmp_path):
    # the only run that takes the disk's ghost_from_field Laplacian
    config = {**DISK, "scan": {"variants": ["interior", "linear_interior"]}}
    got = run(tmp_path, "carleman-scan", "carleman_summary.json", DISK_ARGS,
              config, code=1)["variants"]
    check_scan(got, DISK_SCAN)


def test_stability_golden(tmp_path):
    got = run(tmp_path, "stability", "stability_summary.json")["spreads"]
    assert got == pytest.approx(SPREADS, rel=1e-12)


def test_disk_stability_golden(tmp_path):
    config = {**DISK, "stability": {"variants": ["interior"]}}
    got = run(tmp_path, "stability", "stability_summary.json", DISK_ARGS,
              config)["spreads"]
    assert got == pytest.approx(DISK_SPREADS, rel=1e-12)


def test_disk_solve_golden(tmp_path):
    got = run(tmp_path, "solve", "solve_summary.json", DISK_ARGS, DISK)
    for key, want in DISK_SOLVE.items():
        assert got[key] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("case", sorted(SQUARE_SOLVE))
def test_square_solve_golden(tmp_path, case):
    solver, recorded = SQUARE_SOLVE[case]
    got = run(tmp_path, "solve", "solve_summary.json", SQUARE_ARGS,
              {"solver": solver})
    for key, want in recorded.items():
        assert got[key] == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def manufactured_csv(tmp_path_factory):
    """manufactured.csv of ``solve --manufactured`` with the defaults."""
    out = tmp_path_factory.mktemp("manufactured")
    assert main(["--output-dir", str(out), "solve", "--manufactured"]) == 0
    return (out / "manufactured.csv").read_bytes()


def test_manufactured_golden(manufactured_csv):
    got = {int(r["n"]): float(r["l2_error"])
           for r in csv.DictReader(manufactured_csv.decode().splitlines())}
    assert got == pytest.approx(MANUFACTURED, rel=1e-11)


def test_manufactured_ignores_omega(tmp_path, manufactured_csv):
    # omega does not enter the study, whose 32-cell grid this omega would
    # not fit (it needs a margin of h = 1/32 to the boundary)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"domain": {"omega_radius": 0.47}}))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--grid", "64", "--output-dir",
                 str(out), "solve", "--manufactured"]) == 0
    assert (out / "manufactured.csv").read_bytes() == manufactured_csv


def test_identity_golden(tmp_path):
    got = run(tmp_path, "verify-identity", "identity_report.json")
    assert got["passed"] is True
    first = {(r["lambda"], r["mu"]): r["term_magnitudes"]
             for r in got["results"] if r["field"] == 0}
    assert set(first) == set(IDENTITY)
    for key, mags in IDENTITY.items():
        assert first[key] == pytest.approx(mags, rel=1e-12)

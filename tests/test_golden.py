"""Recorded numbers of small CLI runs, so a refactor cannot move them.

The square values were produced by ``--grid 16 --seed 7 carleman-scan`` and
``--grid 16 --seed 7 stability`` with the default configuration otherwise.
The disk values come from ``--grid 32 --seed 7 stability`` and
``--grid 32 --seed 7 solve`` on the unit disk with omega = B((0, 0), 0.35),
the stability run on the interior variant only.
"""

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

DISK = {"domain": {"shape": "unit_disk", "omega_center": [0.0, 0.0],
                   "omega_radius": 0.35}}
DISK_ARGS = ["--grid", "32", "--seed", "7"]

DISK_SPREADS = {
    "interior_eps_0.05": 1.0090947580223963,
    "interior_eps_0.1": 1.0100672248236735,
    "interior_eps_0.2": 1.0112050650962836,
}
DISK_SOLVE = {"final_l2": 0.03131654441949441,
              "max_energy_residual": 0.71929103763931}


def run(tmp_path, command, summary, args=ARGS, config=None):
    out = tmp_path / command
    pre = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        pre = ["--config", str(path)]
    assert main(pre + args + ["--output-dir", str(out), command]) == 0
    with open(os.path.join(out, summary), encoding="utf-8") as fh:
        return json.load(fh)


def test_carleman_scan_golden(tmp_path):
    got = run(tmp_path, "carleman-scan", "carleman_summary.json")["variants"]
    assert set(got) == set(SCAN)
    for variant, per_mu in SCAN.items():
        assert set(got[variant]) == set(per_mu)
        for mu, (c_last, drift) in per_mu.items():
            cell = got[variant][mu]
            assert cell["c_emp_last"] == pytest.approx(c_last, rel=1e-12)
            assert cell["c_emp_drift"] == pytest.approx(drift, rel=1e-12,
                                                        abs=1e-12)


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

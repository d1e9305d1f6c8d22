"""Command-line surface: outputs, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import pytest

import coeffforge
from coeffforge.cli import main

# the child interpreter imports the same package the tests import
SRC = os.path.dirname(os.path.dirname(coeffforge.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- revert ----------------------------------------------------------------------

def test_revert_koebe(capsys):
    code, out, _ = run(capsys, "revert", "koebe", "--order", "4")
    assert code == 0
    assert out.strip() == "w - 2w^2 + 5w^3 - 14w^4"


def test_revert_identity(capsys):
    code, out, _ = run(capsys, "revert", "identity")
    assert code == 0
    assert out.strip() == "w"


def test_revert_f_alias(capsys):
    code, out, _ = run(capsys, "revert", "f_0.5", "--order", "4")
    assert code == 0
    assert out.strip() == "w - 1.5w^2 + 2.75w^3 - 5.625w^4"


def test_revert_extremal_alias_needs_lambda(capsys):
    code, _, err = run(capsys, "revert", "extremal")
    assert code == 2
    assert err.startswith("error:")
    code, out, _ = run(capsys, "revert", "extremal", "--lambda", "1/2", "--order", "4")
    assert code == 0
    assert "2.75w^3" in out


def test_revert_series_file(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([[0, 1, 0, 1], [1, 1, 0, 1], [2, 1, 0, 1],
                                [3, 1, 0, 1], [4, 1, 0, 1]]))
    code, out, _ = run(capsys, "revert", str(path))
    assert code == 0
    assert out.strip() == "w - 2w^2 + 5w^3 - 14w^4"


def test_revert_non_normalized_series(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[0.0, 0.0], [2.0, 0.0]]))
    code, _, err = run(capsys, "revert", str(path))
    assert code == 2
    assert err.startswith("error:") and "normalized" in err


def test_revert_json_format(capsys):
    code, out, _ = run(capsys, "revert", "koebe", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0, 1, 0, 1], [1, 1, 0, 1], [-2, 1, 0, 1],
                               [5, 1, 0, 1], [-14, 1, 0, 1]]


def test_revert_unknown_alias(capsys):
    code, _, err = run(capsys, "revert", "bieberbach")
    assert code == 2
    assert err.startswith("error:")


# -- bounds ----------------------------------------------------------------------

def test_bounds_koebe(capsys):
    code, out, _ = run(capsys, "bounds", "--lambda", "1")
    assert code == 0
    assert "|A2| <= 2" in out and "|A3| <= 5" in out and "|A4| <= 14" in out


def test_bounds_half_exact_fractions(capsys):
    code, out, _ = run(capsys, "bounds", "--lambda", "1/2")
    assert code == 0
    assert "|A2| <= 3/2" in out and "|A3| <= 11/4" in out and "|A4| <= 45/8" in out


def test_bounds_with_mu(capsys):
    code, out, _ = run(capsys, "bounds", "--lambda", "1", "--mu", "1")
    assert code == 0
    assert "|A3 - mu A2^2| <= 1" in out


def test_bounds_lambda_out_of_range(capsys):
    code, _, err = run(capsys, "bounds", "--lambda", "1.5")
    assert code == 2
    assert err.startswith("error:") and "\n" not in err.strip()


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--lambda", "0.5", "--mu", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["B4"] == pytest.approx(5.625)
    assert payload["FS"] == pytest.approx(2.75)


def test_bounds_bad_mu_prints_nothing(capsys):
    code, out, err = run(capsys, "bounds", "--lambda", "0.5", "--mu", "nan")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "\n" not in err.strip()


# -- coeffs / fekete-szego ----------------------------------------------------------

def test_coeffs_corner(capsys):
    code, out, _ = run(capsys, "coeffs", "--lambda", "1/2", "--c1", "1")
    assert code == 0
    assert "a2 = 3/2" in out and "A4 = -45/8" in out
    assert "agrees" in out


def test_coeffs_jet_file(capsys, tmp_path):
    path = tmp_path / "jet.json"
    path.write_text(json.dumps({"c1": [0.5, 0.0], "c2": [0.25, 0.0], "c3": [0.0, 0.0]}))
    code, out, _ = run(capsys, "coeffs", "--lambda", "1/2", "--jet", str(path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reversion_agrees"] is True
    assert payload["A"][0] == [-0.75, 0.0]


def test_coeffs_requires_jet(capsys):
    code, _, err = run(capsys, "coeffs", "--lambda", "1/2")
    assert code == 2
    assert err.startswith("error:")


def test_fekete_szego_command(capsys):
    code, out, _ = run(capsys, "fekete-szego", "--lambda", "1", "--mu", "1", "--c1", "1")
    assert code == 0
    assert "bound: 1" in out
    assert "value: 1" in out
    assert "margin: 0" in out


def test_fekete_szego_complex_mu(capsys):
    code, out, _ = run(capsys, "fekete-szego", "--lambda", "1", "--mu", "1,1",
                       "--mode", "float")
    assert code == 0
    assert "bound: 5.0" in out


def test_fekete_szego_bad_jet_prints_nothing(capsys):
    code, out, err = run(capsys, "fekete-szego", "--lambda", "1/2", "--mu", "0",
                         "--c1", "abc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "\n" not in err.strip()


# -- membership ---------------------------------------------------------------------

def test_membership_extremal(capsys):
    code, out, _ = run(capsys, "membership", "f_0.5", "--lambda", "0.5",
                       "--radius", "0.9", "--samples", "64")
    assert code == 0
    assert "member-at-radius" in out
    assert "0.405" in out


def test_membership_koebe_fails(capsys):
    code, out, _ = run(capsys, "membership", "koebe", "--lambda", "0.5",
                       "--radius", "0.9", "--samples", "64")
    assert code == 1
    assert "fails-at-radius" in out


def test_membership_identity(capsys):
    code, out, _ = run(capsys, "membership", "identity", "--lambda", "0.25")
    assert code == 0
    assert "max |defect|" in out


def test_membership_profile_csv(capsys, tmp_path):
    out_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "membership", "f_0.5", "--lambda", "0.5",
                     "--radius", "0.9", "--samples", "16", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "theta,abs_defect"
    assert len(lines) == 17


def test_membership_malformed_series(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "membership", str(path), "--lambda", "0.5")
    assert code == 2
    assert err.startswith("error:")


def test_membership_series_file_jet_approximate(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]]))
    code, out, _ = run(capsys, "membership", str(path), "--lambda", "0.5",
                       "--radius", "0.5", "--samples", "32", "--format", "json")
    assert code == 0
    assert json.loads(out)["approximate"] is True


def test_membership_non_finite_defect(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps([[0, 0], [1, 0]] + [[1e308, 0]] * 6))
    code, out, err = run(capsys, "membership", str(path), "--lambda", "0.5",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "\n" not in err.strip()


def test_membership_order_flag_removed(capsys):
    code, _, err = run(capsys, "membership", "koebe", "--lambda", "0.5", "--order", "10")
    assert code == 2
    assert err.startswith("error:")


# -- verify / scan ---------------------------------------------------------------------

def test_verify_default_small(capsys, tmp_path):
    base = str(tmp_path / "rep")
    code, out, _ = run(capsys, "verify", "--samples", "2000", "--out", base)
    assert code == 0
    assert out.strip().endswith("PASS")
    csv_text = open(base + ".csv").read()
    assert csv_text.startswith("functional,lambda,mu,")
    assert len(csv_text.strip().split("\n")) == 1 + 5 * 4  # 5 parameters x 4 functionals
    payload = json.loads(open(base + ".json").read())
    assert payload["passed"] is True
    assert payload["checks"]["gap_inequality"] is True


def test_verify_single_lambda_override(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "0.5", "--samples", "500")
    assert code == 0
    assert "lambda=0.5" in out


def test_verify_rejects_zero_samples(capsys):
    code, _, err = run(capsys, "verify", "--samples", "0")
    assert code == 2
    assert err.startswith("error:")


def test_verify_rejects_bad_lambda_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_grid": [1.5]}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:")


def test_verify_rejects_unknown_field(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_gird": [0.5]}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config fields" in err


@pytest.mark.parametrize("field", ["gap_grid_points", "h_reduction"])
def test_verify_rejects_removed_fields(capsys, tmp_path, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: 1000}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "unknown config fields" in err


def test_verify_gap_and_h_reduction_lines(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "1/3", "--samples", "200")
    assert code == 0
    assert "gap-inequality (exact, L in (0, 1]): OK" in out.splitlines()
    assert "h-reduction agreement: OK" in out.splitlines()


def test_scan_rejects_zero_samples(capsys):
    code, out, err = run(capsys, "scan", "--functional", "A2", "--lambda-grid", "0.5",
                         "--samples", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "samples" in err


def test_scan_fs_values(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--functional", "FS", "--lambda-grid", "1",
                     "--mu-grid", "0,0.5,1", "--samples", "1000",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 4
    theoreticals = [float(line.split(",")[3]) for line in lines[1:]]
    assert theoreticals == [5.0, 3.0, 1.0]


def test_scan_needs_functional(capsys):
    code, _, err = run(capsys, "scan", "--lambda-grid", "0.5")
    assert code == 2
    assert err.startswith("error:")


def test_scan_grid_syntax(capsys):
    code, out, _ = run(capsys, "scan", "--functional", "A2", "--lambda-grid",
                       "0.2:1.0:5", "--samples", "200", "--format", "text")
    assert code == 0
    assert out.count("A2 lambda=") == 5


# -- determinism across workers (subprocess, env-controlled) --------------------------

def _run_verify_subprocess(tmp_path, threads, name):
    env = dict(os.environ, COEFFFORGE_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    base = str(tmp_path / name)
    proc = subprocess.run(
        [sys.executable, "-m", "coeffforge", "verify", "--lambda", "0.7",
         "--samples", "20000", "--seed", "99", "--out", base],
        capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(base + ".csv", "rb") as handle:
        return handle.read()


def test_verify_csv_identical_across_worker_counts(tmp_path):
    csv_1 = _run_verify_subprocess(tmp_path, 1, "one")
    csv_8 = _run_verify_subprocess(tmp_path, 8, "eight")
    assert csv_1 == csv_8

"""Command-line surface: outputs, exit codes, artifacts, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coeffforge
from coeffforge import schwarz
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


@pytest.mark.parametrize("payload", [
    '{"a": 1}', "[1, 2]", '[["a", "b"]]', "[[1, 0, 0, 0]]",
    "[[0, 1, 0, 1], [1, 1, 0, 1], [1.5, 1, 0, 1]]",
    "[[0.0, 0.0], [1.0, 0.0], [NaN, 0.0]]",
    # well-formed but not normalized: c0 = 1, c1 = 2, c1 = 1 + i/2
    "[[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]]", "[[0.0, 0.0], [2.0, 0.0], [0.5, 0.0]]",
    "[[0, 1, 0, 1], [1, 1, 1, 2], [1, 2, 0, 1]]",
])
@pytest.mark.parametrize("command", ["revert", "membership"])
def test_malformed_series_payload_exits_2(capsys, tmp_path, command, payload):
    path = tmp_path / "series.json"
    path.write_text(payload)
    code, out, err = run(capsys, command, str(path), "--lambda", "1/2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "\n" not in err.strip()


def test_revert_json_format(capsys):
    code, out, _ = run(capsys, "revert", "koebe", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0, 1, 0, 1], [1, 1, 0, 1], [-2, 1, 0, 1],
                               [5, 1, 0, 1], [-14, 1, 0, 1]]


# sha256 of the stdout of `revert f_1/3 --order 32 --mode exact --format json`,
# recorded before exact products moved to integer convolutions.
REVERT_32_DIGEST = "89162e4ac2f073d185e78dcdeaec44534a077012d0d4d99389a6be1eee701b68"


def test_revert_exact_order_32_digest(capsys):
    code, out, _ = run(capsys, "revert", "f_1/3", "--order", "32", "--mode", "exact",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REVERT_32_DIGEST


# sha256 of the stdout of closed-form commands, recorded before the closed
# forms became plain z/f jets; the reversions of the identity and of the
# series files, and the float coeffs, were recorded while normalized jets
# still had a type of their own.
CLOSED_FORM_DIGESTS = {
    ("membership", "koebe", "--lambda", "1/2", "--samples", "997"): {
        "text": "94e2531818a157a0696f05f1f4f57f7718e98151ea75e62e72c26c12c1467c8e",
        "json": "6cbfeafda8cb10d930b42abe4ee1473ff47d4e4b5fae5e755516cc22e269c120"},
    ("membership", "identity", "--lambda", "1/2", "--samples", "997"): {
        "text": "446b5e1803357215784282e129c6bdd3a4454967d4b8d0d9d747ecd22a27afc8",
        "json": "f95d22ff62f09b8864a9ec9b4dca7c29592239394f8d5b3c60fda54a56f72b5a"},
    ("membership", "f_1/3", "--lambda", "1/2", "--samples", "997"): {
        "text": "6f7667465d8ab7771dec4233f1b22207cf300960838e1463b0de3b4532d3d695",
        "json": "69c9a801202638902f50de6442844b02ea0d3a060b851959ac5fccebd168f1fb"},
    ("revert", "f_1/3", "--order", "12", "--mode", "float"): {
        "text": "4d30ea49cee59811c722b1816330cf3e7d08097d912ddd8b7dd547dd44b0e2e7",
        "json": "db5bf27bdd48fda60d9c108df8e3a087dcce633a850b5ee4e11d943bf482c167"},
    ("revert", "identity", "--order", "9", "--mode", "exact"): {
        "json": "d1f30aef7bff1d1737b2407910e09bab4b78e0afbca579fe4c161cc07f26513e"},
    ("revert", "identity", "--order", "9", "--mode", "float"): {
        "json": "4df14efbb360ea9a11a350d4bca9e1696bbee4a3a59aa161550d9ada8b43c5da"},
    ("revert", "float-series.json"): {
        "text": "b9bb4e6b862f05ef0d03cea987c9221573d17abaa906839f674e3588cf9e5a70",
        "json": "bf584347db7a4f75854de1ca6c5aa57c9e6b6880ecb2d9d7c3d2a71c696e0c4a"},
    ("revert", "complex-series.json"): {
        "text": "59493162c028fdbe94854f11d7e29ef937d3e1d2051369dfce3966c9e63c0951",
        "json": "1886ac289eca0b241a5a438daa6cfe7bb8a11b5f4deb48e1d07951062e46bb8e"},
    ("coeffs", "--lambda", "2/7", "--c1", "0.3,0.4", "--c2", "0.1,-0.2", "--c3", "0.05",
     "--mode", "float"): {
        "json": "291888582606eeaf0bcdccd67b72fe18d6c7700f53e692c58fa269b58f9fc4a7"},
}
# series files of the pinned reversions, written under these names
PINNED_SERIES = {
    "float-series.json": [[0.0, 0.0], [1.0, 0.0], [0.5, -0.25], [-0.125, 1.5],
                          [3.0, 0.0625], [-0.0, 2.5]],
    "complex-series.json": [[0, 1, 0, 1], [1, 1, 0, 1], [1, 2, -1, 3], [2, 7, 5, 11],
                            [-3, 4, 1, 9], [1, 5, 0, 1]],
}


@pytest.mark.parametrize("argv", sorted(CLOSED_FORM_DIGESTS))
def test_closed_form_outputs_are_pinned(capsys, tmp_path, argv):
    for name, payload in PINNED_SERIES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    args = [str(tmp_path / a) if a in PINNED_SERIES else a for a in argv]
    for fmt, digest in CLOSED_FORM_DIGESTS[argv].items():
        _, out, _ = run(capsys, *args, "--format", fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize("argv", [["membership", "f_1e-400", "--lambda", "1/2"],
                                  ["membership", "extremal", "--lambda", "1e-400"],
                                  ["revert", "f_1e-400", "--mode", "float"]])
def test_alias_lambda_that_rounds_to_zero_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: class parameter must lie in (0, 1]\n"


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


def test_coeffs_float_cross_check_is_exact(capsys):
    argv = ("coeffs", "--lambda", "1/2", "--mode", "float", "--c1", "0.3,0.4",
            "--c2", "0.1,-0.05", "--c3", "0.02")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "reversion cross-check: agrees" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["reversion_agrees"] is True


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


@pytest.mark.parametrize("part", ["[1e400, 0]", "[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]",
                                  "[true, false]"])
@pytest.mark.parametrize("argv", [["coeffs", "--mode", "exact"], ["coeffs", "--mode", "float"],
                                  ["fekete-szego", "--mu", "1/2", "--mode", "exact"],
                                  ["fekete-szego", "--mu", "1/2", "--mode", "float"]])
def test_jet_file_with_non_finite_or_bool_parts_exits_2(capsys, tmp_path, argv, part):
    path = tmp_path / "jet.json"
    path.write_text(f'{{"c1": {part}, "c2": [0, 0], "c3": [0, 0]}}')
    code, out, err = run(capsys, *argv, "--lambda", "1/2", "--jet", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed jet record: c1") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bounds", "--lambda", "1/2", "--mu", "1e400", "--mode", "float"],
    ["scan", "--functional", "FS", "--lambda-grid", "0.5", "--mu-grid", "1e400",
     "--samples", "10"],
    ["scan", "--functional", "A2", "--lambda-grid", "1e400", "--samples", "10"],
    ["coeffs", "--lambda", "1/2", "--c1", "1e400", "--mode", "float"],
    ["fekete-szego", "--lambda", "1/2", "--mu", "1e400,1", "--mode", "float"],
    # exact mode computes fine, but the json report holds floats
    ["bounds", "--lambda", "1/2", "--mu", "1e400", "--format", "json"],
    ["coeffs", "--lambda", "1/2", "--c1", "1e400", "--format", "json"],
    # the bound reads inf and |A3 - mu A2^2| overflows: nothing is printed
    ["fekete-szego", "--lambda", "1", "--mu", "4e307,4e307", "--c1", "1", "--mode", "float"],
])
def test_rational_beyond_the_float_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()  # coeffs warns first: such a jet is outside the class
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert "float range" in lines[-1]


OUTSIDE_WARNING = "warning: jet is outside the class for lambda=1/2\n"


def test_coeffs_warns_outside_class(capsys):
    code, out, err = run(capsys, "coeffs", "--lambda", "1/2", "--c1", "2")
    assert code == 0
    assert out == ("a2 = 3   a3 = 7   a4 = 15\n"
                   "A2 = -3   A3 = 11   A4 = -45\n"
                   "reversion cross-check: agrees\n")
    assert err == OUTSIDE_WARNING


def test_coeffs_warns_on_a_float_jet_beyond_the_square_range(capsys):
    # |c1|^2 exceeds the float range, and so do a3 and A3 (inf + nan j): the
    # run fails before the outside-class warning, with nothing on stdout
    code, out, err = run(capsys, "coeffs", "--lambda", "1/2", "--c1", "1e300", "--mode", "float")
    assert code == 2
    assert out == ""
    assert err == "error: a result overflows float arithmetic (inf or nan)\n"


def _write_config(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


OVERFLOWING_ARGV = [
    ["coeffs", "--lambda", "1/2", "--c1", "1e300", "--mode", "float", "--format", "text"],
    ["coeffs", "--lambda", "1/2", "--c1", "1e300", "--mode", "float", "--format", "json"],
    ["fekete-szego", "--lambda", "1/2", "--mu", "2", "--c1", "1e300", "--mode", "float"],
    ["fekete-szego", "--lambda", "1/2", "--mu", "0", "--c1", "1e300", "--mode", "float"],
    ["fekete-szego", "--lambda", "1", "--mu", "1e308", "--mode", "float"],
    ["bounds", "--lambda", "1/2", "--mu", "1e308", "--mode", "float", "--format", "text"],
    ["bounds", "--lambda", "1/2", "--mu", "1e308", "--mode", "float", "--format", "json"],
    *(["scan", "--functional", "FS", "--lambda-grid", "1", "--mu-grid", "1e308",
       "--samples", "10", "--format", fmt] for fmt in ("csv", "json", "text")),
    ["verify", "--config", {"mu_grid": [1e308], "lambda_grid": [1.0]}],
    ["verify", "--config", {"mu_grid": [1e308], "lambda_grid": [1.0]}, "--out", "report"],
]


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
@pytest.mark.parametrize("argv", OVERFLOWING_ARGV)
def test_results_beyond_the_float_range_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    argv = [_write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "overflows float arithmetic" in err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["cfg.json"] if argv[0] == "verify" else [])  # no report files


@pytest.mark.parametrize("argv", [
    ["scan", "--functional", "A2", "--lambda-grid", "0.5,2", "--samples", "2000000"],
    ["scan", "--functional", "FS", "--lambda-grid", "0.5", "--mu-grid", "0.5,1e308"],
    ["verify", "--config", {"lambda_grid": [0.5, 2.0]}],
    ["verify", "--config", {"lambda_grid": [0.5], "mu_grid": [0.5, 1e308]}],
    ["verify", "--config", {"lambda_grid": [0.5], "functionals": ["A2", "A5"]}],
    ["verify", "--config", {"lambda_grid": [0.5], "functionals": ["A2", "FS"], "mu_grid": []}],
])
def test_an_invalid_request_fails_before_any_sampling(capsys, tmp_path, monkeypatch, argv):
    def no_sampling(*args):
        raise AssertionError("sampled before the request was checked")
    monkeypatch.setattr(schwarz, "sample_block_arrays", no_sampling)
    argv = [_write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["revert", "membership"])
def test_unnormalized_series_gives_the_normalization_message(capsys, tmp_path, command):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([[0, 1, 0, 1], [2, 1, 0, 1], [1, 1, 0, 1]]))
    code, out, err = run(capsys, command, str(path), "--lambda", "1/2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.endswith("series is not normalized (needs c0 = 0, c1 = 1)\n")


def test_fekete_szego_warns_outside_class(capsys):
    code, out, err = run(capsys, "fekete-szego", "--lambda", "1/2", "--mu", "0",
                         "--c1", "5")
    assert code == 0
    assert out == "bound: 11/4\nvalue: 275/4\nmargin: -66\n"
    assert err == OUTSIDE_WARNING


def test_corner_jet_gives_no_warning(capsys):
    for argv in (["coeffs", "--lambda", "1/2", "--c1", "1"],
                 ["fekete-szego", "--lambda", "1/2", "--mu", "0", "--c1", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""


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
    csv_text = Path(base + ".csv").read_text()
    assert csv_text.startswith("functional,lambda,mu,")
    assert len(csv_text.strip().split("\n")) == 1 + 5 * 4  # 5 parameters x 4 functionals
    payload = json.loads(Path(base + ".json").read_text())
    assert payload["passed"] is True
    assert all(r["argmax_index"] == 0 for r in payload["reports"])  # the corner attains all
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


@pytest.mark.parametrize("config", [
    {"mu_grid": ["abc"]}, {"mu_grid": [None]}, {"mu_grid": [[0.5, 0.1]]},
    {"mu_grid": [True]}, {"lambda_grid": 0.5}, {"lambda_grid": ["0.5"]},
    {"functionals": "A2"}, {"attainment_tol": None}, {"search": 5}, 5,
    {"search": {"samples": 1.5}}, {"search": {"seed": 1.5}},
    {"search": {"samples": True}}, {"search": {"seed": True}},
    {"search": {"tolerance": True}}, {"search": {"tolerance": float("inf")}},
])
def test_verify_rejects_mistyped_config(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "\n" not in err.strip()


def test_verify_rejects_grid_strategy_in_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search": {"strategy": "grid"}}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid search config")


@pytest.mark.parametrize("argv", [["verify"],
                                  ["scan", "--functional", "A2", "--lambda-grid", "0.5"]])
def test_grid_strategy_flag_removed(capsys, argv):
    code, out, err = run(capsys, *argv, "--strategy", "grid")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "grid" in err


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


# sha256 of the CSV of a 201-mu Fekete-Szego scan, recorded while every mu
# was still evaluated on the whole of every block.
FS_MU_SCAN_DIGEST = "5d6063314c1f7c961e5f64feceb44d4d544ad48e69e6b0020816b2ba482bafe6"


def test_fs_mu_scan_is_pinned(capsys):
    code, out, _ = run(capsys, "scan", "--functional", "FS", "--lambda-grid", "1",
                       "--mu-grid=-1:2:201", "--strategy", "uniform", "--samples", "40000",
                       "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FS_MU_SCAN_DIGEST


def test_scan_json_records_the_argmax_index(capsys):
    code, out, _ = run(capsys, "scan", "--functional", "A2", "--functional", "FS",
                       "--lambda-grid", "1", "--mu-grid", "0.5,1.5", "--samples", "9000",
                       "--seed", "4", "--format", "json")
    assert code == 0
    a2, fs_half, fs_past_one = json.loads(out)["reports"]
    assert a2["argmax_index"] == fs_half["argmax_index"] == 0  # the corner
    assert 0 < fs_past_one["argmax_index"] < 9000


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


# -- cold start: the exact subcommands never import numpy --------------------------

_NO_NUMPY_PROBE = """
import contextlib, io, sys
import coeffforge.cli as cli
seen = {"import": "numpy" in sys.modules}
for argv in (["revert", "f_1/3", "--order", "8", "--mode", "exact"],
             ["bounds", "--lambda", "1/2", "--mu", "3/2"],
             ["coeffs", "--lambda", "1/2", "--c1", "1/2,1/3", "--c2", "1/5"],
             ["fekete-szego", "--lambda", "1/3", "--mu", "2", "--c1", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[argv[0]] = "numpy" in sys.modules
print(seen)
"""


def test_exact_subcommands_never_import_numpy():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"import": False, "revert": False, "bounds": False,
                                       "coeffs": False, "fekete-szego": False})


# -- the sampling subcommands without numpy ----------------------------------------

_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any later import of numpy raises ModuleNotFoundError
from coeffforge.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "10"],
    ["scan", "--functional", "A2", "--lambda-grid", "0.5", "--samples", "10"],
    ["membership", "series.json", "--lambda", "1/2"],
])
def test_sampling_subcommands_without_numpy_exit_2(argv, tmp_path):
    (tmp_path / "series.json").write_text("[[0, 0], [1, 0], [0.1, 0]]")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv], cwd=tmp_path,
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "numpy" in proc.stderr
    assert proc.stderr.count("\n") == 1

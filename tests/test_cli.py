"""Command-line surface: outputs, exit codes, artifacts, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coeffforge
from coeffforge import FUNCTIONALS, exact_proofs, inverse_weights, schwarz
from coeffforge.cli import DEFAULT_VERIFY_CONFIG, build_parser, main
from helpers import patched_bound

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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_revert_of_a_float_series_that_overflows_exits_2(capsys, tmp_path, fmt):
    # a float series file reverts in float, which reaches inf and nan at w^3
    path = tmp_path / "series.json"
    path.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0], [1e300, 0.0], [1e300, 1e300]]))
    code, out, err = run(capsys, "revert", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: a value is out of the float range: inf or nan in float arithmetic\n"


DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("argv", [
    ["revert", "f_1e-400", "--order", "12", "--format", "json"],
    ["bounds", "--lambda", "1e-2000"],  # |A4| has a denominator of 6001 digits
    ["coeffs", "--lambda", "1/2", "--c1", "1e-3000"],
])
def test_exact_value_beyond_the_integer_digit_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: an exact value has an integer part of more than {DIGIT_LIMIT} "
                   "digits, more than this interpreter prints; use --mode float\n")
    code, out, _ = run(capsys, *argv, "--mode", "float")
    assert code == 0 and out


@pytest.mark.parametrize("argv, what", [
    (["revert", "{}"], "series file"),
    (["membership", "{}", "--lambda", "1/2"], "series file"),
    (["coeffs", "--lambda", "1/2", "--jet", "{}"], "jet file"),
    (["verify", "--config", "{}"], "config"),
])
def test_json_file_with_an_integer_beyond_the_digit_limit_exits_2(capsys, tmp_path, argv, what):
    path = tmp_path / "long.json"
    path.write_text(f"[[0, 1, 0, 1], [1, 1, 0, 1], [{'7' * (DIGIT_LIMIT + 1)}, 1, 0, 1]]")
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {what} {path}: an integer has more than {DIGIT_LIMIT} digits\n"


@pytest.mark.parametrize("argv, what", [
    (["revert", "{}"], "series file"),
    (["membership", "{}", "--lambda", "1/2"], "series file"),
    (["coeffs", "--lambda", "1/2", "--jet", "{}"], "jet file"),
    (["verify", "--config", "{}"], "config"),
])
def test_json_file_that_is_not_utf8_exits_2(capsys, tmp_path, argv, what):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe[]")
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {what} {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["coeffs", "--lambda", "1/2", "--c1", "1" * 5000],
    ["bounds", "--lambda", "1" * 5000],
    ["bounds", "--lambda", "1/" + "3" * (DIGIT_LIMIT + 1)],
])
def test_rational_argument_beyond_the_digit_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: a rational argument has more than {DIGIT_LIMIT} digits in a row, "
                   "more than this interpreter parses\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ["bounds", "--lambda", "1" * 4000],  # parses, but lies outside (0, 1]
    ["bounds", "--lambda", "x" * 5000],
    ["revert", "f_" + "7" * 4000],
    ["revert", "x" * 5000],
    ["fekete-szego", "--lambda", "1/2", "--mu", "1,2," + "3" * 5000],
    # argparse's own errors
    ["scan", "--functional", "x" * 5000],
    ["revert", "identity", "--order", "x" * 5000],
    ["membership", "identity", "--lambda", "1/2", "--radius", "x" * 5000],
    ["scan", "--functional", "x" * 300],
])
def test_a_long_argument_is_echoed_by_a_short_prefix(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize("lam", ["1/3", "2/7", "1/10"])
def test_float_revert_prints_the_nearest_doubles_of_the_exact_inverse(capsys, lam):
    argv = ("revert", f"f_{lam}", "--order", "12", "--format", "json")
    _, exact, _ = run(capsys, *argv, "--mode", "exact")
    _, rounded, _ = run(capsys, *argv, "--mode", "float")
    assert json.loads(rounded) == [[float(Fraction(rn, rd)), float(Fraction(jn, jd))]
                                   for rn, rd, jn, jd in json.loads(exact)]


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
# series files were recorded while normalized jets still had a type of their
# own, and the float reversion of f_1/3 and the float coeffs once float mode
# printed the nearest doubles of exact results.
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
        "text": "08c340d33744915f996d911f6acfcb1b55fdabbd83a32081592daa6a3e258bf2",
        "json": "e026d80ec25d63645dc957919a5fa8ded567fbc53a1267df1be84b4b38f2c944"},
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
        "json": "ef295bdc05e6f963a633b9c4f85fa0bfee02a77c4d12433525d48c82c71df699"},
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


_TINY = "1/1" + "0" * 400  # a positive rational whose nearest double is 0


@pytest.mark.parametrize("argv", [
    ["membership", "f_1e-400", "--lambda", "1/2"],
    ["membership", "extremal", "--lambda", "1e-400"],
    ["membership", f"f_{_TINY}", "--lambda", "0.5"],
    ["membership", "koebe", "--lambda", _TINY],
    ["verify", "--lambda", _TINY, "--samples", "10"],
    ["scan", "--functional", "A2", "--lambda-grid", "1e-400", "--samples", "10"],
])
def test_alias_lambda_that_rounds_to_zero_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    prefix = "--lambda-grid: 1e-400" if argv[0] == "scan" else "lambda"
    assert err == f"error: {prefix} underflows float arithmetic: it rounds to 0\n"


@pytest.mark.parametrize("argv, message", [
    (["membership", "koebe", "--lambda", "0"], "lambda must lie in (0, 1], got 0"),
    (["verify", "--lambda=-1/2", "--samples", "10"], "lambda must lie in (0, 1], got -1/2"),
    (["membership", "f_3/2", "--lambda", "1/2"], "lambda must lie in (0, 1], got 3/2"),
    (["scan", "--functional", "A2", "--lambda-grid", "0", "--samples", "10"],
     "grid points must lie in (0, 1]"),
    (["scan", "--functional", "A2", "--lambda-grid", "1.5", "--samples", "10"],
     "grid points must lie in (0, 1]"),
], ids=["zero", "negative", "above-one", "grid-zero", "grid-above-one"])
def test_lambda_out_of_range_keeps_its_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_revert_alias_lambda_that_rounds_to_zero_in_float_mode(capsys):
    # revert computes with the exact L = 10^-400 and prints the nearest doubles
    code, out, err = run(capsys, "revert", "f_1e-400", "--mode", "float")
    assert (code, out, err) == (0, "w - w^2 + w^3 - w^4\n", "")


def test_float_alias_revert_needs_no_reversion(capsys, monkeypatch):
    # float mode takes the extremal inverse from its closed form; an exact
    # reversion at this L and order costs seconds
    monkeypatch.setattr(coeffforge.cli, "revert", None)
    code, out, err = run(capsys, "revert", "f_1e-300", "--order", "40", "--mode", "float")
    assert (code, err) == (0, "")
    assert out == "w" + "".join(f" {'-+'[n % 2]} w^{n}" for n in range(2, 41)) + "\n"


# sha256 of the stdout of `revert f_1e-300 --order 128 --mode float` as text
# and as JSON, recorded from the nearest doubles of the reduced Fractions; the
# recurrence on integers must print the same bytes
@pytest.mark.parametrize("fmt, digest", [
    ("text", "a1f060b6010d2ccb8e43419c399809865b32b0bbe301840108c08ffad746a55d"),
    ("json", "2f34183dfc4c2be31498d0ce12779833db0feea42468e4b131716d3a71cbbb7d")])
def test_float_revert_of_a_large_denominator_is_pinned(capsys, fmt, digest):
    code, out, err = run(capsys, "revert", "f_1e-300", "--order", "128", "--mode", "float",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("argv", [
    ["coeffs", "--lambda", "2/7", "--c1", "0.3,0.4", "--c2", "0.1,-0.2", "--c3", "0.05"],
    ["bounds", "--lambda", "1/3", "--mu", "1/2"],
])
def test_json_reports_do_not_depend_on_the_mode(capsys, argv):
    code, exact, _ = run(capsys, *argv, "--mode", "exact", "--format", "json")
    assert code == 0
    assert run(capsys, *argv, "--mode", "float", "--format", "json")[:2] == (0, exact)


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_float_mode_judges_a_jet_just_outside_the_class_exactly(capsys, fmt):
    # |c1| exceeds 1 by 1e-13, inside the 1e-12 band of the float sampler check
    code, _, err = run(capsys, "coeffs", "--lambda", "1/2", "--c1", "1.0000000000001",
                       "--mode", "float", "--format", fmt)
    assert code == 0
    assert err == "warning: jet is outside the class for lambda=0.5\n"


OUT_OF_RANGE = "error: a value is out of the float range: integer division result too large for a float\n"


def test_coeffs_warns_on_a_float_jet_beyond_the_square_range(capsys):
    # a3 and A3 are exact but beyond the float range: the run fails while
    # rounding them, before the outside-class warning, with nothing on stdout
    code, out, err = run(capsys, "coeffs", "--lambda", "1/2", "--c1", "1e300", "--mode", "float")
    assert code == 2
    assert out == ""
    assert err == OUT_OF_RANGE


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
    if argv[0] in ("scan", "verify"):  # the verifier's own check of its float results
        assert "overflows float arithmetic" in err
    else:  # an exact result rounds to a double only to print
        assert err == OUT_OF_RANGE
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
    monkeypatch.setattr(schwarz, "sample_grid_block", no_sampling)
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


@pytest.mark.parametrize("argv, last_line", [
    (["bounds", "--lambda", "1/2", "--mu", "4e307,4e307"],
     "|A3 - mu A2^2| <= 1.2727922061357855e+308 (mu = 4e307,4e307)"),
    (["fekete-szego", "--lambda", "1/2", "--mu", "4e307,4e307"],
     "bound: 1.2727922061357855e+308"),
])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_fs_bound_whose_square_modulus_is_beyond_the_float_range(capsys, argv, last_line,
                                                                 mode):
    # |1 - mu|^2 is about 3.2e615, but L + |1 - mu| (1+L)^2 is a double
    code, out, err = run(capsys, *argv, "--mode", mode)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last_line


@pytest.mark.parametrize("argv", [["bounds", "--lambda", "1/2", "--mu", "1e308,1e308"],
                                  ["bounds", "--lambda", "1/2", "--mu", "1e308,1e308",
                                   "--format", "json"],
                                  ["fekete-szego", "--lambda", "1/2", "--mu", "1e308,1e308"]])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_fs_bound_beyond_the_float_range_exits_2(capsys, argv, mode):
    # |1 - mu| is a double, but the bound it gives is inf
    code, out, err = run(capsys, *argv, "--mode", mode)
    assert (code, out) == (2, "")
    assert err == "error: a value is out of the float range: inf or nan in float arithmetic\n"


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
    assert payload["checks"]["proofs"] == {"A2": True, "A3": True, "A4": True, "FS": True}


def test_verify_out_to_an_unwritable_path_prints_nothing(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "rep")
    code, out, err = run(capsys, "verify", "--samples", "10", "--out", missing)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_corner_attains_a_bound_near_1e15(capsys, tmp_path):
    # the corner's float value differs from the bound by rounding at the
    # bound's scale: gap -0.25 at L = 0.3 and 0.5 at L = 0.7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_grid": [0.1, 0.3, 0.7], "functionals": ["FS"],
                               "mu_grid": [-1e15], "search": {"samples": 1}}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    assert "gap=-0.25 OK" in lines[1] and "gap=0.5 OK" in lines[2]
    assert lines[-1] == "PASS"


# sha256 of the stdout, CSV and JSON of `verify --seed 1` with the default
# config. The corner attains every bound, so they hold while the sample
# stream moves; recorded before the boundary-biased c2 became a ray walk.
VERIFY_SEED_1_DIGESTS = {
    "stdout": "cdb76dbf4f9c55cc020484ba452af2bfdcd5b4a9070d5dafbc635fd1853c57aa",
    "csv": "cba78f53c4bcd9095e4a2aae4c2931de57af55c421c877953aa0029c94d5f257",
    "json": "bb8a141e4545e911de599644691da363402c6dada9fffaefb22a10744219d62e",
}


@pytest.mark.parametrize("threads", [None, "2"])
def test_verify_seed_1_is_pinned(capsys, tmp_path, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("COEFFFORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("COEFFFORGE_THREADS", threads)
    base = str(tmp_path / "rep")
    code, out, _ = run(capsys, "verify", "--seed", "1", "--out", base)
    assert code == 0
    outputs = {"stdout": out.encode(), "csv": Path(base + ".csv").read_bytes(),
               "json": Path(base + ".json").read_bytes()}
    for name, digest in VERIFY_SEED_1_DIGESTS.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == digest, name


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


def test_verify_exact_proof_lines(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "1/3", "--samples", "200")
    assert code == 0
    assert out.splitlines()[-5:] == ["A2 exact proof (L in (0, 1]): OK",
                                     "A3 exact proof (L in (0, 1]): OK",
                                     "A4 exact proof (L in (0, 1]): OK",
                                     "FS exact proof (L in (0, 1], every mu): OK",
                                     "PASS"]


def test_verify_fails_when_a_proof_fails(capsys, tmp_path):
    base = str(tmp_path / "rep")
    # |A4| <= q4 - 1/100 is false at the corner jet, for the proof and the search alike
    with patched_bound("A4", lambda L, nu: inverse_weights(L)[3] - Fraction(1, 100)):
        code, out, err = run(capsys, "verify", "--lambda", "1/3", "--samples", "200",
                             "--out", base)
    assert code == 1
    lines = out.splitlines()
    assert "A4 exact proof (L in (0, 1]): FAIL" in lines
    assert "A3 exact proof (L in (0, 1]): OK" in lines
    (a4,) = [line for line in lines if line.startswith("A4 lambda=")]
    assert a4.endswith(" VIOLATION")
    assert all(line.endswith(" OK") for line in lines if " lambda=" in line and line != a4)
    assert lines[-1] == "FAIL"
    assert err == "error: bound verification failed (see report)\n"
    payload = json.loads(Path(base + ".json").read_text())
    assert payload["checks"] == {"sound": False, "attained": True,
                                 "proofs": {"A2": True, "A3": True, "A4": False, "FS": True}}
    assert payload["passed"] is False


def test_every_list_of_functionals_is_the_table_in_order(capsys):
    names = list(FUNCTIONALS)
    scan = build_parser()._subparsers._group_actions[0].choices["scan"]
    (functional,) = [a for a in scan._actions if a.dest == "functional"]
    assert functional.choices == names
    assert DEFAULT_VERIFY_CONFIG["functionals"] == names
    assert list(exact_proofs()) == names
    code, out, _ = run(capsys, "verify", "--lambda", "1", "--samples", "10")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines() if " exact proof " in line] == names


def test_scan_rejects_a_mu_grid_that_no_functional_takes(capsys, tmp_path):
    code, out, err = run(capsys, "scan", "--functional", "A2", "--mu-grid", "0.5",
                         "--lambda-grid", "1", "--samples", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--mu-grid" in err and err.count("\n") == 1
    code, out, _ = run(capsys, "scan", "--functional", "A2", "--functional", "FS",
                       "--mu-grid", "0.5", "--lambda-grid", "1", "--samples", "10")
    assert code == 0 and len(out.splitlines()) == 3
    # verify keeps its default mu grid beside a config of coefficients alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functionals": ["A2"]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--lambda", "1",
                       "--samples", "10")
    assert code == 0 and out.splitlines()[0].startswith("A2 lambda=1.0 ")


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


# sha256 of the CSV of a 201-mu Fekete-Szego scan. Its rows with mu <= 1 sit
# at the corner; re-recorded when the sample stream moved to disk points
# drawn by rejection from the square, which moved only rows with mu > 1.
FS_MU_SCAN_DIGEST = "68848937f41d9caa6c7a3d24664ee80c350e62152029cb4c6ccf1c700831eea3"


def test_fs_mu_scan_is_pinned(capsys):
    code, out, _ = run(capsys, "scan", "--functional", "FS", "--lambda-grid", "1",
                       "--mu-grid=-1:2:201", "--strategy", "uniform", "--samples", "40000",
                       "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FS_MU_SCAN_DIGEST


# sha256 of the CSV of a three-lambda boundary-biased scan, re-recorded when
# the sample stream moved to disk points drawn by rejection from the square;
# for mu = 1.5 the maxima come from random blocks (the first and the third of
# three full blocks; a partial fourth follows).
GRID_SCAN_DIGEST = "858f916bd4a568aaefea3337e3ec3979ffef941dba15550ef07f0e1717690ca3"


def test_multi_lambda_scan_is_pinned(capsys):
    code, out, _ = run(capsys, "scan", "--functional", "FS", "--functional", "A4",
                       "--lambda-grid", "0.02,0.3,1", "--mu-grid", "1.5,3", "--samples", "24581")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_SCAN_DIGEST


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


@pytest.mark.parametrize("grid, message", [
    ("abc:1:3", "cannot parse 'abc' as a rational number"),
    ("1" * 5000 + ":1:3", f"a rational argument has more than {DIGIT_LIMIT} digits in a row"),
    ("0.1:1:x", "cannot parse 'x' as a rational number"),
    ("0.1:1:0", "grid count must be a positive integer, got '0'"),
    ("0.1:1:2.5", "grid count must be a positive integer, got '2.5'"),
    ("0.1:1", "grid range must be lo:hi:count, got '0.1:1'"),
    ("1e400:1:3", "a value is out of the float range"),
    ("1e-400,1", "1e-400 underflows float arithmetic: it rounds to 0"),
    ("0.5,x" * 1000, "cannot parse 'x0.5' as a rational number"),
    # numpy refuses each of these counts at once, before allocating anything
    ("0.1:1:100000000000", "the grid has too many points to allocate"),
    ("0.1:1:9223372036854775808", "the grid has too many points to allocate"),
    ("0.1:1:" + "9" * 4000, "the grid has too many points to allocate"),
], ids=["word", "digit-limit", "word-count", "zero-count", "fraction-count", "two-parts",
        "overflow", "underflow", "long-list", "count-1e11", "count-2^63", "count-4000-digits"])
@pytest.mark.parametrize("option", ["--lambda-grid", "--mu-grid"])
def test_bad_grid_exits_2_naming_the_option(capsys, option, grid, message):
    argv = ["scan", "--functional", "FS", "--lambda-grid", "0.5", "--mu-grid", "1",
            "--samples", "10"]
    argv[argv.index(option) + 1] = grid
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option}: {message}") and err.count("\n") == 1
    assert len(err.encode()) < 200


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


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "20000"],
    ["scan", "--functional", "A2", "--lambda-grid", "0.5", "--samples", "30000", "--out", "x"],
])
def test_a_worker_that_dies_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, argv):
    parent = os.getpid()

    def die(*args):
        if os.getpid() != parent:
            os._exit(1)  # as a worker killed by a signal or the OOM killer
        raise AssertionError("a block was sampled outside the worker processes")
    monkeypatch.setattr(schwarz, "sample_grid_block", die)
    monkeypatch.setenv("COEFFFORGE_THREADS", "2")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: a search worker process died") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # no report files


def test_an_error_in_a_worker_is_the_cli_error_line(capsys, tmp_path, monkeypatch):
    parent = os.getpid()

    def fail(*args):
        if os.getpid() != parent:
            raise ValueError("a block could not be sampled")
        raise AssertionError("a block was sampled outside the worker processes")
    monkeypatch.setattr(schwarz, "sample_grid_block", fail)
    monkeypatch.setenv("COEFFFORGE_THREADS", "2")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--samples", "20000", "--out", "x")
    assert (code, out, err) == (2, "", "error: a block could not be sampled\n")
    assert list(tmp_path.iterdir()) == []


_DYING_WORKER_PROBE = """
import os, sys
from coeffforge import cli, schwarz
parent = os.getpid()
def die(*args):
    os._exit(1) if os.getpid() != parent else sys.exit("a block was sampled in the parent")
schwarz.sample_grid_block = die
sys.exit(cli.main(["verify", "--samples", "50000"]))
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("argv", [["-m", "coeffforge", "verify", "--samples", "50000"],
                                  ["-c", _DYING_WORKER_PROBE]], ids=["verify", "dying-worker"])
def test_no_search_leaves_a_process_behind(argv):
    env = dict(os.environ, COEFFFORGE_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    _, err = proc.communicate(timeout=120)
    if argv[0] == "-m":
        assert (proc.returncode, err) == (0, "")
    else:
        assert proc.returncode == 2 and err.startswith("error: a search worker process died")
    # the session's group is the CLI's pid; it is empty once every worker is reaped
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _minor_faults(argv):
    env = dict(os.environ, COEFFFORGE_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "coeffforge", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(not hasattr(os, "wait4") or not hasattr(os, "confstr"),
                    reason="needs wait4 and glibc")
def test_a_long_search_does_not_fault_its_heap_in_again_for_each_block():
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        pytest.skip("needs glibc")
    argv = ["scan", "--functional", "A4", "--lambda-grid", "0.5", "--seed", "1", "--samples"]
    short, long = (_minor_faults(argv + [str(1 + blocks * 8192)]) for blocks in (2, 40))
    # the heap handed back after each block cost about 480 faults a block
    assert long - short < 38 * 100, (short, long)


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


# -- cold start: one worker never imports the process pool --------------------------

_NO_POOL_PROBE = """
import contextlib, io, sys
import coeffforge.cli as cli
pool = ("concurrent.futures", "multiprocessing")
seen = {"import": [m for m in pool if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["scan", "--functional", "A2", "--lambda-grid", "0.5,1",
                     "--samples", "20000"]) == 0
seen["scan"] = [m for m in pool if m in sys.modules]
print(seen)
"""


def test_one_worker_never_imports_the_process_pool():
    env = dict(os.environ, COEFFFORGE_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_PROBE],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"import": [], "scan": []})


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

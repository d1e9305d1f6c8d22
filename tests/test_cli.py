"""Command-line surface: outputs, exit codes, artifacts, determinism."""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coeffforge
from coeffforge import (FUNCTIONALS, QComplex, SchwarzJet, cli, exact_proofs, functional_bound,
                        inverse_coeffs, inverse_weights, schwarz)
from coeffforge.cli import build_parser, main
from coeffforge.ulambda import Functional
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
    assert out.strip() == "w - (3/2)w^2 + (11/4)w^3 - (45/8)w^4"


def test_revert_extremal_is_an_unknown_input(capsys):
    # f_<L> names the extremal function with its own L
    for argv in (["revert", "extremal"], ["membership", "extremal", "--lambda", "1/2"]):
        assert run(capsys, *argv) == (2, "", "error: unknown function input 'extremal' "
                                             "(expected identity | koebe | f_<lambda> | "
                                             "series.json)\n")


@pytest.mark.parametrize("name", ["koebe", "f_1/3", "identity", "series.json"])
def test_revert_has_no_lambda_option(capsys, tmp_path, monkeypatch, name):
    # every input fixes its own L, or has none
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text(json.dumps([[0, 0], [1, 0], [1, 0]]))
    code, out, err = run(capsys, "revert", name, "--order", "6", "--lambda", "1/2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--lambda" in err and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["identity", "f_1/3", "koebe", "series.json"])
def test_revert_order_below_one_is_one_error_line_naming_the_option(capsys, tmp_path,
                                                                    monkeypatch, name, mode):
    # a series file fixes its own order, but --order 0 is refused all the same
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text(json.dumps([[0, 0], [1, 0], [1, 0]]))
    code, out, err = run(capsys, "revert", name, "--order", "0", "--mode", mode)
    assert (code, out, err) == (2, "", "error: --order must be at least 1, got 0\n")


@pytest.mark.parametrize("order", ["1", "3", "10"])
@pytest.mark.parametrize("payload", [[[0, 1, 0, 1], [1, 1, 0, 1], [1, 1, 0, 1]],
                                     [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]],
                         ids=["exact", "float"])
def test_revert_refuses_order_for_a_series_file(capsys, tmp_path, payload, order):
    # a series file fixes its own order; --order would be ignored
    path = tmp_path / "series.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "revert", str(path), "--order", order) == (
        2, "", "error: --order applies to an alias only: a series file fixes its own order\n")


@pytest.mark.parametrize("c2, shown", [
    (Fraction(1, 3 * 10 ** 400), f"(1/3{'0' * 400})"),  # its nearest double is 0
    (Fraction(10 ** 400 + 1, 2), f"(1{'0' * 399}1/2)"),  # beyond the float range
], ids=["tiny", "huge"])
def test_exact_revert_text_prints_a_fraction_exactly(capsys, tmp_path, c2, shown):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([[0, 1, 0, 1], [1, 1, 0, 1],
                                [c2.numerator, c2.denominator, 0, 1]]))
    assert run(capsys, "revert", str(path)) == (0, f"w - {shown}w^2\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [["revert", "--order", "9", "--mode", "exact"],
                                  ["revert", "--order", "9", "--mode", "float"],
                                  ["membership", "--lambda", "1/2", "--samples", "97"]],
                         ids=["revert-exact", "revert-float", "membership"])
def test_koebe_and_f_1_print_the_same_bytes(capsys, argv, fmt):
    koebe, f_1 = (run(capsys, argv[0], name, *argv[1:], "--format", fmt)
                  for name in ("koebe", "f_1"))
    assert koebe[1] and koebe == f_1


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
    lam = ["--lambda", "1/2"] if command == "membership" else []  # revert has no --lambda
    code, out, err = run(capsys, command, str(path), *lam)
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
    ["coeffs", "--lambda", "1/2", "--c1", "1", "--mu", "1,2," + "3" * 5000],
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


@pytest.mark.parametrize("argv, text", [
    (["revert", "series.json"], "w + (1/2-(1/3)i)w^2 + (-49/18-(2/3)i)w^3\n"),
    (["coeffs", "--lambda", "1/2", "--c1", "0,1/3"],
     "a2 = 0+(1/2)i   a3 = -7/36   a4 = 0-(5/72)i\n"
     "A2 = 0-(1/2)i   A3 = -11/36   A4 = 0+(5/24)i\n"
     "reversion cross-check: agrees\n"),
], ids=["revert", "coeffs"])
def test_a_fractional_imaginary_part_prints_in_parentheses(capsys, tmp_path, monkeypatch,
                                                           argv, text):
    # 1/3i would read as 1/(3i)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text(json.dumps([[0, 1, 0, 1], [1, 1, 0, 1],
                                                      [-1, 2, 1, 3], [3, 1, 0, 1]]))
    assert run(capsys, *argv) == (0, text, "")


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
# printed the nearest doubles of exact results; the text of the complex
# series file's reversion was re-recorded once exact text printed fractions,
# and again once a fractional imaginary part printed as (p/q)i.
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
        "text": "e0ae422ec4b14bb00f45d18fa36ed0ef8734e20643971c0e84d81c6d61ecc1b5",
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
    ["membership", f"f_{_TINY}", "--lambda", "0.5"],
    ["membership", "koebe", "--lambda", _TINY],
    ["verify", "--lambda-grid", _TINY, "--samples", "10"],
    ["scan", "--functional", "A2", "--lambda-grid", "1e-400", "--samples", "10"],
])
def test_alias_lambda_that_rounds_to_zero_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    name = {"verify": f"--lambda-grid: {_TINY[:40]}...",
            "scan": "--lambda-grid: 1e-400"}.get(argv[0], "lambda")
    assert err == f"error: {name} underflows float arithmetic: it rounds to 0\n"


_ABOVE_ONE = "1.00000000000000001"  # above 1, but its nearest double is 1.0


@pytest.mark.parametrize("argv, message", [
    (["membership", "koebe", "--lambda", "0"], "lambda must lie in (0, 1], got 0"),
    (["verify", "--lambda-grid=-1/2", "--samples", "10"],
     "--lambda-grid: lambda must lie in (0, 1], got -1/2"),
    (["membership", "f_3/2", "--lambda", "1/2"], "lambda must lie in (0, 1], got 3/2"),
    (["scan", "--functional", "A2", "--lambda-grid", "0", "--samples", "10"],
     "--lambda-grid: lambda must lie in (0, 1], got 0"),
    (["scan", "--functional", "A2", "--lambda-grid", "1.5", "--samples", "10"],
     "--lambda-grid: lambda must lie in (0, 1], got 1.5"),
    # each grid point, and lo and hi of a range, is checked before it rounds
    *(([*command, f"--lambda-grid={grid}", "--samples", "10"],
       f"--lambda-grid: lambda must lie in (0, 1], got {got}")
      for command in (["scan", "--functional", "A2"], ["verify"])
      for grid, got in ((_ABOVE_ONE, _ABOVE_ONE), (f"1/2:{_ABOVE_ONE}:3", _ABOVE_ONE),
                        ("-1e-400:1:3", "-1e-400"))),
], ids=["zero", "negative", "above-one", "grid-zero", "grid-above-one",
        *(f"{command}-{grid}" for command in ("scan", "verify")
          for grid in ("point-above-one", "range-hi-above-one", "range-lo-below-zero"))])
def test_lambda_out_of_range_keeps_its_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("head, option, value", [
    (["bounds", "--lambda", "1/2"], "--mu", "-1/2"),
    (["bounds", "--lambda", "1/2"], "--mu", "-.5"),
    (["coeffs", "--lambda", "1/2"], "--c1", "-1/2,1/3"),
    (["scan", "--functional", "FS", "--lambda-grid", "1", "--samples", "5"], "--mu-grid", "-1:2:7"),
    (["bounds"], "--lambda", "-1"),
], ids=["rational", "decimal", "complex", "grid", "out-of-range"])
def test_a_negative_value_after_a_space_reads_as_its_equals_form(capsys, head, option, value):
    spaced = run(capsys, *head, option, value)
    assert spaced == run(capsys, *head, f"{option}={value}")
    if value == "-1":
        assert spaced == (2, "", "error: lambda must lie in (0, 1], got -1\n")
    else:
        assert spaced[0] == 0


def test_revert_alias_lambda_that_rounds_to_zero_in_float_mode(capsys):
    # revert computes with the exact L = 10^-400 and prints the nearest doubles
    code, out, err = run(capsys, "revert", "f_1e-400", "--mode", "float")
    assert (code, out, err) == (0, "w - w^2 + w^3 - w^4\n", "")


def test_float_alias_revert_needs_no_reversion(capsys, monkeypatch):
    # float mode takes the extremal inverse from its closed form and calls no
    # reversion
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
    assert payload["A4"] == pytest.approx(5.625)
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


def _shown(value):
    """A printed number: a rational exactly, a double by its repr."""
    return str(value) if isinstance(value, Fraction) else repr(value)


@pytest.mark.parametrize("lam", ["1", "1/2", "2/7", "1/10"])
@pytest.mark.parametrize("mu_text, mu", [(None, None), ("1/2", Fraction(1, 2)),
                                         ("-3", Fraction(-3)), ("1/2,1/3", QComplex("1/2", "1/3"))])
def test_bounds_prints_each_functional_bound(capsys, lam, mu_text, mu):
    argv = ["bounds", "--lambda", lam, *([] if mu_text is None else ["--mu", mu_text])]
    entries = [(name, f) for name, f in FUNCTIONALS.items() if mu is not None or not f.takes_mu]
    bounds = [functional_bound(name, Fraction(lam), mu) for name, _ in entries]
    lines = [f"{f.text} <= {_shown(b)}" + (f" (mu = {mu_text})" if f.takes_mu else "")
             for (_, f), b in zip(entries, bounds)]
    assert run(capsys, *argv)[:2] == (0, "\n".join([f"lambda = {lam}", *lines]) + "\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert (code, json.loads(out)) == (0, {"lambda": float(Fraction(lam)),
                                           **{name: float(b) for (name, _), b in
                                              zip(entries, bounds)}})


# -- coeffs ----------------------------------------------------------------------

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
    code, out, _ = run(capsys, "coeffs", "--lambda", "1", "--mu", "1", "--c1", "1")
    assert code == 0
    assert out.splitlines()[-1] == "|A3 - mu A2^2| = 1, bound 1, margin 0 (mu = 1)"


def test_fekete_szego_complex_mu(capsys):
    code, out, _ = run(capsys, "bounds", "--lambda", "1", "--mu", "1,1", "--mode", "float")
    assert code == 0
    assert out.splitlines()[-1] == "|A3 - mu A2^2| <= 5.0 (mu = 1,1)"


def test_fekete_szego_bad_jet_prints_nothing(capsys):
    code, out, err = run(capsys, "coeffs", "--lambda", "1/2", "--mu", "0", "--c1", "abc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "\n" not in err.strip()


@pytest.mark.parametrize("options, line", [
    (["--jet", "JET", "--c1", "1/3"], "error: --jet and --c1 exclude each other"),
    (["--jet", "JET", "--c3", "0"], "error: --jet and --c3 exclude each other"),
    (["--c2", "1/4"], "error: --c2 needs --c1"),
    (["--c3", "1/4"], "error: --c3 needs --c1"),
], ids=["jet-c1", "jet-c3", "c2-alone", "c3-alone"])
@pytest.mark.parametrize("command", [["coeffs"], ["coeffs", "--mu", "1"]],
                         ids=["coeffs", "fekete-szego"])  # with the Fekete-Szego line
def test_a_jet_option_that_would_be_ignored_exits_2(capsys, tmp_path, command, options, line):
    jet = tmp_path / "jet.json"
    jet.write_text('{"c1": [0.5, 0], "c2": [0.1, 0], "c3": [0, 0]}')
    options = [str(jet) if option == "JET" else option for option in options]
    assert run(capsys, *command, "--lambda", "1/2", *options) == (2, "", line + "\n")


@pytest.mark.parametrize("part", ["[1e400, 0]", "[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]",
                                  "[true, false]"])
@pytest.mark.parametrize("argv", [["coeffs", "--mode", "exact"], ["coeffs", "--mode", "float"],
                                  ["coeffs", "--mu", "1/2", "--mode", "exact"],
                                  ["coeffs", "--mu", "1/2", "--mode", "float"]])
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
    ["verify", "--functional", "FS", "--lambda-grid", "0.5", "--mu-grid", "1e400",
     "--samples", "10"],
    ["coeffs", "--lambda", "1/2", "--c1", "1e400", "--mode", "float"],
    ["bounds", "--lambda", "1/2", "--mu", "1e400,1", "--mode", "float"],
    # exact mode computes fine, but the json report holds floats
    ["bounds", "--lambda", "1/2", "--mu", "1e400", "--format", "json"],
    ["coeffs", "--lambda", "1/2", "--c1", "1e400", "--format", "json"],
    # the bound reads inf and |A3 - mu A2^2| overflows: nothing is printed
    ["coeffs", "--lambda", "1", "--mu", "4e307,4e307", "--c1", "1", "--mode", "float"],
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


OVERFLOWING_ARGV = [
    ["coeffs", "--lambda", "1/2", "--c1", "1e300", "--mode", "float", "--format", "text"],
    ["coeffs", "--lambda", "1/2", "--c1", "1e300", "--mode", "float", "--format", "json"],
    ["coeffs", "--lambda", "1/2", "--mu", "2", "--c1", "1e300", "--mode", "float"],
    ["coeffs", "--lambda", "1/2", "--mu", "0", "--c1", "1e300", "--mode", "float"],
    ["bounds", "--lambda", "1", "--mu", "1e308", "--mode", "float"],
    ["bounds", "--lambda", "1/2", "--mu", "1e308", "--mode", "float", "--format", "text"],
    ["bounds", "--lambda", "1/2", "--mu", "1e308", "--mode", "float", "--format", "json"],
    *(["scan", "--functional", "FS", "--lambda-grid", "1", "--mu-grid", "1e308",
       "--samples", "10", "--format", fmt] for fmt in ("csv", "json", "text")),
    ["verify", "--functional", "FS", "--lambda-grid", "1", "--mu-grid", "1e308"],
    ["verify", "--functional", "FS", "--lambda-grid", "1", "--mu-grid", "1e308", "--out", "report"],
]


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
@pytest.mark.parametrize("argv", OVERFLOWING_ARGV)
def test_results_beyond_the_float_range_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if argv[0] in ("scan", "verify"):  # the verifier's own check of its float results
        assert "overflows float arithmetic" in err
    else:  # an exact result rounds to a double only to print
        assert err == OUT_OF_RANGE
    assert list(tmp_path.iterdir()) == []  # no report files


@pytest.mark.parametrize("argv", [
    ["scan", "--functional", "A2", "--lambda-grid", "0.5,2", "--samples", "2000000"],
    ["scan", "--functional", "FS", "--lambda-grid", "0.5", "--mu-grid", "0.5,1e308"],
    ["verify", "--lambda-grid", "0.5,2"],
    ["verify", "--lambda-grid", "0.5", "--mu-grid", "0.5,1e308"],
    ["verify", "--lambda-grid", "0.5", "--functional", "A2", "--functional", "A5"],
    ["verify", "--lambda-grid", "0.5", "--functional", "A2", "--functional", "FS",
     "--mu-grid", ""],  # error: the FS functional needs mu
    ["scan", "--functional", "A2", "--lambda-grid", ","],  # error: empty lambda grid
])
def test_an_invalid_request_fails_before_any_sampling(capsys, monkeypatch, argv):
    def no_sampling(*args):
        raise AssertionError("sampled before the request was checked")
    monkeypatch.setattr(schwarz, "sample_block_arrays", no_sampling)
    monkeypatch.setattr(schwarz, "sample_grid_block", no_sampling)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["--functional", "A2", "--functional", "A2", "--lambda-grid", "1"], "--functional: A2"),
    (["--functional", "FS", "--lambda-grid", "1", "--mu-grid", "0.5,0.5"], "--mu-grid: 0.5"),
    (["--functional", "A2", "--lambda-grid", "1,1"], "--lambda-grid: 1.0"),
    (["--functional", "A2", "--lambda-grid", "1:1:3"], "--lambda-grid: 1.0"),
    (["--functional", "A2", "--lambda-grid", "1/3,0.3333333333333333"],
     "--lambda-grid: 0.3333333333333333"),  # equal once they round
], ids=["functional", "mu", "lambda", "lambda-range", "lambda-rounded"])
@pytest.mark.parametrize("command", ["scan", "verify"])
def test_a_repeated_request_value_exits_2_before_any_sampling(capsys, monkeypatch, command,
                                                              argv, message):
    def no_sampling(*args):
        raise AssertionError("sampled a repeated request")
    monkeypatch.setattr(schwarz, "sample_grid_block", no_sampling)
    assert run(capsys, command, *argv, "--samples", "10") == \
        (2, "", f"error: {message} is repeated\n")


@pytest.mark.parametrize("command", ["revert", "membership"])
def test_unnormalized_series_gives_the_normalization_message(capsys, tmp_path, command):
    path = tmp_path / "series.json"
    path.write_text(json.dumps([[0, 1, 0, 1], [2, 1, 0, 1], [1, 1, 0, 1]]))
    lam = ["--lambda", "1/2"] if command == "membership" else []  # revert refuses it here
    code, out, err = run(capsys, command, str(path), *lam)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.endswith("series is not normalized (needs c0 = 0, c1 = 1)\n")


@pytest.mark.parametrize("argv, last_line", [
    (["bounds", "--lambda", "1/2", "--mu", "4e307,4e307"],
     "|A3 - mu A2^2| <= 1.2727922061357855e+308 (mu = 4e307,4e307)"),
    (["coeffs", "--lambda", "1/2", "--mu", "4e307,4e307", "--c1", "1/2"],
     "|A3 - mu A2^2| = 3.1819805153394637e+307, bound 1.2727922061357855e+308, "
     "margin 9.54594154601839e+307 (mu = 4e307,4e307)"),
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
                                  ["coeffs", "--lambda", "1/2", "--mu", "1e308,1e308",
                                   "--c1", "0"]])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_fs_bound_beyond_the_float_range_exits_2(capsys, argv, mode):
    # |1 - mu| is a double, but the bound it gives is inf
    code, out, err = run(capsys, *argv, "--mode", mode)
    assert (code, out) == (2, "")
    assert err == "error: a value is out of the float range: inf or nan in float arithmetic\n"


def test_fekete_szego_warns_outside_class(capsys):
    code, out, err = run(capsys, "coeffs", "--lambda", "1/2", "--mu", "0", "--c1", "5")
    assert code == 0
    assert out.splitlines()[-1] == "|A3 - mu A2^2| = 275/4, bound 11/4, margin -66 (mu = 0)"
    assert err == OUTSIDE_WARNING


def test_corner_jet_gives_no_warning(capsys):
    for argv in (["coeffs", "--lambda", "1/2", "--c1", "1"],
                 ["coeffs", "--lambda", "1/2", "--mu", "0", "--c1", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""


@pytest.mark.parametrize("jet", [("1/3", "1/7", "-1/9"), ("-1/2", "1/5", "1/4"),
                                 ("1", "0", "0")])
@pytest.mark.parametrize("mu", ["1/2", "-3", "2"])
def test_coeffs_mu_prints_each_functional_value(capsys, jet, mu):
    # real jets and mu: each value is the rational |value| of the table entry
    lam = Fraction(2, 7)
    argv = ["coeffs", "--lambda", "2/7", "--c1", jet[0], "--c2", jet[1], "--c3", jet[2],
            "--mu", mu]
    inverse = inverse_coeffs(lam, SchwarzJet(*map(Fraction, jet)))
    rows = []
    for name, f in FUNCTIONALS.items():
        value = f.value(*inverse, Fraction(mu))
        assert value.im == 0
        rows.append((name, f, abs(value.re), functional_bound(name, lam, Fraction(mu))))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[3:] == [f"{f.text} = {v}, bound {b}, margin {b - v}"
                                    + (f" (mu = {mu})" if f.takes_mu else "")
                                    for _, f, v, b in rows]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["functionals"] == {
        name: {"value": float(v), "bound": float(b), "margin": float(b - v)}
        for name, _, v, b in rows}


def test_a_new_table_entry_reaches_every_command(capsys, monkeypatch):
    # |2 A2| <= 2(1+L), added to the table as its text, value and bound alone
    monkeypatch.setitem(FUNCTIONALS, "D2", Functional(
        "|2 A2|", lambda A2, A3, A4, mu: 2 * A2, lambda L, nu: 2 * (1 + L)))
    assert run(capsys, "bounds", "--lambda", "1/2")[1].splitlines()[-1] == "|2 A2| <= 3"
    code, out, _ = run(capsys, "bounds", "--lambda", "1/2", "--format", "json")
    assert json.loads(out)["D2"] == 3.0
    code, out, _ = run(capsys, "coeffs", "--lambda", "1/2", "--c1", "1/2", "--mu", "0")
    assert out.splitlines()[-1] == "|2 A2| = 3/2, bound 3, margin 3/2"
    line = "D2 lambda=0.5 theoretical=3.0 empirical=3.0 gap=0.0"
    code, out, _ = run(capsys, "scan", "--functional", "D2", "--lambda-grid", "1/2",
                       "--samples", "100", "--format", "text")
    assert (code, out) == (0, line + "\n")
    code, out, _ = run(capsys, "verify", "--lambda-grid", "1/2", "--samples", "100")
    assert code == 0
    assert f"{line} OK" in out.splitlines()
    assert "D2 exact proof (L in (0, 1]): OK" in out.splitlines()


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
    code, out, _ = run(capsys, "membership", str(path), "--lambda", "0.5",
                       "--radius", "0.5", "--samples", "32")
    assert code == 0
    assert out.splitlines()[-1] == "verdict vs lambda=0.5: member-at-radius (jet-approximate)"


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


def test_verify_corner_attains_a_bound_near_1e15(capsys):
    # the corner's float value differs from the bound by rounding at the
    # bound's scale: gap -0.25 at L = 0.3 and 0.5 at L = 0.7
    code, out, _ = run(capsys, "verify", "--lambda-grid", "0.1,0.3,0.7", "--functional", "FS",
                       "--mu-grid=-1e15", "--samples", "1")
    assert code == 0
    lines = out.splitlines()
    assert "gap=-0.25 OK" in lines[1] and "gap=0.5 OK" in lines[2]
    assert lines[-1] == "PASS"


# sha256 of the stdout, CSV and JSON of `verify --seed 1` with the default
# config. The corner attains every bound, so they hold while the sample
# stream moves; recorded before the boundary-biased c2 became a ray walk. The
# JSON was recorded again when its config echo and checks lost the attainment
# tolerance and the search's soundness tolerance.
VERIFY_SEED_1_DIGESTS = {
    "stdout": "cdb76dbf4f9c55cc020484ba452af2bfdcd5b4a9070d5dafbc635fd1853c57aa",
    "csv": "cba78f53c4bcd9095e4a2aae4c2931de57af55c421c877953aa0029c94d5f257",
    "json": "05ac785195be6798f1f24c8a88ed6a51a05aee84bb1660ba0f7908a3ae0cb9be",
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
    code, out, _ = run(capsys, "verify", "--lambda-grid", "0.5", "--samples", "500")
    assert code == 0
    assert "lambda=0.5" in out


def test_verify_rejects_zero_samples(capsys):
    code, _, err = run(capsys, "verify", "--samples", "0")
    assert code == 2
    assert err.startswith("error:")


def test_verify_rejects_bad_lambda_config(capsys):
    for option in ("--lambda-grid", "--lambda"):  # argparse reads a unique prefix as the option
        assert run(capsys, "verify", option, "1.5") == (
            2, "", "error: --lambda-grid: lambda must lie in (0, 1], got 1.5\n")


@pytest.mark.parametrize("argv", [["verify"],
                                  ["scan", "--functional", "A2", "--lambda-grid", "0.5"]])
def test_grid_strategy_flag_removed(capsys, argv):
    code, out, err = run(capsys, *argv, "--strategy", "grid")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "grid" in err


def test_verify_exact_proof_lines(capsys):
    code, out, _ = run(capsys, "verify", "--lambda-grid", "1/3", "--samples", "200")
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
        code, out, err = run(capsys, "verify", "--lambda-grid", "1/3", "--samples", "200",
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
    assert payload["checks"] == {"sound": False,
                                 "proofs": {"A2": True, "A3": True, "A4": False, "FS": True}}
    assert payload["passed"] is False


@pytest.mark.parametrize("name, bound, lam", [
    ("A4", lambda L, nu: inverse_weights(L)[3] + Fraction(1, 300), "1/3"),
    ("FS", lambda L, nu: L + nu * (1 + L) ** 2 + Fraction(1, 1000), None),
], ids=["A4", "FS"])
def test_verify_fails_on_a_bound_that_is_not_sharp(capsys, name, bound, lam):
    # the raised bound still holds, so every search line is OK; the corner
    # identity of the exact proof refuses it
    argv = ["verify", "--samples", "200"] + ([] if lam is None else ["--lambda-grid", lam])
    with patched_bound(name, bound):
        code, out, err = run(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert all(line.endswith(" OK") for line in lines if " lambda=" in line)
    proof_lines = [line for line in lines if " exact proof " in line]
    assert [line.split()[0] for line in proof_lines if line.endswith(": FAIL")] == [name]
    assert lines[-1] == "FAIL"
    assert err == "error: bound verification failed (see report)\n"


def test_every_list_of_functionals_is_the_table_in_order(capsys):
    names = list(FUNCTIONALS)
    parser = build_parser()
    for command in ("scan", "verify"):
        sub = parser._subparsers._group_actions[0].choices[command]
        (functional,) = [a for a in sub._actions if a.dest == "functional"]
        assert functional.choices == names
    assert cli._search_request(parser.parse_args(["verify"]))[0] == names  # verify's default
    assert list(exact_proofs()) == names
    code, out, _ = run(capsys, "verify", "--lambda-grid", "1", "--samples", "10")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines() if " exact proof " in line] == names


def test_scan_rejects_a_mu_grid_that_no_functional_takes(capsys, tmp_path):
    for command in ("scan", "verify"):
        code, out, err = run(capsys, command, "--functional", "A2", "--mu-grid", "0.5",
                             "--lambda-grid", "1", "--samples", "10")
        assert (code, out) == (2, "")
        assert err == "error: --mu-grid is given, but no requested functional takes mu\n"
    code, out, _ = run(capsys, "scan", "--functional", "A2", "--functional", "FS",
                       "--mu-grid", "0.5", "--lambda-grid", "1", "--samples", "10")
    assert code == 0 and len(out.splitlines()) == 3
    # verify's default mu grid applies only where a requested functional takes mu,
    # and its JSON echoes the grids it searched
    base = str(tmp_path / "rep")
    code, out, _ = run(capsys, "verify", "--functional", "A2", "--lambda-grid", "1",
                       "--samples", "10", "--out", base)
    assert code == 0 and out.splitlines()[0].startswith("A2 lambda=1.0 ")
    assert json.loads(Path(base + ".json").read_text())["config"] == {
        "functionals": ["A2"], "lambda_grid": [1.0], "mu_grid": [],
        "search": {"samples": 10, "seed": 20250810, "strategy": "boundary-biased"}}


def test_verify_reports_the_lines_scan_prints_for_one_request(capsys):
    request = ["--functional", "FS", "--lambda-grid", "1", "--mu-grid=-1:2:7", "--samples", "3000"]
    code, scanned, _ = run(capsys, "scan", *request, "--format", "text")
    assert code == 0 and len(scanned.splitlines()) == 7
    code, verified, _ = run(capsys, "verify", *request)
    assert code == 0
    assert [line.rsplit(" ", 1)[0] for line in verified.splitlines()[:7]] == scanned.splitlines()


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
    if option == "--lambda-grid" and grid == "1e400:1:3":
        message = "lambda must lie in (0, 1], got 1e400"  # checked before it rounds
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
        [sys.executable, "-m", "coeffforge", "verify", "--lambda-grid", "0.7",
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


_BUSY_SIBLING_PROBE = """
import os, sys, time
from coeffforge import cli, schwarz
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host

class TwoArgs(ValueError):  # pickles, but cannot be rebuilt from its args
    def __init__(self, what, why):
        super().__init__(f"{what} {why}")

def sample(grid, seed, b, strategy):
    if b:
        time.sleep(3600)  # the sibling's blocks
    if sys.argv[1] == "plain":
        raise ValueError("block 0 could not be sampled")
    raise TwoArgs("block 0", "failed")
schwarz.sample_grid_block = sample
sys.exit(cli.main(["verify", "--samples", "50000"]))
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("error, line", [
    ("plain", "error: block 0 could not be sampled\n"),
    ("unpicklable", "error: TwoArgs: block 0 failed\n"),
], ids=["plain", "unpicklable"])
def test_an_error_ends_a_search_whose_sibling_is_still_busy(error, line):
    env = dict(os.environ, COEFFFORGE_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", _BUSY_SIBLING_PROBE, error],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:  # a hung search leaves nothing behind either
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, out, err) == (2, "", line)


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
             ["coeffs", "--lambda", "1/3", "--mu", "2", "--c1", "1"]):
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
                                       "coeffs": False})


# -- cold start: the numpy-free commands import neither dataclasses nor inspect -----

_LIGHT_IMPORT_PROBE = """
import contextlib, io, sys
import coeffforge.cli as cli
heavy = ("dataclasses", "inspect")
cli.build_parser()
seen = {"import": [m for m in heavy if m in sys.modules]}
for argv in (["bounds", "--lambda", "1/2", "--mu", "3/2"],
             ["revert", "f_1/3", "--order", "8", "--mode", "exact"],
             ["coeffs", "--lambda", "1/2", "--c1", "1/2,1/3", "--c2", "1/5"],
             ["coeffs", "--lambda", "1/3", "--mu", "2", "--c1", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[argv[0]] = [m for m in heavy if m in sys.modules]
print(seen)
"""


def test_the_numpy_free_commands_import_neither_dataclasses_nor_inspect():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LIGHT_IMPORT_PROBE],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"import": [], "bounds": [], "revert": [], "coeffs": []})


# -- cold start: only verify and scan load the verifier ------------------------------

_VERIFIER_PROBE = """
import contextlib, io, sys
import coeffforge.cli as cli
cli.build_parser()
seen = {"import": "coeffforge.verifier" in sys.modules}
for argv in (["revert", "f_1/3", "--order", "8"],
             ["bounds", "--lambda", "1/2", "--mu", "3/2"],
             ["coeffs", "--lambda", "1/2", "--c1", "1/2,1/3", "--c2", "1/5"],
             ["coeffs", "--lambda", "1/3", "--mu", "2", "--c1", "1"],
             ["membership", "f_1/2", "--lambda", "1/2", "--samples", "36"],
             ["scan", "--functional", "A2", "--lambda-grid", "1", "--samples", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[argv[0]] = "coeffforge.verifier" in sys.modules
print(seen)
"""


def test_only_the_search_commands_load_the_verifier():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _VERIFIER_PROBE],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"import": False, "revert": False, "bounds": False,
                                       "coeffs": False, "membership": False, "scan": True})


# every name the package exported when it imported each module eagerly
_EXPORTS = ("BoundReport EXACT FLOAT FUNCTIONALS MembershipVerdict QComplex SchwarzJet "
            "SearchConfig TruncatedSeries c2_disks c3_disk class_parameter corner_jet "
            "direct_coeffs exact_proofs extremal_function extremal_inverse "
            "functional_bound inverse_coeffs inverse_coeffs_by_reversion inverse_from_jet "
            "inverse_from_zf inverse_weights is_admissible membership_profile membership_scan "
            "reports_to_csv reports_to_json require_normalized revert scan_lambda "
            "zf_from_schwarz zf_jet").split()

_EXPORT_PROBE = """
import sys
import coeffforge
loaded = sorted(m for m in sys.modules if m.startswith("coeffforge."))
names = sys.argv[1:]
assert sorted(coeffforge.__all__) == sorted(names), coeffforge.__all__
assert set(names) <= set(dir(coeffforge))
from coeffforge import *
values = {name: globals()[name] for name in names}
import coeffforge.schwarz, coeffforge.series, coeffforge.ulambda, coeffforge.verifier
assert coeffforge.SearchConfig is coeffforge.verifier.SearchConfig
assert all(values[name] is getattr(coeffforge, name) for name in names)
try:
    coeffforge.no_such_name
except AttributeError as exc:
    print(loaded, exc)
"""


def test_the_package_resolves_each_export_on_first_access():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _EXPORT_PROBE, *_EXPORTS],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] module 'coeffforge' has no attribute 'no_such_name'\n"


# -- cold start: no search imports a process pool ------------------------------------

_NO_POOL_PROBE = """
import contextlib, io, os, sys
import coeffforge.cli as cli
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
pool = ("concurrent.futures", "multiprocessing")
seen = {"import": [m for m in pool if m in sys.modules]}
for threads in ("1", "2"):
    os.environ["COEFFFORGE_THREADS"] = threads
    with contextlib.redirect_stdout(io.StringIO()):  # three blocks
        assert cli.main(["scan", "--functional", "A2", "--lambda-grid", "0.5,1",
                         "--samples", "20000"]) == 0
    seen["scan " + threads] = [m for m in pool if m in sys.modules]
print(seen)
"""


def test_no_search_imports_a_process_pool():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_PROBE],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"import": [], "scan 1": [], "scan 2": []})


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


# -- the entry point: flush stdout and stderr, then os._exit -------------------------

ENTRY_MODULES = ["coeffforge", "coeffforge.cli"]
ENTRY_CASES = [(["bounds", "--lambda", "1/2"], 0),
               (["membership", "koebe", "--lambda", "1/10", "--radius", "0.9"], 1),
               (["bounds", "--lambda", "2"], 2)]


def _child_env():
    """The tests' package on the path, and PYTHONUNBUFFERED unset: with it set,
    a failed write fails inside main() rather than at the final flush."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _child(module, argv, **streams):
    """Run ``python -m module argv``; its output is captured unless streams are given."""
    return subprocess.run([sys.executable, "-m", module, *argv], env=_child_env(),
                          **(streams or {"capture_output": True}))


@pytest.mark.parametrize("module", ENTRY_MODULES)
@pytest.mark.parametrize("argv, status", ENTRY_CASES, ids=["exit-0", "exit-1", "exit-2"])
def test_each_entry_module_matches_main_in_process(capsys, module, argv, status):
    code, out, err = run(capsys, *argv)
    assert code == status
    proc = _child(module, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("module", ENTRY_MODULES)
@pytest.mark.parametrize("argv", [
    ["bounds", "--lambda", "1/2"],
    ["scan", "--functional", "A2", "--lambda-grid", "0.5", "--samples", "10"],
    ["--help"],
    ["revert", "--help"],
], ids=["print", "emit", "help", "revert-help"])
def test_a_closed_stdout_exits_0(module, argv):
    # the shell closes descriptor 1, so the child's sys.stdout is None; the
    # help it cannot print goes nowhere, not to stderr
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", module,
                           *argv], env=_child_env(), stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_a_stdout_larger_than_a_pipe_buffer_arrives_whole(capsys):
    argv = ["scan", "--functional", "FS", "--lambda-grid", "1", "--mu-grid", "0:1:3000",
            "--samples", "1"]
    code, out, err = run(capsys, *argv)
    proc = _child("coeffforge", argv)
    assert len(proc.stdout) > 200_000
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("argv, suffixes", [
    (["verify", "--samples", "20000", "--seed", "3"], [".csv", ".json"]),
    (["scan", "--functional", "A4", "--functional", "FS", "--lambda-grid", "0.5,1",
      "--mu-grid", "0.5", "--samples", "20000", "--format", "json"], [""]),
    (["membership", "f_1/2", "--lambda", "1/2", "--samples", "720"], [""]),
], ids=["verify", "scan", "membership"])
def test_out_files_of_a_child_match_main_in_process(capsys, tmp_path, argv, suffixes):
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "main"))
    proc = _child("coeffforge", [*argv, "--out", str(tmp_path / "child")])
    assert (proc.returncode, proc.stdout) == (code, out.encode())
    for suffix in suffixes:
        main_bytes = (tmp_path / ("main" + suffix)).read_bytes()
        assert (tmp_path / ("child" + suffix)).read_bytes() == main_bytes and main_bytes


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["bounds", "--lambda", "1/2"],  # buffered until the final flush
    ["scan", "--functional", "FS", "--lambda-grid", "1", "--mu-grid", "0:1:3000",
     "--samples", "1"],  # beyond the buffer: the write fails inside main()
    ["--help"],  # argparse prints the help, and main() returns its status
], ids=["at-the-flush", "inside-main", "help"])
def test_a_failed_stdout_write_exits_2_with_one_error_line(argv):
    # PYTHONUNBUFFERED=1 makes every write fail where it is made; argparse from
    # 3.11 on would drop --help's failed write and exit 0
    for env in (_child_env(), dict(_child_env(), PYTHONUNBUFFERED="1")):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "coeffforge", *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2, (env.get("PYTHONUNBUFFERED"), proc.stderr)
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


class _Stream(io.StringIO):
    """A stdout or stderr that records its flushes, and can fail them."""

    def __init__(self, events, name, fail=False):
        super().__init__()
        self.events, self.name, self.fail = events, name, fail

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.fail:
            raise OSError(28, "No space left on device")


def _cli_entry(monkeypatch, argv, fail=False):
    """cli_entry() with os._exit recorded; returns (events, stdout, stderr)."""
    events = []
    out, err = _Stream(events, "stdout", fail), _Stream(events, "stderr")
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(sys, "argv", ["coeffforge", *argv])

    class Exited(Exception):
        pass

    def _exit(status):
        events.append(f"exit {status}")
        raise Exited
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(Exited):
        cli.cli_entry()
    return events, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, status", [*ENTRY_CASES, (["--help"], 0)],
                         ids=["exit-0", "exit-1", "exit-2", "help"])
def test_cli_entry_flushes_then_exits_with_the_status_of_main(monkeypatch, argv, status):
    events, out, err = _cli_entry(monkeypatch, argv)
    assert events == ["flush stdout", "flush stderr", f"exit {status}"]
    assert (out == "", err.startswith("error:")) == (status == 2, status == 2)


@pytest.mark.parametrize("argv, line", [
    (["bounds", "--lambda", "1/2"],
     "error: cannot write stdout: [Errno 28] No space left on device"),
    (["bounds", "--lambda", "2"], "error: lambda must lie in (0, 1], got 2"),
], ids=["after-success", "after-an-error"])
def test_cli_entry_turns_a_failed_flush_into_one_error_line(monkeypatch, argv, line):
    events, _, err = _cli_entry(monkeypatch, argv, fail=True)
    assert (events[-1], err) == ("exit 2", line + "\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed", "full"])
def test_an_error_exits_2_when_stderr_cannot_take_its_line(redirect, unbuffered):
    # the error line is lost; the status is not, and nothing reaches stdout
    env = dict(_child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                           "coeffforge", "bounds", "--lambda", "2"], env=env,
                          stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed", "full"])
@pytest.mark.parametrize("argv", [["coeffs", "--lambda", "1/2"],
                                  ["coeffs", "--lambda", "1/2", "--mu", "1"]],
                         ids=["coeffs", "fekete-szego"])  # with the Fekete-Szego line
def test_a_warning_stderr_cannot_take_leaves_the_result_alone(tmp_path, argv, redirect,
                                                               unbuffered):
    jet = tmp_path / "jet.json"  # outside the class at lambda 1/2: a warning line
    jet.write_text('{"c1": [0.9, 0], "c2": [0.5, 0], "c3": [0.3, 0]}')
    command = [sys.executable, "-m", "coeffforge", *argv, "--jet", str(jet)]
    env = dict(_child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    shown = subprocess.run(command, env=env, capture_output=True)
    assert (shown.returncode, shown.stderr) == (
        0, b"warning: jet is outside the class for lambda=1/2\n")
    proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *command], env=env,
                          stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (0, shown.stdout)

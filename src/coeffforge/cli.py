"""Command-line interface.

Subcommands: revert | coeffs | bounds | verify | scan | membership |
fekete-szego. Exact mode is the default wherever the quantities are
rational in the class parameter (bounds, coefficients, reversion); search
and membership default to float. Every error path exits nonzero after a
single line starting with ``error:``. COEFFFORGE_THREADS caps the worker
count of the verifier; results do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .scalars import EXACT, FLOAT, MODES, QComplex, as_scalar, class_parameter, is_finite_real
from .series import TruncatedSeries, revert, zf_jet
from .schwarz import STRATEGIES, SchwarzJet, is_admissible
from .ulambda import (direct_coeffs, extremal_function, fekete_szego, fekete_szego_bound,
                      inverse_coeffs, inverse_coeffs_by_reversion, membership_profile,
                      membership_scan, theoretical_bounds)
from .verifier import (ATTAINMENT_TOL, FUNCTIONALS, SearchConfig, a4_global_bound,
                       reports_to_csv, reports_to_json, scan_lambda,
                       sharpness_claimed, verify_gap_inequality)

DEFAULT_VERIFY_CONFIG = {
    "lambda_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
    "functionals": ["A2", "A3", "A4", "FS"],
    "mu_grid": [0.5],
    "search": {},
    "attainment_tol": ATTAINMENT_TOL,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class CliError(ValueError):
    pass


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse {text!r} as a rational number") from exc


def _parse_lambda(text, mode):
    lam = _parse_rational(text)
    if not 0 < lam <= 1:
        raise CliError(f"lambda must lie in (0, 1], got {text}")
    return lam if mode == EXACT else float(lam)


def _parse_complex(text, mode):
    parts = text.split(",")
    if len(parts) > 2:
        raise CliError(f"cannot parse {text!r} as a complex number (use re or re,im)")
    re = _parse_rational(parts[0])
    im = _parse_rational(parts[1]) if len(parts) == 2 else Fraction(0)
    if mode == EXACT:
        return QComplex(re, im)
    return complex(float(re), float(im))


def _parse_grid(text):
    """Comma list ``a,b,c`` or linspace form ``lo:hi:count``."""
    import numpy as np
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise CliError(f"grid range must be lo:hi:count, got {text!r}")
        lo, hi = float(Fraction(pieces[0])), float(Fraction(pieces[1]))
        count = int(pieces[2])
        if count < 1:
            raise CliError("grid count must be >= 1")
        return [float(x) for x in np.linspace(lo, hi, count)]
    return [float(_parse_rational(p)) for p in text.split(",") if p]


def _require_finite(*values):
    """Refuse float results that overflowed to inf or nan; exact values and
    None pass."""
    for value in values:
        if isinstance(value, (float, complex)) and not (
                is_finite_real(value.real) and is_finite_real(value.imag)):
            raise CliError("a result overflows float arithmetic (inf or nan)")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_function_input(name, mode, lam_text):
    """Resolve a serialized-series path or a function alias to (series, L,
    label): (series, None, "series") for a file, (None, L, label) for an
    alias, with L None for the identity and otherwise the parameter of the
    extremal family, typed by mode."""
    if os.path.exists(name):
        try:
            with open(name) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read series file {name}: {exc}") from exc
        return TruncatedSeries.from_json(data), None, "series"
    alias = name.lower()
    if alias == "identity":
        return None, None, "identity"
    if alias == "koebe":
        lam = _parse_lambda("1", mode)
    elif alias == "extremal":
        if lam_text is None:
            raise CliError("the extremal alias needs --lambda")
        lam = _parse_lambda(lam_text, mode)
    elif alias.startswith("f_"):
        lam = _parse_lambda(name[2:], mode)
    else:
        raise CliError(f"unknown function input {name!r} "
                       "(expected identity, koebe, extremal, f_<lambda>, or a series file)")
    class_parameter(lam)  # a rational L can round to float 0
    return None, lam, "koebe" if lam == 1 else f"extremal({lam})"


# -- commands -----------------------------------------------------------------

def cmd_revert(args):
    series, lam, _ = _load_function_input(args.input, args.mode, args.lam)
    if series is None and lam is None:
        series = TruncatedSeries.identity(args.order, args.mode)
    elif series is None:
        series = extremal_function(lam, args.order)
    try:
        inverse = revert(series)
    except ValueError as exc:
        raise CliError(f"input series cannot be reverted: {exc}") from exc
    if args.format == "json":
        print(json.dumps(inverse.to_json()))
    else:
        print(inverse.pretty("w", decimals=True))
    return 0


def cmd_bounds(args):
    mode = args.mode
    lam = _parse_lambda(args.lam, mode)
    bounds = theoretical_bounds(lam)
    fs = None if args.mu is None else fekete_szego_bound(lam, _parse_complex(args.mu, mode))
    _require_finite(fs)
    if args.format == "json":
        payload = {"lambda": float(lam), **{f"B{n}": float(b) for n, b in enumerate(bounds, 2)}}
        if fs is not None:
            payload["FS"] = float(fs)
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"lambda = {_show(lam)}")
    for n, b in enumerate(bounds, 2):
        print(f"|A{n}| <= {_show(b)}")
    if fs is not None:
        print(f"|A3 - mu A2^2| <= {_show(fs)} (mu = {args.mu})")
    return 0


def _show(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QComplex):
        if value.im == 0:
            return str(value.re)
        return f"{value.re}{'+' if value.im > 0 else ''}{value.im}i"
    if isinstance(value, complex):
        if value.imag == 0.0:
            return repr(value.real)
        return repr(value)
    return repr(float(value))


def _jet_from_args(args, mode):
    if args.jet:
        try:
            with open(args.jet) as handle:
                jet = SchwarzJet.from_json(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read jet file {args.jet}: {exc}") from exc
        return jet.as_exact() if mode == EXACT else jet
    if args.c1 is None:
        return None
    c2 = args.c2 if args.c2 is not None else "0"
    c3 = args.c3 if args.c3 is not None else "0"
    return SchwarzJet(_parse_complex(args.c1, mode), _parse_complex(c2, mode),
                      _parse_complex(c3, mode))


def _warn_outside_class(lam, jet):
    """Warn on stderr, exactly for exact jets, if the class excludes the jet."""
    if jet is not None and not is_admissible(lam, jet):
        print(f"warning: jet is outside the class for lambda={_show(lam)}",
              file=sys.stderr)


def cmd_coeffs(args):
    mode = args.mode
    lam = _parse_lambda(args.lam, mode)
    jet = _jet_from_args(args, mode)
    if jet is None:
        raise CliError("coeffs needs a jet: --c1 [--c2 --c3] or --jet FILE")
    direct = direct_coeffs(lam, jet)
    inverse = inverse_coeffs(lam, jet)
    _require_finite(*direct, *inverse)
    _warn_outside_class(lam, jet)
    # The cross-check runs exactly, on the exact value of the (possibly float)
    # jet and lambda, so float rounding cannot make the two routes disagree.
    exact_lam, exact_jet = Fraction(lam), jet.as_exact()
    agree = (inverse_coeffs(exact_lam, exact_jet)
             == inverse_coeffs_by_reversion(exact_lam, exact_jet))
    if args.format == "json":
        def pair(x):
            c = as_scalar(x, FLOAT)
            return [c.real, c.imag]
        print(json.dumps({
            "lambda": float(lam),
            "a": [pair(a) for a in direct],
            "A": [pair(A) for A in inverse],
            "reversion_agrees": bool(agree),
        }, sort_keys=True))
        return 0
    for name, triple in (("a", direct), ("A", inverse)):
        print("   ".join(f"{name}{n} = {_show(c)}" for n, c in enumerate(triple, 2)))
    print(f"reversion cross-check: {'agrees' if agree else 'DISAGREES'}")
    return 0 if agree else 1


def cmd_fekete_szego(args):
    mode = args.mode
    lam = _parse_lambda(args.lam, mode)
    mu = _parse_complex(args.mu, mode)
    jet = _jet_from_args(args, mode)
    # every value before any output, so an overflow leaves stdout empty
    bound = fekete_szego_bound(lam, mu)
    value = None if jet is None else fekete_szego(lam, jet, mu)
    margin = None if jet is None else bound - value
    _require_finite(bound, value, margin)
    _warn_outside_class(lam, jet)
    print(f"bound: {_show(bound)}")
    if jet is not None:
        print(f"value: {_show(value)}")
        print(f"margin: {_show(margin)}")
    return 0


def cmd_membership(args):
    lam = float(_parse_lambda(args.lam, FLOAT))
    series, family, label = _load_function_input(args.input, FLOAT, args.lam)
    if series is not None:
        g = zf_jet(series.to_float())
    else:  # a closed form: z/f is 1 or (1-z)(1-Lz), a polynomial
        g = TruncatedSeries([1] if family is None else [1, -(1 + family), family], FLOAT)
    verdict = membership_scan(g, lam, args.radius, args.samples, label,
                              approximate=series is not None)
    if args.out:
        rows = membership_profile(g, args.radius, args.samples)
        text = "theta,abs_defect\n" + "".join(f"{t!r},{d!r}\n" for t, d in rows)
        _emit(text, args.out)
    if args.format == "json":
        print(json.dumps(verdict.to_json(), sort_keys=True))
    else:
        print(f"function: {verdict.label}")
        print(f"max |defect| on |z|={verdict.radius}: {verdict.max_defect!r} "
              f"at theta={verdict.argmax_theta!r} (sample {verdict.argmax_index})")
        label = "member-at-radius" if verdict.member_at_radius else "fails-at-radius"
        if verdict.approximate:
            label += " (jet-approximate)"
        print(f"verdict vs lambda={lam!r}: {label}")
    return 0 if verdict.member_at_radius else 1


def _load_verify_config(args):
    config = json.loads(json.dumps(DEFAULT_VERIFY_CONFIG))  # deep copy
    if args.config:
        try:
            with open(args.config) as handle:
                user = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(user, dict):
            raise CliError("config must be a JSON object")
        unknown = set(user) - set(DEFAULT_VERIFY_CONFIG)
        if unknown:
            raise CliError(f"unknown config fields: {sorted(unknown)}")
        config.update(user)
    if args.lam is not None:
        config["lambda_grid"] = [float(_parse_lambda(args.lam, FLOAT))]
    for name in ("lambda_grid", "mu_grid"):
        if not (isinstance(config[name], list) and all(map(is_finite_real, config[name]))):
            raise CliError(f"{name} must be a list of real numbers")
    names = config["functionals"]
    if not (isinstance(names, list) and names and all(isinstance(f, str) for f in names)):
        raise CliError("functionals must be a nonempty list of strings")
    if not is_finite_real(config["attainment_tol"]):
        raise CliError("attainment_tol must be a real number")
    if not isinstance(config["search"], dict):
        raise CliError("search must be a JSON object")
    config["search"] = _search_config(config["search"], args)
    return config


def _search_config(search, args):
    """SearchConfig from a config's ``search`` object and the command-line
    overrides --samples, --seed and --strategy."""
    search = dict(search)
    for name in ("samples", "seed", "strategy"):
        if getattr(args, name) is not None:
            search[name] = getattr(args, name)
    try:
        return SearchConfig.from_json(search)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid search config: {exc}") from exc


def cmd_verify(args):
    config = _load_verify_config(args)
    search = config["search"]
    reports = scan_lambda(config["functionals"], config["lambda_grid"],
                          config["mu_grid"], search)
    tol = search.tolerance
    attain_tol = float(config["attainment_tol"])

    sound = True
    attained = True
    for report in reports:
        ok_sound = report.sound(tol)
        ok_attained = (not sharpness_claimed(report)) or report.gap <= attain_tol
        sound &= ok_sound
        attained &= ok_attained
        status = "OK" if ok_sound and ok_attained else "VIOLATION" if not ok_sound else "NOT-ATTAINED"
        print(f"{report.text_line()} {status}")

    gap_ok = verify_gap_inequality()
    print(f"gap-inequality (exact, L in (0, 1]): {'OK' if gap_ok else 'FAIL'}")

    h_ok = all(a4_global_bound(lam) == theoretical_bounds(Fraction(lam))[2]
               for lam in config["lambda_grid"])
    print(f"h-reduction agreement: {'OK' if h_ok else 'FAIL'}")

    passed = sound and attained and gap_ok and h_ok
    extra = {
        "config": {
            "lambda_grid": [float(x) for x in config["lambda_grid"]],
            "functionals": list(config["functionals"]),
            "mu_grid": [float(m) for m in config["mu_grid"]],
            "search": search.to_json(),
            "attainment_tol": attain_tol,
        },
        "checks": {"sound": sound, "attained": attained,
                   "gap_inequality": gap_ok, "h_reduction": h_ok},
        "passed": passed,
    }
    if args.out:
        with open(args.out + ".csv", "w") as handle:
            handle.write(reports_to_csv(reports))
        with open(args.out + ".json", "w") as handle:
            handle.write(reports_to_json(reports, extra))
    print("PASS" if passed else "FAIL")
    if not passed:
        print("error: bound verification failed (see report)", file=sys.stderr)
        return 1
    return 0


def cmd_scan(args):
    if not args.functional:
        raise CliError("scan needs at least one --functional")
    lambda_grid = _parse_grid(args.lambda_grid)
    mu_grid = _parse_grid(args.mu_grid) if args.mu_grid else None
    search = _search_config({}, args)
    reports = scan_lambda(args.functional, lambda_grid, mu_grid, search)
    if args.format == "json":
        _emit(reports_to_json(reports), args.out)
    elif args.format == "csv":
        _emit(reports_to_csv(reports), args.out)
    else:
        _emit("".join(r.text_line() + "\n" for r in reports), args.out)
    return 0


# -- entry point --------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="coeffforge",
                     description="Series reversion, coefficient formulas, and "
                                 "sharp-bound verification for a one-parameter "
                                 "class of disk functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p, default):
        p.add_argument("--mode", choices=list(MODES), default=default)

    p = sub.add_parser("revert", help="print the compositional inverse jet")
    p.add_argument("input", help="identity | koebe | extremal | f_<lambda> | series.json")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--lambda", dest="lam", default=None)
    add_mode(p, EXACT)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_revert)

    p = sub.add_parser("coeffs", help="direct and inverse coefficients of a jet")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--c1")
    p.add_argument("--c2")
    p.add_argument("--c3")
    p.add_argument("--jet", help="jet JSON file")
    add_mode(p, EXACT)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("bounds", help="sharp theoretical bounds")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default=None)
    add_mode(p, EXACT)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fekete-szego", help="Fekete-Szego bound and values")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--c1")
    p.add_argument("--c2")
    p.add_argument("--c3")
    p.add_argument("--jet")
    add_mode(p, EXACT)
    p.set_defaults(func=cmd_fekete_szego)

    p = sub.add_parser("verify", help="empirical verification of the bounds")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="restrict to a single lambda")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategy", choices=list(STRATEGIES), default=None)
    p.add_argument("--out", help="base path for report artifacts (.csv/.json)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="bound reports over parameter grids")
    p.add_argument("--functional", action="append", choices=list(FUNCTIONALS),
                   help="repeatable")
    p.add_argument("--lambda-grid", dest="lambda_grid", required=True,
                   help="comma list or lo:hi:count")
    p.add_argument("--mu-grid", dest="mu_grid", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategy", choices=list(STRATEGIES), default=None)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("membership", help="sample the defect on a circle")
    p.add_argument("input", help="identity | koebe | extremal | f_<lambda> | series.json")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--radius", type=float, default=0.9)
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--out", help="write (theta, |defect|) CSV profile")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_membership)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a rational input beyond the float range
        print(f"error: a value is out of the float range: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:  # numpy, for the sampling subcommands
        print(f"error: this subcommand needs {exc.name}, which is not installed",
              file=sys.stderr)
        return 2


def cli_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

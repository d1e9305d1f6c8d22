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

import numpy as np

from .scalars import EXACT, FLOAT, MODES, QComplex
from .series import TruncatedSeries, revert
from .schwarz import STRATEGIES, SchwarzJet
from .ulambda import (ClosedForm, ULambdaParams, direct_coeffs, fekete_szego,
                      fekete_szego_bound, inverse_coeffs,
                      inverse_coeffs_by_reversion, membership_profile,
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


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_function_input(name, mode, lam_text):
    """Resolve a function alias or a serialized-series path."""
    if os.path.exists(name):
        try:
            with open(name) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read series file {name}: {exc}") from exc
        return TruncatedSeries.from_json(data), None
    alias = name.lower()
    if alias == "identity":
        return None, ClosedForm.identity(mode)
    if alias == "koebe":
        return None, ClosedForm.koebe(mode)
    if alias == "extremal":
        if lam_text is None:
            raise CliError("the extremal alias needs --lambda")
        return None, ClosedForm.extremal(_parse_lambda(lam_text, mode), mode)
    if alias.startswith("f_"):
        return None, ClosedForm.extremal(_parse_lambda(name[2:], mode), mode)
    raise CliError(f"unknown function input {name!r} "
                   "(expected identity, koebe, extremal, f_<lambda>, or a series file)")


# -- commands -----------------------------------------------------------------

def cmd_revert(args):
    series, closed = _load_function_input(args.input, args.mode, args.lam)
    if closed is not None:
        series = closed.f_series(args.order)
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
    params = ULambdaParams(lam, mode)
    bounds = theoretical_bounds(params)
    fs = None if args.mu is None else fekete_szego_bound(params, _parse_complex(args.mu, mode))
    if args.format == "json":
        payload = {"lambda": float(lam), "B2": float(bounds.b2),
                   "B3": float(bounds.b3), "B4": float(bounds.b4)}
        if fs is not None:
            payload["FS"] = float(fs)
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"lambda = {_show(lam)}")
    print(f"|A2| <= {_show(bounds.b2)}")
    print(f"|A3| <= {_show(bounds.b3)}")
    print(f"|A4| <= {_show(bounds.b4)}")
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


def cmd_coeffs(args):
    mode = args.mode
    lam = _parse_lambda(args.lam, mode)
    params = ULambdaParams(lam, mode)
    jet = _jet_from_args(args, mode)
    if jet is None:
        raise CliError("coeffs needs a jet: --c1 [--c2 --c3] or --jet FILE")
    direct = direct_coeffs(params, jet)
    inverse = inverse_coeffs(params, jet)
    reverted = inverse_coeffs_by_reversion(params, jet)
    agree = (inverse.A2 == reverted.A2 and inverse.A3 == reverted.A3
             and inverse.A4 == reverted.A4)
    if args.format == "json":
        def pair(x):
            c = complex(x.to_complex()) if isinstance(x, QComplex) else complex(x)
            return [c.real, c.imag]
        print(json.dumps({
            "lambda": float(lam),
            "a": [pair(direct.a2), pair(direct.a3), pair(direct.a4)],
            "A": [pair(inverse.A2), pair(inverse.A3), pair(inverse.A4)],
            "reversion_agrees": bool(agree),
        }, sort_keys=True))
        return 0
    print(f"a2 = {_show(direct.a2)}   a3 = {_show(direct.a3)}   a4 = {_show(direct.a4)}")
    print(f"A2 = {_show(inverse.A2)}   A3 = {_show(inverse.A3)}   A4 = {_show(inverse.A4)}")
    print(f"reversion cross-check: {'agrees' if agree else 'DISAGREES'}")
    return 0 if agree else 1


def cmd_fekete_szego(args):
    mode = args.mode
    lam = _parse_lambda(args.lam, mode)
    params = ULambdaParams(lam, mode)
    mu = _parse_complex(args.mu, mode)
    jet = _jet_from_args(args, mode)
    bound = fekete_szego_bound(params, mu)
    print(f"bound: {_show(bound)}")
    if jet is not None:
        value = fekete_szego(params, jet, mu)
        print(f"value: {_show(value)}")
        print(f"margin: {_show(bound - value)}")
    return 0


def cmd_membership(args):
    lam = float(_parse_lambda(args.lam, FLOAT))
    series, closed = _load_function_input(args.input, FLOAT, args.lam)
    target = closed if closed is not None else series
    if target is series and series is not None and series.mode == EXACT:
        target = series.to_float()
    try:
        verdict = membership_scan(target, lam, args.radius, args.samples)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        rows = membership_profile(target, lam, args.radius, args.samples)
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
        unknown = set(user) - set(DEFAULT_VERIFY_CONFIG)
        if unknown:
            raise CliError(f"unknown config fields: {sorted(unknown)}")
        config.update(user)
    if args.lam is not None:
        config["lambda_grid"] = [float(_parse_lambda(args.lam, FLOAT))]
    config["search"] = _search_config(config["search"], args)
    grid = config["lambda_grid"]
    if not grid or not all(0 < float(x) <= 1 for x in grid):
        raise CliError("lambda_grid values must lie in (0, 1]")
    if not config["functionals"]:
        raise CliError("functionals must be a nonempty list")
    for name in config["functionals"]:
        if name not in FUNCTIONALS:
            raise CliError(f"unknown functional {name!r}")
    if "FS" in config["functionals"] and not config["mu_grid"]:
        raise CliError("FS verification needs a nonempty mu_grid")
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
        mu_text = "" if report.mu is None else f" mu={report.mu}"
        print(f"{report.functional} lambda={report.lam!r}{mu_text} "
              f"theoretical={report.theoretical!r} empirical={report.empirical_max!r} "
              f"gap={report.gap!r} {status}")

    gap_ok = verify_gap_inequality()
    print(f"gap-inequality (exact, L in (0, 1]): {'OK' if gap_ok else 'FAIL'}")

    h_ok = all(a4_global_bound(lam) == theoretical_bounds(ULambdaParams(lam)).b4
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
    try:
        reports = scan_lambda(args.functional, lambda_grid, mu_grid, search)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.format == "json":
        _emit(reports_to_json(reports), args.out)
    elif args.format == "csv":
        _emit(reports_to_csv(reports), args.out)
    else:
        lines = []
        for r in reports:
            mu_text = "" if r.mu is None else f" mu={r.mu}"
            lines.append(f"{r.functional} lambda={r.lam!r}{mu_text} "
                         f"theoretical={r.theoretical!r} empirical={r.empirical_max!r} "
                         f"gap={r.gap!r}")
        _emit("\n".join(lines) + "\n", args.out)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

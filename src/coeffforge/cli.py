"""Command-line interface.

Subcommands: revert | coeffs | bounds | verify | scan | membership |
fekete-szego. bounds, coeffs, fekete-szego and revert compute exactly,
but a float series file reverts in float; their --mode prints exact values
or the nearest double of each (float). Search and membership compute in
float. Every error path, a result beyond the float range included, exits
nonzero after one line starting with ``error:`` and prints nothing on
stdout: verify writes its --out artifacts before its first line.
COEFFFORGE_THREADS caps the verifier's worker processes, which never
outnumber the CPUs the process may use; results do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction

from .scalars import EXACT, FLOAT, MODES, QComplex, as_scalar, is_finite_real
from .series import TruncatedSeries, revert, zf_jet
from .schwarz import STRATEGIES, SchwarzJet, is_admissible
from .ulambda import (FUNCTIONALS, direct_coeffs, extremal_function, extremal_inverse,
                      fekete_szego, functional_bound, inverse_coeffs,
                      inverse_coeffs_by_reversion, membership_profile, membership_scan,
                      zf_from_schwarz)
from .verifier import (ATTAINMENT_TOL, SearchConfig, exact_proofs, reports_to_csv,
                       reports_to_json, scan_lambda)

DEFAULT_VERIFY_CONFIG = {
    "lambda_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
    "functionals": list(FUNCTIONALS),
    "mu_grid": [0.5],
    "search": {},
    "attainment_tol": ATTAINMENT_TOL,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # each long word, an echoed argument, by _cut's rule
        raise CliError(re.sub(r"\S{41,}", lambda word: _cut(word[0]), message))


class CliError(ValueError):
    pass


def _cut(text):
    """An argument as an error line echoes it: a long one by a short prefix."""
    return text if len(text) <= 40 else text[:40] + "..."


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if 0 < limit < max(map(len, re.findall(r"\d+", text)), default=0):
            raise CliError(f"a rational argument has more than {limit} digits in a row, "
                           "more than this interpreter parses") from exc
        raise CliError(f"cannot parse {_cut(text)!r} as a rational number") from exc


def _parse_lambda(text):
    lam = _parse_rational(text)
    if not 0 < lam <= 1:
        raise CliError(f"lambda must lie in (0, 1], got {_cut(text)}")
    return lam


def _float(q, name):
    """The nearest double of the rational q (called name), which is 0 only if q is."""
    if q and not float(q):
        raise CliError(f"{name} underflows float arithmetic: it rounds to 0")
    return float(q)


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) > 2:
        raise CliError(f"cannot parse {_cut(text)!r} as a complex number (use re or re,im)")
    re = _parse_rational(parts[0])
    im = _parse_rational(parts[1]) if len(parts) == 2 else Fraction(0)
    return QComplex(re, im)


def _parse_grid(text, name):
    """Comma list ``a,b,c`` or linspace form ``lo:hi:count`` of the option
    name, as floats; every error names the option."""
    import numpy as np
    pieces = text.split(":")
    try:
        if len(pieces) == 1:
            return [_float(_parse_rational(p), _cut(p)) for p in text.split(",") if p]
        if len(pieces) != 3:
            raise CliError(f"grid range must be lo:hi:count, got {_cut(text)!r}")
        lo, hi, count = map(_parse_rational, pieces)
        if count.denominator != 1 or count < 1:
            raise CliError(f"grid count must be a positive integer, got {_cut(pieces[2])!r}")
        lo, hi = _float(lo, _cut(pieces[0])), _float(hi, _cut(pieces[1]))
        if count <= sys.maxsize:  # numpy misreads a larger count
            with suppress(MemoryError, ValueError):
                return [float(x) for x in np.linspace(lo, hi, int(count))]
        raise CliError("the grid has too many points to allocate")
    except CliError as exc:
        raise CliError(f"{name}: {exc}") from exc
    except OverflowError as exc:
        raise CliError(f"{name}: a value is out of the float range") from exc


def _printed(mode, *values):
    """The results as they print: exact values as they are, or in float mode
    the nearest complex double of each. Raises OverflowError for a value
    beyond the float range and for a float result, in either mode, that is
    inf or nan."""
    if mode == FLOAT:
        values = [as_scalar(v, FLOAT) for v in values]
    if not all(is_finite_real(v.real) and is_finite_real(v.imag)
               for v in values if isinstance(v, (float, complex))):
        raise OverflowError("inf or nan in float arithmetic")
    return values


@contextmanager
def _exact_text():
    """Name the cause when str() refuses an integer beyond the interpreter's
    digit limit, which stays in place because it guards parsing."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"an exact value has an integer part of more than "
                       f"{sys.get_int_max_str_digits()} digits, more than this interpreter "
                       "prints; use --mode float") from exc


def _json_int(text):
    try:
        return int(text)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise CliError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


def _read_json(path, what):
    """The JSON document in the file at path, or a CliError that names it."""
    try:
        with open(path) as handle:
            return json.load(handle, parse_int=_json_int)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, CliError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_function_input(name, lam_text):
    """Resolve a serialized-series path or a function alias to (series, L):
    (series, None) for a file, (None, L) for an alias, with L None for the
    identity and otherwise the exact parameter of the extremal family."""
    if os.path.exists(name):
        return TruncatedSeries.from_json(_read_json(name, "series file")), None
    alias = name.lower()
    if alias == "identity":
        return None, None
    if alias == "koebe":
        return None, Fraction(1)
    if alias == "extremal":
        if lam_text is None:
            raise CliError("the extremal alias needs --lambda")
        return None, _parse_lambda(lam_text)
    if alias.startswith("f_"):
        return None, _parse_lambda(name[2:])
    raise CliError(f"unknown function input {_cut(name)!r} "
                   "(expected identity, koebe, extremal, f_<lambda>, or a series file)")


# -- commands -----------------------------------------------------------------

def cmd_revert(args):
    series, lam = _load_function_input(args.input, args.lam)
    if lam is not None and args.mode == FLOAT:
        # the nearest doubles of the same values, by the closed form: cheap
        # where the exact reversion of the extremal jet takes seconds
        inverse = extremal_inverse(lam, args.order, FLOAT)
    else:
        if series is None:
            series = (TruncatedSeries.identity(args.order, EXACT) if lam is None
                      else extremal_function(lam, args.order))
        try:
            inverse = revert(series)
        except ValueError as exc:
            raise CliError(f"input series cannot be reverted: {exc}") from exc
    if args.mode == FLOAT or inverse.mode == FLOAT:  # a float series file reverts in float
        inverse = TruncatedSeries(_printed(FLOAT, *inverse.coeffs), FLOAT)
    with _exact_text():
        text = json.dumps(inverse.to_json()) if args.format == "json" else inverse.pretty()
    print(text)
    return 0


def cmd_bounds(args):
    lam = _parse_lambda(args.lam)
    values = [lam, *(functional_bound(name, lam) for name in ("A2", "A3", "A4"))]
    if args.mu is not None:
        values.append(functional_bound("FS", lam, _parse_complex(args.mu)))
    if args.format == "json":
        names = ("lambda", "B2", "B3", "B4", "FS")
        doubles = _printed(FLOAT, *values)
        print(json.dumps({k: v.real for k, v in zip(names, doubles)}, sort_keys=True))
        return 0
    lam, *bounds = _printed(args.mode, *values)
    lines = [f"lambda = {_show(lam)}"] + [f"|A{n}| <= {_show(b)}"
                                          for n, b in enumerate(bounds[:3], 2)]
    if args.mu is not None:
        lines.append(f"|A3 - mu A2^2| <= {_show(bounds[3])} (mu = {args.mu})")
    print("\n".join(lines))
    return 0


def _show(value):
    """Text of a printed result: a rational exactly, a double by its repr."""
    with _exact_text():
        if isinstance(value, QComplex):
            if value.im == 0:
                return str(value.re)
            return f"{value.re}{'+' if value.im > 0 else ''}{value.im}i"
        if isinstance(value, complex) and value.imag == 0:
            value = value.real
        return str(value) if isinstance(value, Fraction) else repr(value)


def _jet_from_args(args):
    if args.jet:
        return SchwarzJet.from_json(_read_json(args.jet, "jet file")).as_exact()
    if args.c1 is None:
        return None
    return SchwarzJet(*map(_parse_complex, (args.c1, args.c2, args.c3)))


def _warn_outside_class(lam, jet, shown_lam):
    """Warn on stderr if the class excludes the jet; name L as it prints."""
    if jet is not None and not is_admissible(lam, jet):
        print(f"warning: jet is outside the class for lambda={_show(shown_lam)}",
              file=sys.stderr)


def cmd_coeffs(args):
    lam = _parse_lambda(args.lam)
    jet = _jet_from_args(args)
    if jet is None:
        raise CliError("coeffs needs a jet: --c1 [--c2 --c3] or --jet FILE")
    inverse = inverse_coeffs(lam, jet)
    agree = inverse == inverse_coeffs_by_reversion(lam, jet)
    values = (lam, *direct_coeffs(lam, jet), *inverse)
    shown_lam, *shown = _printed(args.mode, *values)
    _warn_outside_class(lam, jet, shown_lam)
    if args.format == "json":  # doubles in either mode
        pairs = [[c.real, c.imag] for c in _printed(FLOAT, *values)]
        print(json.dumps({"lambda": pairs[0][0], "a": pairs[1:4], "A": pairs[4:],
                          "reversion_agrees": agree}, sort_keys=True))
        return 0
    print("\n".join(["   ".join(f"{name}{n} = {_show(c)}" for n, c in enumerate(triple, 2))
                     for name, triple in (("a", shown[:3]), ("A", shown[3:]))]))
    print(f"reversion cross-check: {'agrees' if agree else 'DISAGREES'}")
    return 0 if agree else 1


def cmd_fekete_szego(args):
    lam = _parse_lambda(args.lam)
    mu = _parse_complex(args.mu)
    jet = _jet_from_args(args)
    values = [lam, functional_bound("FS", lam, mu)]
    if jet is not None:
        value = fekete_szego(lam, jet, mu)
        values += [value, values[1] - value]
    shown_lam, *shown = _printed(args.mode, *values)
    _warn_outside_class(lam, jet, shown_lam)
    print("\n".join(f"{name}: {_show(v)}" for name, v in zip(("bound", "value", "margin"), shown)))
    return 0


def cmd_membership(args):
    lam = _float(_parse_lambda(args.lam), "lambda")
    series, family = _load_function_input(args.input, args.lam)
    if series is not None:
        g, label = zf_jet(series.to_float()), "series"
    elif family is None:  # a closed form: z/f is 1 or the polynomial (1-z)(1-Lz)
        g, label = TruncatedSeries([1], FLOAT), "identity"
    else:  # w = z to order 2, or the product drops L z^2
        family = _float(family, "lambda")
        g = zf_from_schwarz(family, TruncatedSeries([0, 1, 0], FLOAT))
        label = "koebe" if family == 1 else f"extremal({family})"
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
        user = _read_json(args.config, "config")
        if not isinstance(user, dict):
            raise CliError("config must be a JSON object")
        unknown = set(user) - set(DEFAULT_VERIFY_CONFIG)
        if unknown:
            raise CliError(f"unknown config fields: {sorted(unknown)}")
        config.update(user)
    if args.lam is not None:
        config["lambda_grid"] = [_float(_parse_lambda(args.lam), "lambda")]
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
    attain_tol = float(config["attainment_tol"])
    lines, sound, attained = [], True, True
    for report in reports:
        ok_sound, ok_attained = report.sound(search.tolerance), report.attained(attain_tol)
        sound &= ok_sound
        attained &= ok_attained
        status = "OK" if ok_sound and ok_attained else "VIOLATION" if not ok_sound else "NOT-ATTAINED"
        lines.append(f"{report.text_line()} {status}")

    proofs = exact_proofs()
    for name, proved in proofs.items():
        scope = "L in (0, 1], every mu" if FUNCTIONALS[name].takes_mu else "L in (0, 1]"
        lines.append(f"{name} exact proof ({scope}): {'OK' if proved else 'FAIL'}")

    passed = sound and attained and all(proofs.values())
    extra = {
        "config": {
            "lambda_grid": [float(x) for x in config["lambda_grid"]],
            "functionals": list(config["functionals"]),
            "mu_grid": [float(m) for m in config["mu_grid"]],
            "search": search.to_json(),
            "attainment_tol": attain_tol,
        },
        "checks": {"sound": sound, "attained": attained, "proofs": proofs},
        "passed": passed,
    }
    if args.out:  # before any stdout, so a path that cannot be written prints nothing
        with open(args.out + ".csv", "w") as handle:
            handle.write(reports_to_csv(reports))
        with open(args.out + ".json", "w") as handle:
            handle.write(reports_to_json(reports, extra))
    print("\n".join([*lines, "PASS" if passed else "FAIL"]))
    if not passed:
        print("error: bound verification failed (see report)", file=sys.stderr)
        return 1
    return 0


def cmd_scan(args):
    if not args.functional:
        raise CliError("scan needs at least one --functional")
    if args.mu_grid is not None and not any(FUNCTIONALS[f].takes_mu for f in args.functional):
        raise CliError("--mu-grid is given, but no requested functional takes mu")
    lambda_grid = _parse_grid(args.lambda_grid, "--lambda-grid")
    mu_grid = _parse_grid(args.mu_grid, "--mu-grid") if args.mu_grid else None
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

    def add_mode(p):
        p.add_argument("--mode", choices=list(MODES), default=EXACT,
                       help="print exact values, or the nearest double of each (float); "
                            "both compute exactly, but a float series file reverts in float")

    p = sub.add_parser("revert", help="print the compositional inverse jet")
    p.add_argument("input", help="identity | koebe | extremal | f_<lambda> | series.json")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--lambda", dest="lam", default=None)
    add_mode(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_revert)

    p = sub.add_parser("coeffs", help="direct and inverse coefficients of a jet")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--c1")
    p.add_argument("--c2", default="0")
    p.add_argument("--c3", default="0")
    p.add_argument("--jet", help="jet JSON file")
    add_mode(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("bounds", help="sharp theoretical bounds")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default=None)
    add_mode(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fekete-szego", help="Fekete-Szego bound and values")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--c1")
    p.add_argument("--c2", default="0")
    p.add_argument("--c3", default="0")
    p.add_argument("--jet")
    add_mode(p)
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

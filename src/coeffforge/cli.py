"""Command-line interface.

Subcommands: revert | coeffs | bounds | verify | scan | membership.
bounds, coeffs and revert compute exactly, but a float series file reverts
in float; --mode prints exact values (revert's text too) or the nearest
double of each. Search and membership compute in float. bounds, coeffs
--mu, verify and scan report every entry of ulambda.FUNCTIONALS; verify and
scan take one search request, by the same flags, and verify defaults each
part of it and adds the exact proofs and a verdict. Each command loads
scalars, series, schwarz and ulambda; membership adds numpy, and only
verify and scan load the verifier (when they run) and numpy. Every
error path, a result beyond the float range included, exits nonzero after
one line starting with ``error:`` and prints nothing on stdout: verify
writes its --out artifacts before its first line.
COEFFFORGE_THREADS caps the verifier's worker processes, which never
outnumber the CPUs the process may use; results do not depend on it.
main() only returns a status, --help's too. cli_entry(), the one entry point,
flushes stdout and stderr and ends by os._exit, skipping interpreter teardown
(6-18 ms a run on 2 vCPUs): every file main() writes is closed, every worker
reaped. A closed or full stderr drops an error line, not the status 2, and a
warning line, not the result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from fractions import Fraction

from .scalars import EXACT, FLOAT, MODES, QComplex, as_scalar, is_finite_real, maybe_exact_abs
from .series import TruncatedSeries, imag_text, revert, zf_jet
from .schwarz import STRATEGIES, SchwarzJet, SearchConfig, is_admissible
from .ulambda import (FUNCTIONALS, direct_coeffs, extremal_function, extremal_inverse,
                      functional_bound, inverse_coeffs, inverse_coeffs_by_reversion,
                      membership_profile, membership_scan, zf_from_schwarz)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1/2, -1:2:7 and -.5 are values, as -1 and -0.5 are; no option starts so
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # each long word, an echoed argument, by _cut's rule
        raise CliError(re.sub(r"\S{41,}", lambda word: _cut(word[0]), message))

    def _print_message(self, message, file=None):
        # argparse drops a failed write from 3.11 on; main() reports it, as on 3.10
        if message and file is not None:  # None where the stream is closed
            file.write(message)


class CliError(ValueError):
    pass


def _cut(text):
    """An argument as an error line echoes it: a long one by a short prefix."""
    return text if len(text) <= 40 else text[:40] + "..."


def _stderr_line(line):
    """Write a line on stderr if it takes it: a closed or full stderr drops it."""
    if sys.stderr is not None:  # None where stderr is closed (2>&-)
        with suppress(OSError):
            sys.stderr.write(line + "\n")


def _error(message):
    """Write ``error: message`` on stderr if it takes the line; return 2."""
    _stderr_line(f"error: {message}")
    return 2


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


def _parse_grid(text, name, parse=_parse_rational):
    """Comma list ``a,b,c`` or linspace form ``lo:hi:count`` of the option
    name, as floats; parse reads each point, and lo and hi of a range, before
    it rounds. Every error names the option."""
    import numpy as np
    pieces = text.split(":")
    try:
        if len(pieces) == 1:
            return [_float(parse(p), _cut(p)) for p in text.split(",") if p]
        if len(pieces) != 3:
            raise CliError(f"grid range must be lo:hi:count, got {_cut(text)!r}")
        lo, hi = map(parse, pieces[:2])
        count = _parse_rational(pieces[2])
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
        print(text, end="")  # a no-op where stdout is closed (>&-), as for every print


def _load_function_input(name):
    """Resolve a serialized-series path or a function alias to (series, L):
    (series, None) for a file, (None, L) for an alias, with L None for the
    identity and otherwise the exact L of the extremal f_L (koebe is f_1)."""
    if os.path.exists(name):
        return TruncatedSeries.from_json(_read_json(name, "series file")), None
    alias = name.lower()
    if alias == "identity":
        return None, None
    if alias == "koebe":
        return None, Fraction(1)
    if alias.startswith("f_"):
        return None, _parse_lambda(name[2:])
    raise CliError(f"unknown function input {_cut(name)!r} "
                   "(expected identity | koebe | f_<lambda> | series.json)")


# -- commands -----------------------------------------------------------------

def cmd_revert(args):
    if args.order is not None and args.order < 1:  # before the input is read, for every input
        raise CliError(f"--order must be at least 1, got {args.order}")
    series, lam = _load_function_input(args.input)
    if series is not None and args.order is not None:
        raise CliError("--order applies to an alias only: a series file fixes its own order")
    order = args.order or 4
    if lam is not None and args.mode == FLOAT:
        # the nearest doubles of the same values, by the closed form: cheap
        # where the exact reversion of the extremal jet takes seconds
        inverse = extremal_inverse(lam, order, FLOAT)
    else:
        if series is None:
            series = (TruncatedSeries.identity(order, EXACT) if lam is None
                      else extremal_function(lam, order))
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


def _table(lam, mu_text, inverse=None):
    """(rows, values) of the table entries, one that takes mu only with
    mu_text: a row is (name, text, mu note), and values hold each bound, or
    at the inverse coefficients (A2, A3, A4) each value, bound and margin."""
    mu = None if mu_text is None else _parse_complex(mu_text)
    rows, values = [], []
    for name, f in FUNCTIONALS.items():
        if mu is not None or not f.takes_mu:
            rows.append((name, f.text, f" (mu = {mu_text})" if f.takes_mu else ""))
            bound = functional_bound(name, lam, mu)
            if inverse is None:
                values.append(bound)
            else:
                value = maybe_exact_abs(f.value(*inverse, mu))
                values += [value, bound, bound - value]
    return rows, values


def cmd_bounds(args):
    lam = _parse_lambda(args.lam)
    rows, bounds = _table(lam, args.mu)
    values = [lam, *bounds]
    if args.format == "json":
        names = ["lambda", *(name for name, _, _ in rows)]
        doubles = _printed(FLOAT, *values)
        print(json.dumps({k: v.real for k, v in zip(names, doubles)}, sort_keys=True))
        return 0
    lam, *bounds = _printed(args.mode, *values)
    print("\n".join([f"lambda = {_show(lam)}", *(f"{text} <= {_show(b)}{note}"
                                                 for (_, text, note), b in zip(rows, bounds))]))
    return 0


def _show(value):
    """Text of a printed result: a rational exactly, a double by its repr."""
    with _exact_text():
        if isinstance(value, QComplex):
            if value.im == 0:
                return str(value.re)
            return f"{value.re}{imag_text(value.im)}"
        if isinstance(value, complex) and value.imag == 0:
            value = value.real
        return str(value) if isinstance(value, Fraction) else repr(value)


def _jet_from_args(args):
    """The jet of --jet FILE or of --c1 [--c2 --c3], whose missing parts are 0;
    neither, --jet with a --cN, or --c2 or --c3 alone, is an error."""
    parts = (args.c1, args.c2, args.c3)
    given = [f"--c{n}" for n, part in enumerate(parts, 1) if part is not None]
    if args.jet is not None:
        if given:
            raise CliError(f"--jet and {given[0]} exclude each other")
        return SchwarzJet.from_json(_read_json(args.jet, "jet file"))
    if args.c1 is None:
        raise CliError(f"{given[0]} needs --c1" if given
                       else "coeffs needs a jet: --c1 [--c2 --c3] or --jet FILE")
    return SchwarzJet(*(_parse_complex("0" if part is None else part) for part in parts))


def cmd_coeffs(args):
    lam = _parse_lambda(args.lam)
    jet = _jet_from_args(args)
    inverse = inverse_coeffs(lam, jet)
    agree = inverse == inverse_coeffs_by_reversion(lam, jet)
    rows, checked = ([], []) if args.mu is None else _table(lam, args.mu, inverse)
    values = [lam, *direct_coeffs(lam, jet), *inverse, *checked]
    shown_lam, *shown = _printed(args.mode, *values)
    if not is_admissible(lam, jet):  # L named as it prints
        _stderr_line(f"warning: jet is outside the class for lambda={_show(shown_lam)}")
    if args.format == "json":  # doubles in either mode
        pairs = [[c.real, c.imag] for c in _printed(FLOAT, *values)]
        report = {"lambda": pairs[0][0], "a": pairs[1:4], "A": pairs[4:7],
                  "reversion_agrees": agree}
        if rows:
            reals = [p[0] for p in pairs[7:]]
            report["functionals"] = {name: {"value": v, "bound": b, "margin": m} for (name, _, _),
                                     v, b, m in zip(rows, reals[::3], reals[1::3], reals[2::3])}
        print(json.dumps(report, sort_keys=True))
        return 0
    lines = ["   ".join(f"{name}{n} = {_show(c)}" for n, c in enumerate(triple, 2))
             for name, triple in (("a", shown[:3]), ("A", shown[3:6]))]
    lines.append(f"reversion cross-check: {'agrees' if agree else 'DISAGREES'}")
    rest = shown[6:]
    lines += [f"{text} = {_show(v)}, bound {_show(b)}, margin {_show(m)}{note}"
              for (_, text, note), v, b, m in zip(rows, rest[::3], rest[1::3], rest[2::3])]
    print("\n".join(lines))
    return 0 if agree else 1


def cmd_membership(args):
    lam = _float(_parse_lambda(args.lam), "lambda")
    series, family = _load_function_input(args.input)
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


def _once(values, name):
    """The values of the option name, unless one repeats (grid points as
    they round): each would be searched and reported again."""
    repeated = [value for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise CliError(f"{name}: {repeated[0]} is repeated")
    return values


def _search_request(args):
    """(functionals, lambda grid, mu grid, SearchConfig) of the search flags
    of verify and scan. The mu grid is the command's default where a
    requested functional takes mu and --mu-grid is not given, and None where
    none takes mu."""
    functionals = _once(args.functional or list(FUNCTIONALS), "--functional")
    takes_mu = any(FUNCTIONALS[f].takes_mu for f in functionals)
    mu_text = args.mu_grid
    if mu_text is None and takes_mu:
        mu_text = args.default_mu_grid
    elif mu_text is not None and not takes_mu:
        raise CliError("--mu-grid is given, but no requested functional takes mu")
    lambda_grid = _once(_parse_grid(args.lambda_grid, "--lambda-grid", _parse_lambda),
                        "--lambda-grid")
    mu_grid = None if mu_text is None else _once(_parse_grid(mu_text, "--mu-grid"), "--mu-grid")
    try:
        search = SearchConfig(args.samples, args.seed, args.strategy)
    except ValueError as exc:
        raise CliError(f"invalid search config: {exc}") from exc
    return functionals, lambda_grid, mu_grid, search


def cmd_verify(args):
    from .verifier import exact_proofs, reports_to_csv, reports_to_json, scan_lambda
    functionals, lambda_grid, mu_grid, search = _search_request(args)
    reports = scan_lambda(functionals, lambda_grid, mu_grid, search)
    verdicts = [report.sound() for report in reports]
    sound = all(verdicts)
    lines = [f"{report.text_line()} {'OK' if ok else 'VIOLATION'}"
             for report, ok in zip(reports, verdicts)]

    proofs = exact_proofs()
    for name, proved in proofs.items():
        scope = "L in (0, 1], every mu" if FUNCTIONALS[name].takes_mu else "L in (0, 1]"
        lines.append(f"{name} exact proof ({scope}): {'OK' if proved else 'FAIL'}")

    passed = sound and all(proofs.values())
    extra = {
        "config": {  # the request as searched: no mu grid where no functional takes mu
            "lambda_grid": lambda_grid,
            "functionals": functionals,
            "mu_grid": mu_grid or [],
            "search": search.to_json(),
        },
        "checks": {"sound": sound, "proofs": proofs},
        "passed": passed,
    }
    if args.out:  # before any stdout, so a path that cannot be written prints nothing
        _emit(reports_to_csv(reports), args.out + ".csv")
        _emit(reports_to_json(reports, extra), args.out + ".json")
    print("\n".join([*lines, "PASS" if passed else "FAIL"]))
    if not passed:
        _error("bound verification failed (see report)")
        return 1
    return 0


def cmd_scan(args):
    from .verifier import reports_to_csv, reports_to_json, scan_lambda
    reports = scan_lambda(*_search_request(args))
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

    def add_search(p, lambda_grid=None, mu_grid=None):
        # scan's request; verify's defaults every functional, the lambda grid
        # and, where a requested functional takes mu, the mu grid
        optional = lambda_grid is not None
        p.add_argument("--functional", action="append", choices=list(FUNCTIONALS),
                       required=not optional,
                       help="repeatable" + ("; default: every one" if optional else ""))
        p.add_argument("--lambda-grid", required=not optional, default=lambda_grid,
                       help="comma list or lo:hi:count, in (0, 1]"
                            + (" (default %(default)s)" if optional else ""))
        p.add_argument("--mu-grid", help="comma list or lo:hi:count"
                       + (f" (default {mu_grid} where a functional takes mu)" if mu_grid else ""))
        p.set_defaults(default_mu_grid=mu_grid)
        search = SearchConfig()
        p.add_argument("--samples", type=int, default=search.samples,
                       help="jets per lambda, the corner jet included (default %(default)s)")
        p.add_argument("--seed", type=int, default=search.seed,
                       help="seed of the sample stream (default %(default)s)")
        p.add_argument("--strategy", choices=list(STRATEGIES), default=search.strategy,
                       help="how the jets are drawn (default %(default)s)")

    p = sub.add_parser("revert", help="print the compositional inverse jet")
    p.add_argument("input", help="identity | koebe | f_<lambda> | series.json")
    p.add_argument("--order", type=int, default=None,
                   help="order of an alias's inverse (default 4); a series file fixes its own")
    add_mode(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_revert)

    p = sub.add_parser("coeffs", help="direct and inverse coefficients of a jet")
    p.add_argument("--lambda", dest="lam", required=True)
    for part in ("--c1", "--c2", "--c3"):
        p.add_argument(part)
    p.add_argument("--jet", help="jet JSON file")
    p.add_argument("--mu", help="add each functional's value at the jet, bound and margin")
    add_mode(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("bounds", help="sharp theoretical bounds")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default=None)
    add_mode(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="empirical verification of the bounds")
    add_search(p, lambda_grid="0.2,0.4,0.6,0.8,1", mu_grid="0.5")
    p.add_argument("--out", help="base path for report artifacts (.csv/.json)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="bound reports over parameter grids")
    add_search(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("membership", help="sample the defect on a circle")
    p.add_argument("input", help="identity | koebe | f_<lambda> | series.json")
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
    except SystemExit as exc:  # argparse's, after it printed --help
        return exc.code
    except (ValueError, OSError) as exc:  # CliError is a ValueError
        return _error(exc)
    except OverflowError as exc:  # a rational input beyond the float range
        return _error(f"a value is out of the float range: {exc}")
    except ModuleNotFoundError as exc:  # numpy, for the sampling subcommands
        return _error(f"this subcommand needs {exc.name}, which is not installed")


def cli_entry():
    status = main()  # an unexpected exception exits the usual way, with its traceback
    try:
        if sys.stdout is not None:  # None where stdout is closed (>&-)
            sys.stdout.flush()
    except OSError as exc:  # a full disk or a closed pipe
        if status != 2:  # main() has printed no error line
            status = _error(f"cannot write stdout: {exc}")
    with suppress(AttributeError, OSError):  # a closed or full stderr
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    cli_entry()

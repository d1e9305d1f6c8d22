"""Independent verification of the sharp coefficient bounds.

Two routes: (1) seeded constrained search over admissible jets, with the
extremal corner (1, 0, 0) always forced into the sample as index 0; (2)
exact_proofs, the paper's proof of each bound and of its attainment
replayed for every L in (0, 1] in rational arithmetic. Both read each
functional's value and bound from ulambda.FUNCTIONALS.

A proof has five steps, read from each table entry's value and bound
alone. (1) The value depends on the jet only through the coefficients of
z/f = 1 - C z - s z^2 - r z^3, where C = (1+L)c1, s = (1+L)c2 - L c1^2 and
r = (1+L)c3 - 2L c1 c2, and in those the inverse coefficients are free of
L: the value at inverse_from_jet(L, c1, c2, c3) equals the value at
inverse_from_jet(0, C, s, r) as polynomials in (L, c1, c2, c3, mu).
(2) The disk table (schwarz.c2_disks, c3_disk) bounds them: |C| = (1+L)x
with x = |c1| <= 1, |s| = L u with u in [0, 1], and |r| <= L(1 - u^2)/2.
(3) In (C, s, r, m = 1 - mu) the value is a polynomial with rational
constant coefficients, so the triangle inequality, term by term, bounds
its modulus by a majorant in (L, x, u, nu = |1 - mu|). (4) bound -
majorant is a polynomial in nu >= 0 whose coefficient of each power of
nu, a row in (L, x, u), is nonnegative on the unit box [0, 1]^3 by the
signs of its Bernstein coefficients. The rows hold over the whole disk
table, a superset of the true jets. (5) The bound is attained: the value
at the corner jet (1, 0, 0) is +-bound(L, 1 - mu) as polynomials in
(L, mu), which is +-bound(L, nu) exactly where nu = |1 - mu| = 1 - mu,
for real mu <= 1 (sharp_at).

The search (scan_lambda) samples each block once for the whole lambda
grid and evaluates it for every task in one call; forked children claim
blocks from one shared pipe, the first error ends the search, and search
processes keep their heap. _search_grid, _functional_values and _fs_maxima
say how its reports stay the same, bit for bit, for any worker count and
with Fekete-Szego (FS) tasks ranked.
"""

from __future__ import annotations

import json
import os
from collections import ChainMap, namedtuple
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, lcm, prod

from . import schwarz
from .scalars import is_finite_real
from .schwarz import SchwarzJet, SearchConfig
from .ulambda import FUNCTIONALS, corner_jet, functional_bound, inverse_from_jet

SOUNDNESS_TOL = 1e-9


# -- the exact proofs --------------------------------------------------------

class _Poly:
    """A polynomial over Fraction in nvars variables, built from (exponent
    tuple, coefficient) pairs and stored as {exponents: nonzero sum}."""

    def __init__(self, pairs, nvars):
        terms = {}
        for e, c in pairs:
            terms[e] = terms.get(e, 0) + c
        self.terms = {e: c for e, c in terms.items() if c}
        self.nvars = nvars

    @classmethod
    def variables(cls, nvars):
        return [cls([(tuple(int(i == k) for i in range(nvars)), Fraction(1))], nvars)
                for k in range(nvars)]

    def _lift(self, number_or_poly):
        if isinstance(number_or_poly, _Poly):
            return number_or_poly
        return _Poly([((0,) * self.nvars, Fraction(number_or_poly))], self.nvars)

    def __add__(self, other):
        return _Poly([*self.terms.items(), *self._lift(other).terms.items()], self.nvars)

    def __mul__(self, other):
        return _Poly([(tuple(i + j for i, j in zip(e, f)), c * d) for e, c in self.terms.items()
                      for f, d in self._lift(other).terms.items()], self.nvars)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, n):
        return self * (1 / Fraction(n))

    def __pow__(self, n):
        return self * self ** (n - 1) if n else self._lift(1)

    def __eq__(self, other):
        return self.terms == self._lift(other).terms


def _bernstein(p):
    """The Bernstein coefficients b_I of p on [0, 1]^n, for I up to the
    degree d of p in each variable (Garloff 1986): the sum over the terms
    a_J x^J of a_J prod_k C(I_k, J_k)/C(d_k, J_k), in integers over one
    common denominator. b_I at a corner of the box is p there."""
    deg = [max((e[k] for e in p.terms), default=0) for k in range(p.nvars)]
    scaled = {J: c / prod(map(comb, deg, J)) for J, c in p.terms.items()}
    den = lcm(*(c.denominator for c in scaled.values()))
    nums = {J: c.numerator * (den // c.denominator) for J, c in scaled.items()}
    return {I: Fraction(sum(n * prod(map(comb, I, J)) for J, n in nums.items()), den)
            for I in product(*(range(d + 1) for d in deg))}


def _nonnegative_on_box(p):
    """Whether every Bernstein coefficient of p is >= 0, a proof that p >= 0
    on [0, 1]^n. A negative one at a corner is a counterexample; elsewhere
    it decides nothing without a subdivision that no proof here needs."""
    return all(b >= 0 for b in _bernstein(p).values())


def _proof_table():
    """({functional: its identity holds}, {functional: its box rows}): the
    rows are bound - majorant split by the power of nu, as polynomials in
    (L, x, u), with the majorant read off the value in (C, s, r, m)."""
    L, c1, c2, c3, mu = _Poly.variables(5)
    coeffs = inverse_from_jet(L, c1, c2, c3)
    by_zf = inverse_from_jet(0, (1 + L) * c1, (1 + L) * c2 - L * c1 * c1,
                             (1 + L) * c3 - 2 * L * c1 * c2)
    identities = {name: f.value(*coeffs, mu) == f.value(*by_zf, mu)
                  for name, f in FUNCTIONALS.items()}
    C, s, r, m = _Poly.variables(4)
    parts = inverse_from_jet(0, C, s, r)
    L, x, u, nu = _Poly.variables(4)
    disks = ((1 + L) * x, L * u, L * (1 - u * u) / 2, nu)  # |C|, |s|, the bound of |r|, |m|
    rows = {}
    for name, f in FUNCTIONALS.items():
        gap = f.bound(L, nu) - sum((abs(c) * prod(map(pow, disks, e))
                                    for e, c in f.value(*parts, 1 - m).terms.items()))
        rows[name] = [_Poly([(e[:3], c) for e, c in gap.terms.items() if e[3] == k], 3)
                      for k in range(max((e[3] for e in gap.terms), default=0) + 1)]
    return identities, rows


def _corner_identities():
    """{functional: its value at the corner jet (1, 0, 0) is +-bound(L, 1 - mu)},
    as polynomials in (L, mu)."""
    L, mu = _Poly.variables(2)
    corner = inverse_from_jet(L, 1, 0, 0)
    return {name: f.bound(L, 1 - mu) in (value := f.value(*corner, mu), -value)
            for name, f in FUNCTIONALS.items()}


def exact_proofs():
    """{functional: proved for every L in (0, 1]} for each table entry: its
    identity holds and its box rows are nonnegative, so the bound holds
    for every mu, and its corner identity holds, so the corner jet attains
    the bound wherever sharp_at says so (for FS, real mu <= 1)."""
    identities, rows = _proof_table()
    corners = _corner_identities()
    return {name: identities[name] and all(map(_nonnegative_on_box, rows[name]))
            and corners[name] for name in rows}


# -- search -------------------------------------------------------------------

class BoundReport(namedtuple("BoundReport", "functional lam mu theoretical empirical_max "
                             "argmax_jet argmax_index gap samples seed")):
    """One searched bound: mu is None for the plain coefficient functionals,
    and argmax_index is the global sample index, 0 being the corner."""
    __slots__ = ()

    def sound(self):
        """Whether gap >= -SOUNDNESS_TOL in units of max(1, theoretical): the
        float rounding of the corner's value grows with the bound."""
        return self.gap >= -SOUNDNESS_TOL * max(1.0, self.theoretical)

    def text_line(self):
        """The report as verify and scan print it, without a status."""
        mu = "" if self.mu is None else f" mu={self.mu}"
        return (f"{self.functional} lambda={self.lam!r}{mu} theoretical={self.theoretical!r} "
                f"empirical={self.empirical_max!r} gap={self.gap!r}")

    def csv_row(self):
        mu = "" if self.mu is None else repr(float(self.mu)) if isinstance(self.mu, (int, float)) \
            else repr(complex(self.mu))
        return (f"{self.functional},{self.lam!r},{mu},{self.theoretical!r},"
                f"{self.empirical_max!r},{self.gap!r},{self.samples},{self.seed}")

    def to_json(self):
        """The fields by name, with lam as "lambda", mu as [re, im] or None
        and the jet as SchwarzJet.to_json() gives it."""
        out = self._asdict()
        out["lambda"] = out.pop("lam")
        if self.mu is not None:
            out["mu"] = [complex(self.mu).real, complex(self.mu).imag]
        out["argmax_jet"] = self.argmax_jet.to_json()
        return out


CSV_HEADER = "functional,lambda,mu,theoretical,empirical_max,gap,samples,seed"


def reports_to_csv(reports):
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


def reports_to_json(reports, extra=None):
    payload = {"reports": [r.to_json() for r in reports]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def worker_count():
    """Worker process cap from COEFFFORGE_THREADS (default 1: no worker
    processes, one block at a time). The search further caps it at the CPUs
    the process may use, since fork starts every worker at once. A value
    that is not an integer raises ValueError, which the CLI reports with
    nothing on stdout."""
    raw = os.environ.get("COEFFFORGE_THREADS", "")
    try:
        n = int(raw) if raw else 1
    except ValueError:
        raise ValueError(f"COEFFFORGE_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _functional_values(tasks, coeffs, floors=None):
    """(maximum, first index attaining it) of each task's functional on a
    block, from the block's (A2, A3, A4) arrays, or None for a task whose
    floor (a float per task) the block provably cannot exceed.

    Every value is the reference abs(value) of the task's table entry. The
    tasks that take mu are Fekete-Szego (FS) tasks, abs(A3 - mu * P) with
    P = A2 * A2. With _RANK_MIN_TASKS or more of them, _fs_maxima ranks the
    block for every real mu at once and evaluates the reference only where a
    maximum can lie, or skips a mu whose block bound is at most its floor;
    any other task evaluates the reference on the whole block.
    """
    fs = [i for i, (name, _) in enumerate(tasks) if FUNCTIONALS[name].takes_mu]
    found = {}
    if len(fs) >= _RANK_MIN_TASKS:
        A2, A3, _ = coeffs
        found = dict(zip(fs, _fs_maxima(A3, A2 * A2, [tasks[i][1] for i in fs],
                                        floors and [floors[i] for i in fs])))
    out = []
    for i, (name, mu) in enumerate(tasks):
        hit = found.get(i)
        if hit is None:
            values = abs(FUNCTIONALS[name].value(*coeffs, mu))
            k = int(values.argmax())
            hit = (float(values[k]), k)
        out.append(None if hit is _PRUNED else hit)
    return out


# On 8192-jet blocks the ranking pass costs about three whole-block
# evaluations of |A3 - mu P| plus a third of one per mu: it pays from five
# FS tasks on (measured; four is a tie).
_RANK_MIN_TASKS = 5
_RANK_CHUNK = 16  # mu values per (chunk x 3) @ (3 x n) product: 1 MB at n = 8192
_RANK_MARGIN = 64 * 2.0 ** -52  # times S^2; the derivation is in _fs_maxima
_RANK_RANGE = (2.0 ** -200, 2.0 ** 200)
_PRUNE_MARGIN = 2.0 ** -48  # slack of the block bound; the derivation is in _fs_maxima
_PRUNED = object()  # a mu whose floor the block cannot exceed


def _fs_maxima(A3, P, mus, floors=None):
    """For each mu, (maximum, first index attaining it) of
    abs(A3 - mu * P), None where mu is not ranked, or _PRUNED where the
    block bound shows that no index exceeds floors[i].

    For real mu, |A3 - mu P|^2 = y = |A3|^2 - 2 mu Re(A3 conj P) + mu^2 |P|^2,
    and y for up to _RANK_CHUNK values of mu is one small matrix product.
    The candidates of mu are the indices with y >= max(y) - margin, where
    margin = _RANK_MARGIN * S^2 and S = max|A3| + |mu| max|P|. The reference
    abs(A3[c] - mu * P[c]) is evaluated on the candidates c alone, and its
    first maximum by index is the block's: numpy rounds each element the
    same wherever it sits, and a real mu times P rounds each part once
    whether mu is a scalar or an array entry.

    Why every index attaining the computed maximum of v = abs(A3 - mu * P)
    is a candidate. Let u = 2^-53, g_k = k u / (1 - k u), a = |A3_j|,
    p = |P_j|, m = |mu|, S_j = a + m p <= S, x = |A3_j - mu P_j| <= S_j, and
    take P as exact (both routes use the same array).
      - Reference: mu * P rounds each part once (error <= u m p); the
        subtraction rounds each part once (<= u |A3 - fl(mu P)|); numpy's
        complex abs is a scaled hypot with relative error below 4u (measured
        under 2.1u). So |v - x| <= 6.1 u S_j and |v^2 - x^2| <= 12.3 u S_j^2.
      - Ranking: |A3|^2 and |P|^2 carry relative error g_2, Re(A3 conj P)
        absolute error g_2 a p, mu^2 relative error u, and a three-term dot
        product in any order adds g_3 of the sum of its term moduli. So
        |y_computed - x^2| <= g_6 (a + m p)^2 <= 6.1 u S_j^2.
    Each computed y is thus within E = 18.4 u S^2 of v^2. If j attains the
    maximum of v, every y_k <= v_k^2 + E <= v_j^2 + E <= y_j + 2E, so j lies
    within 2E = 36.8 u S^2 of max(y). S from the computed squares is low by
    at most 5u relative, and forming max(y) - margin rounds by at most
    1.1 u S^2; the margin 128 u S^2 covers 38 u S^2 with room to spare.
    Over- and underflow would void these bounds, so mu is ranked only when
    |mu|, max|A3| and max|P| are at most 2^200 and S is at least 2^-200:
    then no step overflows and an underflow moves y by under 2^-670, far
    below u S^2 >= 2^-453. Any other mu, and any mu not an int or float,
    is not ranked.

    Why a pruned mu cannot change a report. A ranked mu is pruned when
    B = (sigma + |1 - mu| p_top)(1 + 2^-48) + 2^-48 S <= floors[i], with
    sigma the computed max abs(A3 - P), finite and at most 2^200. As
    A3_j - mu P_j = (A3_j - P_j) + (1 - mu) P_j, x_j <= |A3_j - P_j| + |1 - mu| p.
    abs(A3 - P) rounds each part once, then takes abs: |A3_j - P_j| <=
    sigma (1 + 5.1u); p <= p_top (1 + 2.1u), and 1 - mu rounds once. So
    x_j <= (sigma + |1 - mu| p_top)(1 + 8.2u), and v_j <= x_j + 6.2 u S.
    B rounds at most four times along each of its nonnegative terms, so it
    keeps over 27u of its 32u relative and 31u of its absolute slack, and
    every v_j <= B <= floors[i]; an underflow (S >= 2^-200) moves p_top or
    a_top by under 2^-536, far inside the slack. The reduction replaces a
    floor only by a strictly larger value, so skipping mu changes nothing.
    """
    import numpy as np
    rows = np.stack([A3.real * A3.real + A3.imag * A3.imag,
                     A3.real * P.real + A3.imag * P.imag,
                     P.real * P.real + P.imag * P.imag])
    a_top, p_top = (float(np.sqrt(rows[r].max())) for r in (0, 2))
    lo, hi = _RANK_RANGE
    out = [None] * len(mus)
    if max(a_top, p_top) > hi:
        return out
    ranked = [i for i, mu in enumerate(mus) if isinstance(mu, (int, float))
              and abs(mu) <= hi and a_top + abs(mu) * p_top >= lo]
    if floors is not None and (sigma := float(abs(A3 - P).max())) <= hi:
        for i, mu in ((i, float(mus[i])) for i in ranked):
            if (sigma + abs(1 - mu) * p_top) * (1 + _PRUNE_MARGIN) \
                    + _PRUNE_MARGIN * (a_top + abs(mu) * p_top) <= floors[i]:
                out[i] = _PRUNED
        ranked = [i for i in ranked if out[i] is None]
    n = len(A3)
    y = np.empty((min(_RANK_CHUNK, len(ranked)), n))
    for start in range(0, len(ranked), _RANK_CHUNK):
        chunk = ranked[start:start + _RANK_CHUNK]
        mu = np.array([float(mus[i]) for i in chunk])
        yc = np.matmul(np.stack([np.ones_like(mu), -2.0 * mu, mu * mu], axis=1), rows,
                       out=y[:len(chunk)])
        S = a_top + np.abs(mu) * p_top
        floor = yc.max(axis=1) - _RANK_MARGIN * S * S
        row, c = np.divmod(np.flatnonzero(yc >= floor[:, None]), n)
        values = abs(A3[c] - mu[row] * P[c])
        ends = np.searchsorted(row, np.arange(len(chunk) + 1))
        for r, i in enumerate(chunk):
            k = ends[r] + int(values[ends[r]:ends[r + 1]].argmax())
            out[i] = (float(values[k]), int(c[k]))
    return out


def _requested(functionals, mus):
    """Normalize to a list of (name, mu-or-None) tasks."""
    if not functionals:
        raise ValueError("empty functional list")
    tasks = []
    for name in functionals:
        if name not in FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}")
        takes_mu = FUNCTIONALS[name].takes_mu
        if takes_mu and not mus:
            raise ValueError(f"the {name} functional needs mu")
        tasks.extend((name, mu) for mu in (mus if takes_mu else [None]))
    return tasks


def _search_grid(grid, tasks, bounds, search):
    """Shared-sample search for several functionals at every L of the grid,
    reported against each (L, task)'s theoretical bound.

    The corner jet is global index 0; random blocks follow, each run once
    for the whole grid in process or in a forked worker. Reduction is a
    strict-max in index order, so ties resolve to the first attaining sample
    (the corner, whenever extremal); the corner's values are every block's
    floors, and a block reports None where it cannot exceed one. Forked
    children claim blocks as they go (_forked); _keep_heap holds the heap.
    """
    import numpy as np
    _keep_heap()
    best = []
    for lam in grid:
        corner = corner_jet(lam)
        coeffs = inverse_from_jet(lam, *(np.array([c]) for c in corner))
        best.append([(val, 0, corner) for val, _ in _functional_values(tasks, coeffs)])

    size = schwarz.block_size()
    remaining = search.samples - 1
    blocks = range((remaining + size - 1) // size)
    floors = [[val for val, _, _ in row] for row in best]
    evaluate = partial(_eval_block, grid, tasks, search, remaining, floors)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(worker_count(), len(blocks), cpus or 1)
    for b, per_lam in enumerate(_forked(evaluate, blocks, workers) if workers > 1
                                else map(evaluate, blocks)):
        offset = 1 + b * size
        for row, result in zip(best, per_lam):
            for t, hit in enumerate(result):
                if hit is not None and hit[0] > row[t][0]:
                    row[t] = (hit[0], offset + hit[1], hit[2])

    return [BoundReport(name, lam, mu, theo, val, jet, index, theo - val,
                        search.samples, search.seed)
            for lam, theos, row in zip(grid, bounds, best)
            for (name, mu), theo, (val, index, jet) in zip(tasks, theos, row)]


def _eval_block(grid, tasks, search, remaining, floors, b):
    """Block b's [(maximum, index in the block, jet) or None per task] for each L."""
    take = min(schwarz.block_size(), remaining - b * schwarz.block_size())
    out = []
    for lam, row, (c1, c2, c3) in zip(grid, floors, schwarz.sample_grid_block(
            grid, search.seed, b, search.strategy)):
        c1, c2, c3 = c1[:take], c2[:take], c3[:take]
        found = _functional_values(tasks, inverse_from_jet(lam, c1, c2, c3), row)
        jets = {k: SchwarzJet(complex(c1[k]), complex(c2[k]), complex(c3[k]))
                for k in {hit[1] for hit in found if hit is not None}}
        out.append([None if hit is None else (*hit, jets[hit[1]]) for hit in found])
    return out


def _forked(evaluate, blocks, workers):
    """Yield evaluate(b) for each block in order, from forked children that
    claim runs of block positions by 4-byte tokens from one pipe, filled and
    closed before the first fork; each sends one pickled record down its own
    pipe, its {position: result} or its error. The first error record kills
    and reaps every other child, then is raised; a child that ends without a
    record is a ChildProcessError. No child outlives the call, on any path."""
    import pickle
    import select
    import selectors
    import signal
    run = max(1, -(-len(blocks) // (select.PIPE_BUF // 4)))  # 1 while a token per block fits
    tokens, write = os.pipe()
    os.write(write, b"".join(i.to_bytes(4, "little") for i in range(-(-len(blocks) // run))))
    os.close(write)
    pids, reads, shares = {}, {}, [None] * workers  # pid by k; k by its pipe's read end
    try:
        for k in range(workers):
            read, write = os.pipe()
            reads[read] = k
            try:
                pids[k] = os.fork()
                if not pids[k]:
                    _send_share(write, evaluate, blocks, tokens, run)
            finally:
                os.close(write)
        with selectors.DefaultSelector() as selector:
            for read in reads:
                selector.register(read, selectors.EVENT_READ, [])
            while reads:
                for key, _ in selector.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        key.data.append(chunk)
                        continue
                    selector.unregister(key.fd)
                    k = reads.pop(key.fd)
                    os.close(key.fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(k), 0)[1])
                    if code or not key.data:
                        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                        raise ChildProcessError(f"a search worker process died ({how})")
                    ok, shares[k] = pickle.loads(b"".join(key.data))
                    if not ok:
                        raise shares[k]
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in (*reads, tokens):
            os.close(read)
    return map(ChainMap(*shares).__getitem__, range(len(blocks)))


def _send_share(write, evaluate, blocks, tokens, run):
    """In a forked child: evaluate each run of positions a token read names,
    until EOF, and write (True, {position: result}) or (False, error) to the
    pipe; an error first empties the tokens pipe, so the others stop after
    their block in hand. End by os._exit on every path. An error that cannot
    round-trip through pickle goes as a ChildProcessError: type and message."""
    status = 1
    try:
        import pickle
        try:
            results = {}
            while token := os.read(tokens, 4):
                i = int.from_bytes(token, "little")
                for p in range(len(blocks))[i * run:(i + 1) * run]:
                    results[p] = evaluate(blocks[p])
            record = (True, results)
        except Exception as exc:
            record = (False, exc)
            os.read(tokens, 1 << 16)  # one read takes every token left (at most PIPE_BUF)
        try:
            data = pickle.dumps(record)
            if not record[0]:
                pickle.loads(data)  # an exception can pickle and still fail to unpickle
        except Exception as exc:
            error = exc if record[0] else record[1]
            data = pickle.dumps((False, ChildProcessError(f"{type(error).__name__}: {error}")))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _keep_heap():
    """Have glibc keep 16 MiB of free heap rather than hand it back after each
    block for the next to fault in again; forked workers inherit it."""
    try:
        os.confstr("CS_GNU_LIBC_VERSION")  # no confstr on Windows; an error on other libcs
    except (AttributeError, ValueError, OSError):
        return
    import ctypes
    ctypes.CDLL(None).mallopt(-2, 16 << 20)  # int mallopt(int, int), ctypes' default; M_TOP_PAD


def scan_lambda(functionals, lambda_grid, mu_grid=None, search=None):
    """One BoundReport per (lambda, functional[, mu]) combination.

    The whole request is checked before the first block is sampled: every
    grid point lies in (0, 1], every functional is known, and every
    theoretical bound is finite in float arithmetic.
    """
    search = search or SearchConfig()
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise ValueError("empty lambda grid")
    tasks = _requested(functionals, mu_grid)
    if not all(0 < lam <= 1 for lam in grid):
        raise ValueError("grid points must lie in (0, 1]")
    bounds = [[float(functional_bound(name, lam, mu)) for name, mu in tasks] for lam in grid]
    for lam, row in zip(grid, bounds):
        for (name, mu), bound in zip(tasks, row):
            if not is_finite_real(bound):
                raise ValueError(f"the {name} bound overflows float arithmetic "
                                 f"at lambda={lam!r}, mu={mu!r}")
    return _search_grid(grid, tasks, bounds, search)

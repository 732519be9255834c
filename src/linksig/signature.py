"""Multivariable link signatures from generalized Seifert matrices.

The generic engine takes the 2^mu integer matrices A^eps of a C-complex
(keyed by sign vectors eps in {+,-}^mu, with A^{-eps} the transpose of
A^eps), assembles the Hermitian matrix

    H(omega) = prod_i (1 - conj(omega_i)) * sum_eps eps_1..eps_mu
               * omega_1^{(1-eps_1)/2} .. omega_mu^{(1-eps_mu)/2} * A^eps,

and reports its inertia.  The signature of H is the multivariable
(Cimasoni-Florens) signature of the colored link at omega.

A system is stored as the nonzero integer entries of its matrices and
nothing else, with one policy, A^{-eps} = (A^eps)^T among its rules,
checked once when it is built, however it is built (see SeifertSystem).
The system also keeps the lower band of H as runs: a run is a stretch of
one diagonal whose positions hold the same terms (key index, v), and it
holds those terms.  build_H computes one sum per run and hands each
diagonal over as those runs, the sum in place of the terms.

build_H returns every H as a Band, Hermitian by type: its diagonal of floats
and its sub-diagonals, down to the farthest one that an entry of the system
fills, each held as runs (value, count), so a torus H is two runs whatever
its rank.  When the entries all lie on the three diagonals, as for every
(2,2l)-torus system and every system of rank <= 2, H is tridiagonal, a band
of width 1.  A wider band is first reduced to width 1 by Householder
reflections in O(n^3), a backward stable step (Wilkinson 1965, The
Algebraic Eigenvalue Problem).  inertia checks a band and takes max|h|
over its runs, in O(runs); one walk over the runs of a band of width 1
then runs two Sturm sequences, forming each run's constants once, in
O(runs) steps: a long stretch where both diagonals are constant is counted
at once, by the minors' Chebyshev closed form or at the pivots' float
fixed point (see inertia).
A tridiagonal count is exact for entries with small relative errors (Barth,
Martin and Wilkinson 1967), so nothing is lost against the eigenvalues, and
it computes none: by Sylvester's law of inertia the signs of the pivots are
those of the eigenvalues.  Its zero band is that rounding error, or
build_H's own where that is larger: H carries the size of the terms summed
into its entries, so an H(omega) that vanishes reads as zero (see _zero_band).
A matrix is nested lists, the shape JSON gives, and nothing here imports
numpy.

For the (2,2l)-torus family everything is also available in closed form:
the leading principal minors of H satisfy a three-term recurrence solved
by Chebyshev polynomials of the second kind, which yields a piecewise
constant signature formula in alpha1 + alpha2 (Sylvester's criterion).
That closed form, sigma_torus_closed, lives with the strip kernel in
torus_rep and is re-exported here.  Both routes are kept and
cross-checked by the test suite.
"""

from __future__ import annotations

import cmath
import json
import math
import reprlib
import sys
import warnings
from collections.abc import Mapping
from itertools import chain, pairwise, repeat
from operator import mul
from types import MappingProxyType

from ._values import Frozen
from .errors import BadSystemError, NullityWarning, OmegaOneError
from .torus_rep import AnglePair, check_ell, defined_strips, strip_sigma
from .torus_rep import sigma_torus_closed  # noqa: F401  (re-exported)

EIG_ZERO_SCALE = 8 * 2.0**-53  # c u, c = 8: see _zero_band
_LONG = 20  # a longer segment goes to _segment, whose two closed forms cost about 21 steps
_PHASE_ERR = 16 * 2.0**-53  # see _segment
_PARABOLIC = 2.0**-20  # sin(theta) of the closed form's edge: see _segment
_SIGNS = str.maketrans("01", "+-")


def _eps_key(mu: int, i: int) -> str:
    """The i-th of the 2^mu sign vectors, whose "-" signs are the 1 bits of i."""
    return format(i, f"0{mu}b").translate(_SIGNS)


def _eps_keys(mu: int) -> list[str]:
    return [_eps_key(mu, i) for i in range(2**mu)]


def _neg_key(key: str) -> str:
    return "".join("-" if ch == "+" else "+" for ch in key)


def _check_count(name: str, n, least: int, kind: str) -> None:
    """mu or rank: an int, not a bool, of at least `least`."""
    if type(n) is not int or n < least:
        raise BadSystemError(f"{name} must be a {kind} integer")


def _check_keys(mu: int, keys) -> None:
    """Every key a sign vector of length mu, each checked on its own, so no
    2^mu keys are formed; the message names at most three others."""
    extra = [
        k for k in keys
        if not (isinstance(k, str) and len(k) == mu and not k.strip("+-"))
    ]
    if extra:
        shown = ", ".join(reprlib.repr(k) for k in extra[:3])
        raise BadSystemError(f"unexpected keys: {shown} ({len(extra)} in all)")


def _checked_entries(key: str, rank: int, e) -> tuple:
    """The entries of matrix `key`, sorted, once each is a tuple of ints
    (i, j, v) with 0 <= i, j < rank and v a nonzero int64, one per (i, j)."""
    e = tuple(e)
    for entry in e:
        if not (type(entry) is tuple and len(entry) == 3
                and type(entry[0]) is type(entry[1]) is type(entry[2]) is int):
            raise BadSystemError(f"matrix {key} entry {entry!r} is not a tuple of three ints")
        i, j, v = entry
        if not (0 <= i < rank and 0 <= j < rank):
            raise BadSystemError(f"matrix {key} entry {entry!r} lies outside rank {rank}")
        if not v:
            raise BadSystemError(f"matrix {key} entry {entry!r} is zero")
        if not -(2**63) <= v < 2**63:
            raise BadSystemError(
                f"matrix {key} entry {v!r} is outside the int64 range [-2^63, 2^63)"
            )
    e = tuple(sorted(e))
    for a, b in pairwise(e):  # sorted, two entries at one (i, j) are adjacent
        if a[:2] == b[:2]:
            raise BadSystemError(f"matrix {key} has two entries at ({a[0]}, {a[1]})")
    return e


class SeifertSystem(Frozen):
    """The 2^mu integer Seifert matrices of a C-complex, keyed by sign vector.

    `entries` maps each sign vector whose matrix has an entry, in
    sign-vector order, to its nonzero entries (i, j, v), sorted by (i, j).
    A key given with no entry is checked and then dropped, so it and a key
    left out are one zero matrix.  Systems compare by mu, rank and entries.

    Every system meets one policy, however it is built (directly, by
    seifert_system, by torus_seifert or by copy and pickle, which rebuild
    through here), or BadSystemError names the first rule it breaks: mu is
    an int >= 1 and rank an int >= 0, neither a bool; every key is a sign
    vector of length mu, and a missing key is a zero matrix; every entry is
    a tuple of three ints (i, j, v), not bools, with 0 <= i, j < rank and v
    a nonzero int64, one per (i, j); and A^{-eps} = (A^eps)^T, so every
    H(omega) is Hermitian and its lower half determines it.

    The rest is derived for build_H.  A position (j + k, j) on or below the
    diagonal holds the terms (key index, v), one per key of `entries` with an
    entry v there, in key order.  `runs[k]`, for each diagonal k = 0 ..
    width, covers its n - k positions in order by runs (terms, count), () the
    terms of an empty stretch, no two adjacent runs with the same terms.  A
    (2,2l)-torus system has one run per diagonal, however large its rank,
    and an empty stretch is one run, so nothing here grows with the band of
    H.  `width` is the farthest sub-diagonal that an entry fills, at least
    1, and `bound` the largest sum of |A^eps_ij| over eps at one position,
    the same on the upper half by the transpose rule.
    """

    __slots__ = ("mu", "rank", "entries", "runs", "width", "bound")

    def __init__(self, mu: int, rank: int, entries):
        _check_count("mu", mu, 1, "positive")
        _check_count("rank", rank, 0, "non-negative")
        # a mapping, or its items as _fields gives them, put in the order above
        entries = dict(entries)
        _check_keys(mu, entries)
        entries = {k: _checked_entries(k, rank, e) for k, e in sorted(entries.items())}
        for k, e in entries.items():
            neg = _neg_key(k)
            if k[0] == "-" and neg in entries:
                continue  # the rule is symmetric: checked, and named, from the "+" key
            if entries.get(neg, ()) != tuple(sorted((j, i, v) for i, j, v in e)):
                raise BadSystemError(f"transpose invariant violated for sign pair ({k}, {neg})")
        entries = {k: e for k, e in entries.items() if e}
        cells = {}  # k: {j: the terms at (j + k, j), key by key}
        for index, e in enumerate(entries.values()):
            for i, j, v in e:
                if i >= j:
                    cells.setdefault(i - j, {}).setdefault(j, []).append((index, v))
        width = max([1, *cells])
        runs = []
        for k in range(width + 1):
            diag, r, end = cells.get(k, ()), [], 0  # end: the first position no run covers
            for j in sorted(diag):
                terms = tuple(diag[j])
                if j == end and r and r[-1][0] == terms:
                    r[-1] = (terms, r[-1][1] + 1)
                else:
                    if j > end:
                        r.append(((), j - end))  # an empty stretch
                    r.append((terms, 1))
                end = j + 1
            if rank - k > end:
                r.append(((), rank - k - end))
            runs.append(tuple(r))
        bound = max((sum(abs(v) for _, v in t) for d in runs for t, _ in d), default=0)
        super().__init__(mu, rank, MappingProxyType(entries), tuple(runs), width, bound)

    def _fields(self) -> tuple:
        # equality, hash, copy and pickle read these; the rest is derived
        return (self.mu, self.rank, tuple(self.entries.items()))

    def matrix(self, key: str) -> list[list[int]]:
        """The matrix A^key as nested lists."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for i, j, v in self.entries.get(key, ()):
            rows[i][j] = v
        return rows


def _entry(key: str, v) -> int:
    """A matrix entry that is no int, as an int; raises TypeError if it is
    no number.  SeifertSystem checks the int64 range of every nonzero entry."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"entry {v!r}")
    if isinstance(v, float) and not v.is_integer():
        raise BadSystemError(f"matrix {key} has non-integer entries")
    return int(v)


def _matrix_entries(key: str, m) -> tuple[int, tuple]:
    """The rank and the nonzero entries (i, j, v), row by row, of one matrix
    given as nested lists; a cell that is no int is read by _entry first."""
    square = isinstance(m, (list, tuple))
    rows = m if square else [m]
    entries = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):  # m is a number or a vector
            row, square = [row], False
        square = square and len(row) == len(rows)
        for j, v in enumerate(row):
            if type(v) is not int:
                v = _entry(key, v)
            if v:
                entries.append((i, j, v))
    if not square:  # [[]] too; [] is the 0 x 0 matrix
        raise BadSystemError(f"matrix {key} is not square")
    return len(rows), tuple(entries)


def seifert_system(mu: int, matrices: Mapping) -> SeifertSystem:
    """A Seifert system read from its dense form; raises BadSystemError on
    violation.

    `matrices` maps every one of the 2^mu sign vectors to its matrix, nested
    lists of numbers, the shape JSON gives, all square and of one rank;
    integral floats are read as ints.  The rest of the policy is
    SeifertSystem's.
    """
    _check_count("mu", mu, 1, "positive")
    if not isinstance(matrices, Mapping):
        raise BadSystemError("matrices must map sign vectors to matrices")
    # the 2^mu sign vectors are listed only once there are as many matrices:
    # a large mu never forms 2^mu
    _check_keys(mu, matrices)
    count = len(matrices)
    if count.bit_length() <= mu:  # count < 2^mu
        message = f"missing sign-vector keys: {count} of 2^{mu} given"
        # one of the first count + 1 is missing; forming it costs no more than
        # the input, which holds a key of length mu unless it is empty
        if count:
            keys = (_eps_key(mu, i) for i in range(count + 1))
            first = next(k for k in keys if k not in matrices)
            message += f", the first is {reprlib.repr(first)}"
        raise BadSystemError(message)
    entries = {}
    rank = None
    for k in _eps_keys(mu):
        try:
            n, entries[k] = _matrix_entries(k, matrices[k])
        except TypeError as exc:
            raise BadSystemError(f"matrix {k} is not numeric: {exc}") from exc
        if rank is None:
            rank = n
        elif n != rank:
            raise BadSystemError(f"matrix {k} has rank {n}, expected {rank}")
    return SeifertSystem(mu, rank, entries)


def seifert_to_json(s: SeifertSystem) -> dict:
    return {
        "mu": s.mu,
        "rank": s.rank,
        "matrices": {k: s.matrix(k) for k in _eps_keys(s.mu)},
    }


def seifert_from_json(data) -> SeifertSystem:
    """Load a Seifert system from JSON text, its UTF-8 bytes, or an already-parsed dict."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        # ValueError covers bytes that do not decode; RecursionError, deep nesting
        except (ValueError, RecursionError) as exc:
            raise BadSystemError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadSystemError("top-level JSON value must be an object")
    for field in ("mu", "rank", "matrices"):
        if field not in data:
            raise BadSystemError(f"missing field {field!r}")
    _check_count("rank", data["rank"], 0, "non-negative")
    system = seifert_system(data["mu"], data["matrices"])
    if system.rank != data["rank"]:
        raise BadSystemError(
            f"declared rank {data['rank']} != actual rank {system.rank}"
        )
    return system


class Band(Frozen):
    """A Hermitian band matrix by its lower half, each diagonal held as
    runs.  `diags[k]` is a tuple of runs (value, count) that cover, in
    order, the n - k positions (j + k, j) of the k-th sub-diagonal.  The
    rules, which inertia checks: every run is such a pair, its count a
    positive int, not a bool, and the counts of diagonal k sum to
    max(n - k, 0), with n at most sys.maxsize (the run policy); the diagonal
    (k = 0) holds floats, the others complex numbers; and `size` is a finite
    float >= 0.  Adjacent runs may hold equal values, so one matrix has many
    layouts.  inertia gives them all the same counts, unless an eigenvalue
    lies within a few u max|h| of +-tau, and the same pivot floats where it
    takes one step per position or stops at a float fixed point, though not
    where it counts a long run in closed form (see inertia).  The upper
    half is the conjugate, so the matrix is Hermitian by type; `width` is
    the number of sub-diagonals and `shape` that of the matrix.  `size`
    bounds the total modulus of the terms that build_H summed into any one
    entry; a band built otherwise passes 0.0, which inertia reads as
    max|h|."""

    __slots__ = ("diags", "size")

    @property
    def width(self) -> int:
        return len(self.diags) - 1

    @property
    def shape(self) -> tuple[int, int]:
        n = sum(count for _, count in self.diags[0])
        return (n, n)


def build_H(s: SeifertSystem, omegas: list[complex]) -> Band:
    """The Hermitian matrix H(omega) of the system at unit omega, all != 1,
    as a Band of width s.width, its diagonal floats.  Its `size`,
    |prod(1 - conj(omega_i))| * s.bound, bounds the terms summed into any
    entry.

    Each matrix's coefficient is computed once.  Each run of s.runs is
    summed once: from the int 0, coeff * v for each of its terms, key by
    key, then multiplied by scale, the main diagonal taking the real part;
    so a call costs O(runs), not O(n): a torus H is two runs, whatever its
    rank.  Expanded, each run is bitwise the sum over all 2^mu matrices in
    key order at each of its positions, since a key puts at most one entry
    at a position.  No partial sum from the int 0 has a -0.0 part (0.0 + t
    is not -0.0, and x + y is -0.0 only if both are), so the +-0.0 terms of
    zero entries change none, and scale multiplies the sum of an empty run,
    the int 0, as 0j, the sum of its zero terms.
    """
    if len(omegas) != s.mu:
        raise ValueError(f"expected {s.mu} omega values, got {len(omegas)}")
    for w in omegas:
        if abs(w - 1.0) < 1e-12:
            raise OmegaOneError("omega_i = 1 is outside the domain of the signature")
        if not abs(abs(w) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"omega value {w} is not on the unit circle")
    scale = 1.0 + 0.0j
    for w in omegas:
        scale *= 1.0 - w.conjugate()
    coeffs = []
    for key in s.entries:
        coeff = 1.0 + 0.0j
        for ch, w in zip(key, omegas):
            if ch == "-":
                coeff *= -w
        coeffs.append(coeff)
    diags = []
    for runs in s.runs:
        d = []
        for terms, count in runs:
            acc = 0
            for index, v in terms:
                acc += coeffs[index] * v
            x = scale * acc
            d.append((x if diags else x.real, count))  # the main diagonal is real
        diags.append(tuple(d))
    return Band(tuple(diags), abs(scale) * s.bound)


class Inertia(Frozen):
    __slots__ = ("n_pos", "n_neg", "n_zero")

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg

    @property
    def rank(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero


def _zero_band(n: int, hmax: float, size: float) -> float:
    """t = tau / max|h| for an n x n band h of max|h| = hmax > 0 and term
    size `size`: inertia counts the eigenvalues outside [-tau, tau].

    tau = EIG_ZERO_SCALE * n * max(max|h|, size), with size = h.size, the
    size of the terms build_H summed into an entry (0.0, read as max|h|, for
    a band built otherwise).  The max|h| term is the rounding error of the
    count: t = c n u with u = 2^-53 and c = 8, in units of max|h|.  The Sturm
    count of a tridiagonal T is the exact count of a T' whose entries differ
    from T's by a few ulp in relative terms (Kahan 1966; Barth, Martin and
    Wilkinson 1967), as the scaling by 1 / max|h| does.  A row of T holds at
    most three entries of modulus <= 1, so ||T' - T||_2 <= ||T' - T||_inf is
    a few u, below t, and by Weyl's inequality no eigenvalue moves by t: a
    count of +-1 is the sign of its eigenvalue, and an eigenvalue counted as
    zero lies within 2 tau of 0.  The size term is build_H's own rounding:
    each entry is a sum of terms of total modulus <= size, computed to a few
    u * size, so where H(omega) vanishes, max|h| is that rounding and the
    whole of h reads as zero.  A wider band adds the Householder backward
    error, a band unitarily similar to h + E with ||E||_2 <= p(n) u ||h||_2
    and ||h||_2 <= n max|h| (Higham 2002, Accuracy and Stability of
    Numerical Algorithms, ch. 19).  The worst case p(n) grows like n^2, but
    the measured error, the band's eigenvalues against eigvalsh of random
    Hermitian h of rank 6 to 199, stays below 3.5 n u max|h|, inside t.
    """
    t = EIG_ZERO_SCALE * n
    if size > hmax:
        t *= size / hmax
    return t


def inertia(h: Band) -> Inertia:
    """Eigenvalue counts of a Band; any other h raises TypeError.  h must
    keep Band's rules and every value must be finite, or a ValueError names
    the first check that fails.  Those checks and max|h| read each run once,
    in O(runs), and refuse a bad count, main-diagonal counts past
    sys.maxsize among them, before any other work.  The count reads h /
    max|h|, so that |h_ij|^2 neither under- nor overflows.  A band of width 1
    is counted from its runs, in O(runs) memory; a wider one is laid out in
    n^2 full rows and first reduced to width 1 by Householder reflections in
    O(n^3) (_householder_band), whose output is read as runs of one.

    One walk over the runs of the diagonal and of the sub-diagonal shifted
    down one row runs the Sturm counts of T + t and t - T together: n_neg =
    #(lambda < -tau) and n_pos = #(lambda > tau).  Where both runs hold, a
    segment, it forms c = a + t, c = t - a and r = |e|^2 once, the floats
    that each position would form.  A segment of at most _LONG steps takes
    them one position at a time in the walk's own loop.  A longer one goes
    to _segment, once for each sequence: counted in O(1) in closed form
    where r > 0 and g = c / sqrt(r) has |g| < 2, off |g| = 2 and off ties,
    and otherwise step by step until the pivot reaches a float fixed point
    (after one step where r = 0, once the pivots converge where |g| > 2),
    the steps left then counted at once.  So a band costs O(runs) steps,
    save its long segments near |g| = 2 or at a tie.  The steps and the
    fixed-point exit form the walk's floats bit for bit, so those pivots are
    the same floats however the runs split; the closed form's exit pivot is
    not, but the counts stay exact, as below.

    _zero_band states tau and why the steps count exactly with it.  On a
    closed-form segment of m steps, g = 2 cos(theta), the computed phases
    err by about (m + 1) u / sin(theta) (_segment bounds it).  Carried back,
    the rounding of theta is a move of c by at most about 20 u, which t =
    8 n u exceeds since n > _LONG, and the rest of the rounding stays inside
    the bound, which is checked: a segment whose exit phases lie within it
    of a multiple of pi takes its steps.  So the count is exact, and equals
    the count one position at a time unless an eigenvalue lies within a few
    u max|h| of +-tau.
    """
    if not isinstance(h, Band):
        raise TypeError(f"inertia takes a Band, not {type(h).__name__}")
    diags, width, size = h.diags, h.width, h.size
    values = []  # the value of each run
    room = sys.maxsize  # the positions left to diagonal k: max(n - k, 0) once n is known
    for k, d in enumerate(diags):
        try:
            for x, count in d:
                # a count past the room left is refused before any work
                if type(count) is not int or not 0 < count <= room:
                    raise ValueError
                values.append(x)
                room -= count
            if k and room:
                raise ValueError
        except (TypeError, ValueError):  # a run that is no pair, a bad count, a short diagonal
            raise ValueError("band has a diagonal of the wrong length") from None
        if not k:
            n = sys.maxsize - room  # the main diagonal's counts
        room = max(n - k - 1, 0)
    if not diags:
        raise ValueError("band has a diagonal of the wrong length")
    if not 0.0 <= size < math.inf:  # NaN fails too
        raise ValueError(f"band size {size!r} is not a finite float >= 0")
    if n == 0:
        return Inertia(0, 0, 0)
    diag = diags[0]
    hmax = max(map(abs, values))
    if not all(map(cmath.isfinite, values)):
        raise ValueError("matrix has a non-finite entry")
    if set(map(type, values[: len(diag)])) != {float}:  # the diagonal's run values
        raise ValueError("matrix is not Hermitian: its diagonal holds a non-float")
    if hmax == 0.0:
        return Inertia(0, 0, n)
    t = _zero_band(n, hmax, size)
    if width < 2:
        sub = diags[1] if width else ((0.0, n - 1),)
    else:
        rows = [[0j] * n for _ in range(n)]
        for k, d in enumerate(diags):
            line = chain.from_iterable(repeat(x, count) for x, count in d)
            for j, x in enumerate(line):
                rows[j + k][j], rows[j][j + k] = x / hmax, x.conjugate() / hmax
        sub, diag = _householder_band(rows)
        sub, diag = zip(sub, repeat(1)), zip(diag, repeat(1))
        hmax = 1.0  # the band is scaled already
    # The pivots d_i = a_i - |e_i|^2 / d_{i-1} of T + t (`lo`) and of t - T
    # (`hi`), whose negative ones count the eigenvalues below -tau and above
    # tau (Sylvester's law of inertia).  The pivots of M - xI fall as x
    # grows, so one that is exactly 0 at x = 0 is positive for x just below
    # 0: taking it as the least positive float counts eigenvalues strictly
    # below 0, and the next pivot falls to about -|e|^2 / 0.
    n_pos = n_neg = 0
    lo = hi = 1.0
    off = chain(((0.0, 1),), sub)  # the runs of e_i, left of the diagonal in row i
    left = 0  # the rows left to the current run of off
    for x, count in diag:
        a = x / hmax
        c_lo, c_hi = a + t, t - a
        while count:
            if not left:
                e, left = next(off)
                r = abs(e / hmax)
                r *= r
            step = count if count < left else left
            count -= step
            left -= step
            if step > _LONG:
                lo, k = _segment(c_lo, r, lo, step)
                n_neg += k
                hi, k = _segment(c_hi, r, hi, step)
                n_pos += k
                continue
            for _ in repeat(None, step):
                lo = c_lo - r / lo
                hi = c_hi - r / hi
                if lo < 0.0:
                    n_neg += 1
                elif lo == 0.0:
                    lo = sys.float_info.min
                if hi < 0.0:
                    n_pos += 1
                elif hi == 0.0:
                    hi = sys.float_info.min
    return Inertia(n_pos, n_neg, n - n_pos - n_neg)


def _segment(c: float, r: float, p: float, m: int) -> tuple[float, int]:
    """The pivot after m steps p -> c - r / p of one Sturm sequence, from
    the pivot p, and the count of negative pivots among them, a pivot of
    exactly 0 read as sys.float_info.min, as in inertia's walk.

    With r > 0 the pivots are ratios d_j = D_j / D_(j-1) of the minors
    D_j = c D_(j-1) - r D_(j-2).  Where g = c / sqrt(r) has |g| < 2, write
    g = 2 cos(theta), theta in (0, pi): then D_j is sqrt(r)^j sin(j theta +
    phi) times a constant, with the entry phase phi in (0, pi) for which
    p = sqrt(r) sin(phi) / sin(phi - theta), on the side of theta that the
    sign of p gives (atan2 keeps that side exactly, so an entering pivot
    near 0, sys.float_info.min among them, needs no check).  A step moves
    the phase by theta < pi, and a pivot is negative where the phase passes
    a multiple of pi, so the m steps hold floor((m theta + phi) / pi)
    negative pivots and leave the pivot
    sqrt(r) sin(m theta + phi) / sin((m - 1) theta + phi).

    The computed phases err by about (m + 1) u / sin(theta): the rounding
    of g, about 2u, moves theta by about 2u / sin(theta), m times over, and
    phi by about 2u / sin(theta)^2; the products and atan2 add a few u per
    unit of phase, and the walk's own steps, against which the counts are
    tested, up to 2u / sin(theta) each.  _PHASE_ERR (m + 1 / sin(theta)) /
    sin(theta) bounds the sum.  The closed form is used only where the last
    two phases, m theta + phi and (m - 1) theta + phi, lie farther than
    this bound from a multiple of pi, so that the count and both factors
    of the exit pivot are far from a sign change, and only where
    sin(theta) > _PARABOLIC, away from |g| = 2, where the first-order bound
    holds (the rounding of g is then far below sin(theta)^2).

    Every other segment takes the steps themselves, as the walk does, until
    a step returns its pivot unchanged: the pivot is then at a float fixed
    point, as it is after one step where r = 0 and, where |g| > 2, once the
    pivots converge, and each step left adds 1 if it is negative.  So these
    pivots are the walk's floats, bit for bit.  Where |g| > 2 the pivots
    converge in a number of steps that grows like 1 / sqrt(|g| - 2), and
    where |g| < 2 they do not converge, so a segment near |g| = 2 or at a
    tie costs up to its m steps.
    """
    if r:
        s = math.sqrt(r)
        x = 0.5 * c / s  # cos(theta)
        if -1.0 < x < 1.0:
            y = math.sqrt((1.0 - x) * (1.0 + x))  # sin(theta)
            if y > _PARABOLIC:
                err = _PHASE_ERR * (m + 1.0 / y) / y
                theta = math.acos(x)
                phi = math.atan2(y, x - s / p)
                k, end = divmod(m * theta + phi, math.pi)
                if err < end < math.pi - err and err < (end - theta) % math.pi < math.pi - err:
                    return s * math.sin(end) / math.sin(end - theta), int(k)
    k = 0
    for left in range(m - 1, -1, -1):  # the steps left after this one
        q = c - r / p
        if q < 0.0:
            k += 1
        elif q == 0.0:
            q = sys.float_info.min
        if q == p:
            return q, k + left if q < 0.0 else k
        p = q
    return p, k


def _householder_band(a: list[list[complex]]) -> tuple[list[float], list[float]]:
    """The off-diagonal moduli and the diagonal of a tridiagonal matrix
    unitarily similar to the Hermitian `a` (full rows, overwritten).

    Column k is reduced by the reflection I - w w^H that maps the entries
    x below the diagonal to -e^{i arg x_0} |x| e_1, so the k-th
    off-diagonal modulus is |x|, and the trailing block B becomes
    B - w q^H - q w^H with p = B w and q = p - (w^H p / 2) w.  A column
    already zero below its first entry (or so small that the squares of
    those entries underflow) is left as it is, and so is the last one.
    """
    n = len(a)
    diag, sub = [], []
    for k in range(n - 1):
        diag.append(a[k][k].real)
        m = k + 1
        block = a[m:]
        x = [row[k] for row in block]
        r0 = abs(x[0])
        s = sum(v.real * v.real + v.imag * v.imag for v in x[1:])
        norm = math.sqrt(r0 * r0 + s)
        sub.append(norm)
        if s <= sys.float_info.min:
            continue
        x[0] += (x[0] / r0 if r0 else 1.0) * norm  # v = x - alpha e_1
        c = 1.0 / math.sqrt(norm * (norm + r0))  # sqrt(2 / v^H v)
        w = [c * v for v in x]
        wc = [v.conjugate() for v in w]
        p = [sum(map(mul, row[m:], w)) for row in block]
        half = 0.5 * sum(map(mul, wc, p)).real
        q = [pi - half * wi for pi, wi in zip(p, w)]
        qc = [v.conjugate() for v in q]
        for row, wi, qi in zip(block, w, q):
            row[m:] = [b - wi * y - qi * z for b, y, z in zip(row[m:], qc, wc)]
    diag.append(a[n - 1][n - 1].real)
    return sub, diag


def torus_seifert(ell: int) -> SeifertSystem:
    """Seifert system of the (2,2l)-torus link from its standard C-complex.

    For ell > 0 the rank is ell-1 with A^{++} upper bidiagonal: -1 on the
    diagonal, +1 on the superdiagonal, A^{--} its transpose and the mixed
    matrices zero.  The mirror (ell < 0) flips every sign, which reproduces
    the determinant recurrence shifted by pi.
    """
    check_ell(ell)
    rank = abs(ell) - 1
    sign = 1 if ell > 0 else -1
    upper = []
    for i in range(rank):
        upper.append((i, i, -sign))
        if i + 1 < rank:
            upper.append((i, i + 1, sign))
    lower = tuple(sorted((j, i, v) for i, j, v in upper))
    return SeifertSystem(2, rank, {"++": tuple(upper), "+-": (), "-+": (), "--": lower})


def _minor_terms(ell: int, alpha: AnglePair, m: int) -> tuple[float, float]:
    """(sin(a1) sin(a2), a1 + a2) for the m-th minor, once ell > 0 and 1 <= m <= ell."""
    if check_ell(ell) < 1:
        raise ValueError("ell must be a positive integer")
    if not 1 <= m <= ell:
        raise ValueError(f"m must lie in [1, {ell}]")
    a1, a2 = alpha.radians
    return math.sin(a1) * math.sin(a2), a1 + a2


def delta_recursive(ell: int, alpha: AnglePair, m: int) -> float:
    """m-th leading principal minor of H for the (2,2l)-torus system, ell > 0.

    delta_1 = 1, delta_2 = 8 sin(a1) sin(a2) cos(a1+a2), and
    delta_{m+1} = 8 sin(a1) sin(a2) cos(a1+a2) delta_m
                  - 16 sin^2(a1) sin^2(a2) delta_{m-1}.

    The minors scale like (4 sin a1 sin a2)^(m-1), so at rank ~60 and above
    with small angles a nonzero minor underflows to +/-0.0 (delta_closed
    too).  A zero from either is no evidence of the root locus: test that
    with is_defined.
    """
    s, x = _minor_terms(ell, alpha, m)
    diag = 8.0 * s * math.cos(x)
    prev, cur = 0.0, 1.0  # determinants of the (-1)x(-1) and empty minors
    for _ in range(m - 1):
        prev, cur = cur, diag * cur - 16.0 * s * s * prev
    return cur


def delta_closed(ell: int, alpha: AnglePair, m: int) -> float:
    """Closed form: delta_m = 4^{m-1} sin^{m-1}(a1) sin^{m-1}(a2) U_{m-1}(cos(a1+a2)).

    Underflows to +/-0.0 like delta_recursive; see there.  Past the float
    range the power raises OverflowError, as it does at ell = m = 10**6 and
    alpha = (0.4, 0.9) radians.
    """
    from .chebyshev import eval_U  # here, so that a cold sigma never loads it

    s, x = _minor_terms(ell, alpha, m)
    return (4.0 * s) ** (m - 1) * eval_U(m - 1, math.cos(x))


def sigma_eval(s: SeifertSystem, omegas: list[complex]) -> int:
    """Signature of H(omega) by the Hermitian eigenvalue engine.

    Emits NullityWarning when near-zero eigenvalues are present, which
    signals omega on (or numerically near) the Alexander root locus.
    """
    ine = inertia(build_H(s, omegas))
    if ine.n_zero > 0:
        warnings.warn(
            NullityWarning(
                f"H(omega) has {ine.n_zero} near-zero eigenvalue(s); "
                "omega is on or near the root locus"
            ),
            stacklevel=2,
        )
    return ine.signature


def symmetrized_sigma(link, alpha: AnglePair):
    """-1/2 (sigma(omega1, omega2) + sigma(omega1, omega2^{-1})), a Fraction.

    `link` is either an integer linking number (torus closed form) or a
    SeifertSystem (generic engine).  Always a half-integer; an integer on
    the torus family.
    """
    from fractions import Fraction  # imported here, so a cold `sigma` loads no fractions

    if isinstance(link, SeifertSystem):
        w1, w2 = alpha.omega()
        s1 = sigma_eval(link, [w1, w2])
        s2 = sigma_eval(link, [w1, w2.conjugate()])
    else:
        # the flipped pair's angle sum lies in the second strip
        s1, s2 = (strip_sigma(link, i) for i in defined_strips(link, alpha))
    return Fraction(-(s1 + s2), 2)


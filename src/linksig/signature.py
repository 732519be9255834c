"""Multivariable link signatures from generalized Seifert matrices.

The generic engine takes the 2^mu integer matrices A^eps of a C-complex
(keyed by sign vectors eps in {+,-}^mu, with A^{-eps} the transpose of
A^eps), assembles the Hermitian matrix

    H(omega) = prod_i (1 - conj(omega_i)) * sum_eps eps_1..eps_mu
               * omega_1^{(1-eps_1)/2} .. omega_mu^{(1-eps_mu)/2} * A^eps,

and reports its inertia.  The signature of H is the multivariable
(Cimasoni-Florens) signature of the colored link at omega.

A system is stored as the nonzero integer entries of its matrices, with
A^{-eps} = (A^eps)^T checked once when it is built.  When they all lie on
the three diagonals, as for every (2,2l)-torus system and every system of
rank <= 2, H is tridiagonal: build_H returns its lower band as a Band,
Hermitian by type.  Any other system gives a Dense, its rows as lists, which
inertia first reduces to a band by Householder reflections in O(n^3), a
backward stable step (Wilkinson 1965, The Algebraic Eigenvalue Problem).
Every band is then counted by Sturm sequences in O(n).  A tridiagonal count
is exact for entries with small relative errors (Barth, Martin and
Wilkinson 1967), so nothing is lost against the eigenvalues, and it
computes none: by Sylvester's law of inertia the signs of the pivots are
those of the eigenvalues.  Nothing here imports numpy.

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
from itertools import chain
from operator import mul
from types import MappingProxyType

from ._values import Frozen, Record
from .chebyshev import eval_U
from .errors import BadSystemError, NullityWarning, OmegaOneError
from .torus_rep import AnglePair, check_ell, defined_strips, strip_sigma
from .torus_rep import sigma_torus_closed  # noqa: F401  (re-exported)

EIG_ZERO_SCALE = 1e-9
_SIGNS = str.maketrans("01", "+-")


def _eps_key(mu: int, i: int) -> str:
    """The i-th of the 2^mu sign vectors, whose "-" signs are the 1 bits of i."""
    return format(i, f"0{mu}b").translate(_SIGNS)


def _eps_keys(mu: int) -> list[str]:
    return [_eps_key(mu, i) for i in range(2**mu)]


def _neg_key(key: str) -> str:
    return "".join("-" if ch == "+" else "+" for ch in key)


class SeifertSystem(Frozen):
    """The 2^mu integer Seifert matrices of a C-complex, keyed by sign vector.

    `entries` maps each sign vector to the nonzero entries (i, j, v) of its
    matrix, row by row, and `nonzero` lists the keys with an entry.  Systems
    compare by mu, rank and entries.  Built by seifert_system, which
    validates its input, and by torus_seifert.

    Building one checks A^{-eps} = (A^eps)^T, so every H(omega) is
    Hermitian.  The rest is derived for build_H.  `columns` holds, for
    each position of H that it fills, the entries of the nonzero matrices
    there, in `nonzero` order.  When every entry lies on the three diagonals,
    `cells` is None and the positions are the sub- and main diagonal in turn.
    Otherwise `cells` lists the positions that some entry fills.
    """

    __slots__ = ("mu", "rank", "entries", "nonzero", "cells", "columns")

    def __init__(self, mu: int, rank: int, entries):
        entries = dict(entries)  # a mapping, or its items as _fields gives them
        for k, e in entries.items():  # each pair twice; a "+" key, listed first, names it
            if sorted(entries.get(_neg_key(k), ())) != sorted((j, i, v) for i, j, v in e):
                pair = f"({k}, {_neg_key(k)})"
                raise BadSystemError(f"transpose invariant violated for sign pair {pair}")
        nonzero = tuple(k for k, e in entries.items() if e)
        pattern = {}
        for slot, key in enumerate(nonzero):
            for i, j, v in entries[key]:
                pattern.setdefault((i, j), [0] * len(nonzero))[slot] = v
        if all(-1 <= i - j <= 1 for i, j in pattern):
            cells = None
            band = [(i + 1, i) for i in range(rank - 1)] + [(i, i) for i in range(rank)]
        else:
            cells = band = tuple(sorted(pattern))
        zero = (0,) * len(nonzero)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "nonzero", nonzero)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "columns", tuple(tuple(pattern.get(c, zero)) for c in band))

    def _fields(self) -> tuple:
        # equality, hash, copy and pickle read these; the rest is derived
        return (self.mu, self.rank, tuple(self.entries.items()))

    def matrix(self, key: str) -> list[list[int]]:
        """The matrix A^key as nested lists."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for i, j, v in self.entries[key]:
            rows[i][j] = v
        return rows


def _entry(key: str, v) -> int:
    """One matrix entry as an int; raises TypeError if it is no number."""
    if type(v) is not int:
        if hasattr(v, "tolist"):  # a numpy scalar
            v = v.tolist()
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TypeError(f"entry {v!r}")
        if isinstance(v, float) and not v.is_integer():
            raise BadSystemError(f"matrix {key} has non-integer entries")
    if not -(2**63) <= v < 2**63:
        raise BadSystemError(
            f"matrix {key} entry {v!r} is outside the int64 range [-2^63, 2^63)"
        )
    return int(v)


def _matrix_entries(key: str, m) -> tuple[int, tuple]:
    """The rank and the nonzero entries (i, j, v), row by row, of one matrix
    given as nested lists or a numpy array; every entry is checked first."""
    if hasattr(m, "tolist"):  # a numpy array, read without importing numpy
        m = m.tolist()
    square = isinstance(m, (list, tuple))
    rows = m if square else [m]
    entries, size = [], 0
    for i, row in enumerate(rows):
        if hasattr(row, "tolist"):
            row = row.tolist()
        if not isinstance(row, (list, tuple)):  # m is a number or a vector
            row, square = [row], False
        square = square and len(row) == len(rows)
        size += len(row)
        for j, v in enumerate(row):
            v = _entry(key, v)
            if v:
                entries.append((i, j, v))
    if not size:
        return 0, ()
    if not square:
        raise BadSystemError(f"matrix {key} is not square")
    return len(rows), tuple(entries)


def seifert_system(mu: int, matrices: Mapping) -> SeifertSystem:
    """Validate a Seifert system; raises BadSystemError on violation.

    Each matrix may be nested lists or a numpy array of integers; integral
    floats are accepted, and every entry must fit in int64.
    """
    if not isinstance(mu, int) or isinstance(mu, bool) or mu < 1:
        raise BadSystemError("mu must be a positive integer")
    if not isinstance(matrices, Mapping):
        raise BadSystemError("matrices must map sign vectors to matrices")
    # each key is checked on its own, and the 2^mu sign vectors are listed
    # only once there are as many matrices: a large mu never forms 2^mu
    extra = [
        k for k in matrices
        if not (isinstance(k, str) and len(k) == mu and not k.strip("+-"))
    ]
    if extra:
        shown = ", ".join(reprlib.repr(k) for k in extra[:3])
        raise BadSystemError(f"unexpected keys: {shown} ({len(extra)} in all)")
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
    if not isinstance(data["rank"], int) or isinstance(data["rank"], bool):
        raise BadSystemError("rank must be an integer")
    system = seifert_system(data["mu"], data["matrices"])
    if system.rank != data["rank"]:
        raise BadSystemError(
            f"declared rank {data['rank']} != actual rank {system.rank}"
        )
    return system


class Band(Record):
    """A Hermitian tridiagonal matrix by its lower band: the sub-diagonal, a
    list of complex numbers, and the diagonal, a list of reals.  The upper
    diagonal is conj(sub), so the matrix is Hermitian by type; `shape` is
    that of the matrix."""

    __slots__ = ("sub", "diag")

    def __init__(self, sub: list[complex], diag: list[float]):
        self.sub, self.diag = sub, diag

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diag), len(self.diag))


class Dense(Record):
    """A square matrix by its rows, each a list of complex numbers; `shape`
    is that of the matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[complex]]):
        self.rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows))


def build_H(s: SeifertSystem, omegas: list[complex]) -> Band | Dense:
    """The Hermitian matrix H(omega) of the system at unit omega, all != 1:
    a Band, its diagonal real, when s.cells is None, else a Dense."""
    if len(omegas) != s.mu:
        raise ValueError(f"expected {s.mu} omega values, got {len(omegas)}")
    for w in omegas:
        if abs(w - 1.0) < 1e-12:
            raise OmegaOneError("omega_i = 1 is outside the domain of the signature")
        if not abs(abs(w) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"omega value {w} is not on the unit circle")
    coeffs = []
    for key in s.nonzero:
        coeff = 1.0 + 0.0j
        for ch, w in zip(key, omegas):
            if ch == "-":
                coeff *= -w
        coeffs.append(coeff)
    scale = 1.0 + 0.0j
    for w in omegas:
        scale *= 1.0 - w.conjugate()
    # one pass over the positions the nonzero matrices fill: a zero matrix
    # would add nothing
    values = [scale * sum(map(mul, coeffs, col)) for col in s.columns]
    n = s.rank
    if s.cells is None:
        m = max(n - 1, 0)
        return Band(values[:m], [v.real for v in values[m:]])
    rows = [[0j] * n for _ in range(n)]
    for (i, j), v in zip(s.cells, values):
        rows[i][j] = v
    return Dense(rows)


class Inertia(Frozen):
    __slots__ = ("n_pos", "n_neg", "n_zero")

    def __init__(self, n_pos: int, n_neg: int, n_zero: int):
        object.__setattr__(self, "n_pos", n_pos)
        object.__setattr__(self, "n_neg", n_neg)
        object.__setattr__(self, "n_zero", n_zero)

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg

    @property
    def rank(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero


def inertia(h: Band | Dense | list[list[complex]]) -> Inertia:
    """Eigenvalue counts of a Hermitian matrix; zero threshold scales with size.

    With tau = EIG_ZERO_SCALE * max|h| * n the counts are strict:
    n_pos = #(lambda > tau) and n_neg = #(lambda < -tau).  h must be square,
    finite and Hermitian to within 1e-12 * max(1, max|h|); a ValueError names
    the first check that fails.  A Band's upper diagonal is conj(sub), so only
    its diagonal can fail the last; any other layout, a Dense, nested lists
    or an array with tolist(), has each entry checked against its mirror.
    Like eigvalsh the count reads the lower triangle, of h / max|h| so that
    |h_ij|^2 neither under- nor overflows at any scale of h.  A Band gives
    its diagonals directly; any other h is first reduced to a band by
    Householder reflections in O(n^3) (_householder_band).  Two Sturm counts
    of the band, in O(n), give the inertia.  None of it needs numpy.
    """
    # `parts` chain to every entry; `lower` runs over the entries that the
    # layout does not make Hermitian and `upper` over those that mirror them
    if isinstance(h, Band):
        n = len(h.diag)
        square = len(h.sub) == max(n - 1, 0)
        parts = (h.sub, h.diag)
        lower = upper = h.diag
    else:
        rows = h.rows if isinstance(h, Dense) else h
        if hasattr(rows, "tolist"):  # a numpy array, read without importing numpy
            rows = rows.tolist()
        n = len(rows)
        square = all(isinstance(row, (list, tuple)) and len(row) == n for row in rows)
        parts = rows
        lower = (rows[i][j] for i in range(n) for j in range(i + 1))
        upper = (rows[j][i] for i in range(n) for j in range(i + 1))
    if not square:
        raise ValueError("matrix is not square")
    if n == 0:
        return Inertia(0, 0, 0)
    if not all(map(cmath.isfinite, chain(*parts))):
        raise ValueError("matrix has a non-finite entry")
    hmax = max(map(abs, chain(*parts)))
    skew = max(abs(x - y.conjugate()) for x, y in zip(lower, upper))
    if skew > 1e-12 * max(1.0, hmax):
        raise ValueError("matrix is not Hermitian")
    if hmax == 0.0:
        return Inertia(0, 0, n)
    if isinstance(h, Band):
        a = [d.real / hmax for d in h.diag]
        off2 = [0.0]
        for e in h.sub:
            r = abs(e / hmax)
            off2.append(r * r)
    else:
        a, off2 = _householder_band([
            [x / hmax for x in row[:i]] + [row[i].real / hmax]
            + [rows[j][i].conjugate() / hmax for j in range(i + 1, n)]
            for i, row in enumerate(rows)
        ])
    t = EIG_ZERO_SCALE * n  # tau / max|h|
    n_neg = _negative_pivots([x + t for x in a], off2)  # T + t: #(lambda < -tau)
    n_pos = _negative_pivots([t - x for x in a], off2)  # t - T: #(lambda > tau)
    return Inertia(n_pos, n_neg, n - n_pos - n_neg)


def _householder_band(a: list[list[complex]]) -> tuple[list[float], list[float]]:
    """The diagonal and the squared off-diagonal moduli off2[1:] of a
    tridiagonal matrix unitarily similar to the Hermitian `a` (full rows,
    overwritten), in the form _negative_pivots reads.

    Column k is reduced by the reflection I - w w^H that maps the entries
    x below the diagonal to -e^{i arg x_0} |x| e_1, so the k-th
    off-diagonal modulus is |x|, and the trailing block B becomes
    B - w q^H - q w^H with p = B w and q = p - (w^H p / 2) w.  A column
    already zero below its first entry (or so small that the squares of
    those entries underflow) is left as it is, and so is the last one.
    """
    n = len(a)
    diag, off2 = [], [0.0]
    for k in range(n - 1):
        diag.append(a[k][k].real)
        m = k + 1
        block = a[m:]
        x = [row[k] for row in block]
        r0 = abs(x[0])
        s = sum(v.real * v.real + v.imag * v.imag for v in x[1:])
        off2.append(r0 * r0 + s)
        if s <= sys.float_info.min:
            continue
        norm = math.sqrt(r0 * r0 + s)
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
    return diag, off2


def _negative_pivots(diag: list[float], off2: list[float]) -> int:
    """Number of negative eigenvalues of the Hermitian tridiagonal matrix
    with real diagonal `diag` and squared off-diagonal moduli off2[1:].

    It is the number of negative pivots d_i = diag_i - off2_i / d_{i-1} of
    its LDL^H factorisation (Sylvester's law of inertia).  The pivots of
    M - xI fall as x grows, so one that is exactly 0 at x = 0 is positive
    for x just below 0.  Taking it as the least positive float therefore
    counts eigenvalues strictly below 0, and the next pivot then falls to
    about -off2 / 0.
    """
    count = 0
    d = 1.0
    for a, e2 in zip(diag, off2):
        d = a - e2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = sys.float_info.min
    return count


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
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if not 1 <= m <= ell:
        raise ValueError(f"m must lie in [1, {ell}]")
    a1, a2 = alpha.radians
    s = math.sin(a1) * math.sin(a2)
    diag = 8.0 * s * math.cos(a1 + a2)
    prev, cur = 0.0, 1.0  # determinants of the (-1)x(-1) and empty minors
    for _ in range(m - 1):
        prev, cur = cur, diag * cur - 16.0 * s * s * prev
    return cur


def delta_closed(ell: int, alpha: AnglePair, m: int) -> float:
    """Closed form: delta_m = 4^{m-1} sin^{m-1}(a1) sin^{m-1}(a2) U_{m-1}(cos(a1+a2)).

    Underflows to +/-0.0 like delta_recursive; see there.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if not 1 <= m <= ell:
        raise ValueError(f"m must lie in [1, {ell}]")
    a1, a2 = alpha.radians
    s = math.sin(a1) * math.sin(a2)
    return (4.0 * s) ** (m - 1) * eval_U(m - 1, math.cos(a1 + a2))


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
            )
        )
    return ine.signature


def symmetrized_sigma(link, alpha: AnglePair) -> Fraction:
    """-1/2 (sigma(omega1, omega2) + sigma(omega1, omega2^{-1})).

    `link` is either an integer linking number (torus closed form) or a
    SeifertSystem (generic engine).  Always a half-integer; an integer on
    the torus family.
    """
    from fractions import Fraction

    if isinstance(link, SeifertSystem):
        w1, w2 = alpha.omega()
        s1 = sigma_eval(link, [w1, w2])
        s2 = sigma_eval(link, [w1, w2.conjugate()])
    else:
        # the flipped pair's angle sum lies in the second strip
        s1, s2 = (strip_sigma(link, i) for i in defined_strips(link, alpha))
    return Fraction(-(s1 + s2), 2)


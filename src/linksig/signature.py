"""Multivariable link signatures from generalized Seifert matrices.

The generic engine takes the 2^mu integer matrices A^eps of a C-complex
(keyed by sign vectors eps in {+,-}^mu, with A^{-eps} the transpose of
A^eps), assembles the Hermitian matrix

    H(omega) = prod_i (1 - conj(omega_i)) * sum_eps eps_1..eps_mu
               * omega_1^{(1-eps_1)/2} .. omega_mu^{(1-eps_mu)/2} * A^eps,

and reports its inertia.  The signature of H is the multivariable
(Cimasoni-Florens) signature of the colored link at omega.

For the (2,2l)-torus family everything is also available in closed form:
the leading principal minors of H satisfy a three-term recurrence solved
by Chebyshev polynomials of the second kind, which yields a piecewise
constant signature formula in alpha1 + alpha2 (Sylvester's criterion).
That closed form, sigma_torus_closed, lives with the strip kernel in
torus_rep and is re-exported here.  Both routes are kept and
cross-checked by the test suite.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import warnings
from collections.abc import Mapping
from typing import TYPE_CHECKING

from ._values import Frozen
from .chebyshev import eval_U
from .errors import BadSystemError, NullityWarning, OmegaOneError
from .torus_rep import AnglePair, check_ell, defined_strips, strip_sigma
from .torus_rep import sigma_torus_closed  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    import numpy as np

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

    Built by seifert_system, which also records in `nonzero` the keys of the
    matrices with a nonzero entry, in the order of `matrices`.
    """

    __slots__ = ("mu", "rank", "matrices", "nonzero")
    __eq__ = object.__eq__  # equal only to itself: the matrices are numpy arrays
    __hash__ = object.__hash__

    def __init__(
        self, mu: int, rank: int, matrices: dict[str, np.ndarray], nonzero: tuple[str, ...]
    ):
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "nonzero", nonzero)

    def __reduce__(self):
        # rebuild through seifert_system, so a copy or an unpickled system is
        # validated, read-only and derives its own record
        return (seifert_system, (self.mu, self.matrices))


def seifert_system(mu: int, matrices: Mapping) -> SeifertSystem:
    """Validate and freeze a Seifert system; raises BadSystemError on violation."""
    import numpy as np

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
    keys = _eps_keys(mu)
    mats = {}
    borrowed = set()  # keys whose matrix is still the caller's array
    rank = None
    for k in keys:
        try:
            m = given = matrices[k]
            if not (isinstance(m, np.ndarray) and m.dtype.kind == "i"):
                # numpy would wrap an entry beyond int64, read true as 1 and
                # drop an imaginary part, so each entry is checked first
                m = np.array(m, dtype=object)
                for v in m.flat:
                    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer)):
                        raise TypeError(f"entry {v!r}")
                    if isinstance(v, float) and not v.is_integer():
                        raise BadSystemError(f"matrix {k} has non-integer entries")
                    if not -(2**63) <= int(v) < 2**63:
                        raise BadSystemError(
                            f"matrix {k} entry {v!r} is outside the int64 range [-2^63, 2^63)"
                        )
            m = m.astype(np.int64, copy=False)
        except BadSystemError:
            raise
        except (TypeError, ValueError) as exc:
            raise BadSystemError(f"matrix {k} is not numeric: {exc}") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            if m.size == 0:
                m = m.reshape(0, 0)
            else:
                raise BadSystemError(f"matrix {k} is not square")
        if rank is None:
            rank = m.shape[0]
        elif m.shape[0] != rank:
            raise BadSystemError(f"matrix {k} has rank {m.shape[0]}, expected {rank}")
        mats[k] = m
        if m is given:
            borrowed.add(k)
    # keys[:half] lead with "+" and their partners with "-"; keep one matrix
    # per pair, copied if it is the caller's array, store the partner as its
    # read-only transpose and a zero pair as a read-only broadcast of one 0,
    # so the caller's arrays stay untouched
    zero = set()
    for k in keys[: len(keys) // 2]:
        nk = _neg_key(k)
        if not np.array_equal(mats[nk], mats[k].T):
            raise BadSystemError(
                f"transpose invariant violated for sign pair ({k}, {nk})"
            )
        if mats[k].any():
            m = mats[k].copy() if k in borrowed else mats[k]
            m.flags.writeable = False
        else:
            m = np.broadcast_to(np.int64(0), mats[k].shape)
            zero.update((k, nk))
        mats[k], mats[nk] = m, m.T
    nonzero = tuple(k for k in mats if k not in zero)
    return SeifertSystem(mu, rank, mats, nonzero)


def seifert_to_json(s: SeifertSystem) -> dict:
    return {
        "mu": s.mu,
        "rank": s.rank,
        "matrices": {k: s.matrices[k].tolist() for k in _eps_keys(s.mu)},
    }


def seifert_from_json(data) -> SeifertSystem:
    """Load a Seifert system from a JSON string or an already-parsed dict."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
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


def build_H(s: SeifertSystem, omegas: list[complex]) -> np.ndarray:
    """The Hermitian matrix H(omega) of the system at unit omega, all != 1."""
    import numpy as np

    if len(omegas) != s.mu:
        raise ValueError(f"expected {s.mu} omega values, got {len(omegas)}")
    for w in omegas:
        if abs(w - 1.0) < 1e-12:
            raise OmegaOneError("omega_i = 1 is outside the domain of the signature")
        if not abs(abs(w) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"omega value {w} is not on the unit circle")
    # with every coefficient finite, a zero matrix would add only +-0 to
    # entries that never hold -0, so summing the nonzero ones alone gives
    # the same bits
    acc = np.zeros((s.rank, s.rank), dtype=complex)
    # summing into H's real and imaginary views needs one real n x n temporary
    re, im = acc.real, acc.imag
    for key in s.nonzero:
        coeff = 1.0 + 0.0j
        for ch, w in zip(key, omegas):
            if ch == "-":
                coeff *= -w
        re += coeff.real * s.matrices[key]
        im += coeff.imag * s.matrices[key]
    scale = 1.0 + 0.0j
    for w in omegas:
        scale *= 1.0 - w.conjugate()
    # in place, scale first: numpy rounds acc * scale differently
    np.multiply(scale, acc, out=acc)
    return acc


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


def inertia(h: np.ndarray) -> Inertia:
    """Eigenvalue counts of a Hermitian matrix; zero threshold scales with size.

    With tau = EIG_ZERO_SCALE * max|h| * n the counts are strict:
    n_pos = #(lambda > tau) and n_neg = #(lambda < -tau).  A tridiagonal h
    (every torus system gives one) is counted by Sturm sequences in O(n),
    after one vectorised pass that finds no entry off its band; any other
    h by its eigenvalues.
    """
    import numpy as np

    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if n == 0:
        return Inertia(0, 0, 0)
    counted = _tridiagonal_inertia(h)
    if counted is not None:
        return counted
    hmax = np.max(np.abs(h))
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * max(1.0, hmax):
        raise ValueError("matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(h)
    tau = EIG_ZERO_SCALE * hmax * n
    n_pos = int(np.sum(eigs > tau))
    n_neg = int(np.sum(eigs < -tau))
    return Inertia(n_pos, n_neg, n - n_pos - n_neg)


def _tridiagonal_inertia(h: np.ndarray) -> Inertia | None:
    """inertia() of a square h that is zero off its three diagonals, else None.

    The sub-, main and super-diagonals are copied once into one band vector,
    and h is tridiagonal when the band holds as many nonzero real and
    imaginary parts as h does.  The Hermitian check on the band is then the
    whole check.  Like eigvalsh, the count reads the lower triangle.  It
    works on h / max|h|, so |e|^2 neither underflows nor overflows, and it
    carries pivot ratios only: the leading minors themselves underflow
    (rank 199 at small angles).
    """
    import numpy as np

    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return None
    n = h.shape[0]
    band = np.concatenate((h.diagonal(-1), h.diagonal(), h.diagonal(1)))
    # counting a comparison's bools is several times faster than counting floats
    parts = np.ascontiguousarray(h).view(np.float64)
    if np.count_nonzero(band.view(np.float64) != 0.0) != np.count_nonzero(parts != 0.0):
        return None
    sub, diag, sup = band[: n - 1], band[n - 1 : 2 * n - 1], band[2 * n - 1 :]
    hmax = np.abs(band).max()
    # |d - conj(d)| is exactly 2|Im d|
    skew = np.abs(sup - sub.conj()).max(initial=2.0 * np.abs(diag.imag).max())
    if skew > 1e-12 * max(1.0, hmax):
        raise ValueError("matrix is not Hermitian")
    if hmax == 0.0:
        return Inertia(0, 0, n)
    t = EIG_ZERO_SCALE * n  # tau / max|h|
    a = diag.real / hmax
    off2 = [0.0] + (np.abs(sub / hmax) ** 2).tolist()
    n_neg = _negative_pivots((a + t).tolist(), off2)  # T + t: #(lambda < -tau)
    n_pos = _negative_pivots((t - a).tolist(), off2)  # t - T: #(lambda > tau)
    return Inertia(n_pos, n_neg, n - n_pos - n_neg)


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
    import numpy as np

    check_ell(ell)
    rank = abs(ell) - 1
    sign = 1 if ell > 0 else -1
    app = np.zeros((rank, rank), dtype=np.int64)
    np.fill_diagonal(app, -sign)
    np.fill_diagonal(app[:, 1:], sign)
    zero = np.zeros((rank, rank), dtype=np.int64)
    return seifert_system(
        2, {"++": app, "+-": zero, "-+": zero, "--": app.T}
    )


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


"""Exact sign arithmetic for numbers of the form p + q*sqrt(D), p, q, D rational.

Eigendirection slopes of rational matrices live in quadratic extensions; the
comparisons needed by cyclic-order tests reduce to signs of differences of
two such values, which resolve by at most two squarings.  The slopes read
any determinant, and a positive multiple of a matrix has its eigendirections,
so exact_unstable_dir(n) and exact_stable_dir(n) of the integer matrix
n = s*M that sl2core.integer_scaled gives are M's directions.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import DegenerateTie


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sign_p_q_sqrtD(p: Fraction, q: Fraction, D: Fraction) -> int:
    """Sign of p + q*sqrt(D) with D >= 0."""
    if q == 0 or D == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    sp, sq = _sign(p), _sign(q)
    if sp == sq:
        return sp
    cmp = _sign(p * p - q * q * D)  # |p|^2 vs |q sqrt(D)|^2
    if cmp == 0:
        return 0
    return sp if cmp > 0 else sq


class QuadVal(Record):
    """p + q*sqrt(D) with rational (Fraction) p, q and rational D >= 0."""

    __slots__ = ("p", "q", "D")

    @staticmethod
    def rational(x) -> "QuadVal":
        return QuadVal(Fraction(x), Fraction(0), Fraction(0))

    def sign(self) -> int:
        return sign_p_q_sqrtD(self.p, self.q, self.D)

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * float(self.D) ** 0.5


def compare(a: QuadVal, b: QuadVal) -> int:
    """Sign of a - b, exactly."""
    u = a.p - b.p
    aq = a.q if a.D != 0 else Fraction(0)
    bq = b.q if b.D != 0 else Fraction(0)
    # sv = sign of v = aq*sqrt(aD) - bq*sqrt(bD)
    sa = _sign(aq)
    sb = _sign(bq)
    if sa == 0 and sb == 0:
        return _sign(u)
    if sa == 0:
        sv = -sb
    elif sb == 0:
        sv = sa
    elif sa != sb:
        sv = sa
    else:
        sv = sa * _sign(aq * aq * a.D - bq * bq * b.D)
    if u == 0:
        return sv
    su = _sign(u)
    if sv == 0 or su == sv:
        return su
    # opposite signs: u^2 vs v^2 = aq^2 aD + bq^2 bD - 2 aq bq sqrt(aD bD)
    h = u * u - aq * aq * a.D - bq * bq * b.D
    s2 = sign_p_q_sqrtD(h, 2 * aq * bq, a.D * b.D)  # sign of u^2 - v^2
    if s2 == 0:
        return 0
    return su if s2 > 0 else sv


class ExactDir(Record):
    """Direction on P1 ordered by angle in [0, pi).

    kind 0: slope >= 0 (angle in [0, pi/2)), kind 1: vertical (pi/2),
    kind 2: slope < 0 (angle in (pi/2, pi)); slope is a QuadVal, None for
    the vertical.
    """

    __slots__ = ("kind", "slope")

    @staticmethod
    def from_slope(s: QuadVal) -> "ExactDir":
        return ExactDir(0 if s.sign() >= 0 else 2, s)

    @staticmethod
    def vertical() -> "ExactDir":
        return ExactDir(1, None)


def compare_dirs(a: ExactDir, b: ExactDir) -> int:
    """Order by angle in [0, pi)."""
    if a.kind != b.kind:
        return -1 if a.kind < b.kind else 1
    if a.kind == 1:
        return 0
    return compare(a.slope, b.slope)


def _eigen_slope(a: Fraction, b: Fraction, c: Fraction, d: Fraction,
                 unstable: bool) -> ExactDir:
    """Eigendirection slope of a rational matrix with tr^2 >= 4 det."""
    t = a + d
    D = t * t - 4 * (a * d - b * c)
    if b != 0:
        sgn_t = 1 if t >= 0 else -1
        half = Fraction(sgn_t if unstable else -sgn_t, 2)
        # direction (b, lam - a) with lam = t/2 + half*sqrt(D)
        return ExactDir.from_slope(QuadVal((t - 2 * a) / (2 * b), half / b, D))
    # lower triangular: the eigenvalues are a and d themselves
    if a == d:  # parabolic shear along the vertical axis
        return ExactDir.vertical()
    want_a = (abs(a) > abs(d)) == unstable
    if want_a:
        # eigenvector (a - d, c) for the eigenvalue a
        return ExactDir.from_slope(QuadVal.rational(Fraction(c, a - d)))
    return ExactDir.vertical()


def exact_unstable_dir(m) -> ExactDir:
    return _eigen_slope(Fraction(m.a), Fraction(m.b), Fraction(m.c),
                        Fraction(m.d), unstable=True)


def exact_stable_dir(m) -> ExactDir:
    return _eigen_slope(Fraction(m.a), Fraction(m.b), Fraction(m.c),
                        Fraction(m.d), unstable=False)


def exact_cyclically_ordered(dirs) -> bool:
    """True iff the distinct directions occur in the listed cyclic order."""
    dirs = list(dirs)
    base = dirs[0]

    def position(d: ExactDir) -> tuple[int, ExactDir]:
        c = compare_dirs(d, base)
        if c == 0:
            raise DegenerateTie("coincident directions")
        return (0 if c > 0 else 1, d)  # wrapped past the base point?

    def less(x, y) -> bool:
        (wx, dx), (wy, dy) = x, y
        if wx != wy:
            return wx < wy
        return compare_dirs(dx, dy) < 0

    pos = [position(d) for d in dirs[1:]]
    return all(less(pos[i], pos[i + 1]) for i in range(len(pos) - 1))

"""Geometry of the projective circle P1.

A point of P1 is the line through the origin spanned by (cos a, sin a); the
angle a is canonicalized into [0, pi).  P1 is a circle of circumference pi,
oriented by increasing angle (every determinant-one matrix acts on it by an
orientation-preserving homeomorphism).

Cross-ratios are computed projectively: with points given by angles, every
chart difference c - a equals sin(ac - aa) up to a cosine factor that cancels
in the full ratio, so

    [a, b, c, d] = sin(c-a) sin(d-b) / (sin(b-a) sin(d-c))

with all differences taken between representative angles.  Each point enters
one numerator and one denominator factor, so the pi-ambiguity of
representatives cancels and the value is chart-independent.  This evaluates
the textbook formula without ever forming a near-infinite chart coordinate,
which is the conditioning the chart-at-infinity trick is after.

The Hilbert metric of an open arc I with endpoints a, b is
d_I(x, y) = |log [a, x, y, b]|; its density at angle t inside I is

    rho_I(t) = sin(L) / (sin(t - a) sin(a + L - t)),   L = arc length,

obtained by differentiating the cross-ratio in one argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput, OutOfArc
from .tolerances import DEFAULT

PI = math.pi


def norm_angle(a: float) -> float:
    """Reduce an angle into [0, pi)."""
    a = math.fmod(a, PI)
    if a < 0.0:
        a += PI
    if a >= PI:
        a = 0.0
    return a


def angle_gap(a: float, b: float) -> float:
    """Length of the positively oriented arc from a to b, in [0, pi)."""
    return (b - a) % PI


def angle_dist(a: float, b: float) -> float:
    """Distance on the circle of circumference pi."""
    g = (a - b) % PI
    return min(g, PI - g)


def same_angle(a: float, b: float, tol: float = DEFAULT.angle) -> bool:
    return angle_dist(a, b) <= tol


@dataclass(frozen=True)
class ProjPoint:
    """A direction in the plane, i.e. a point of P1."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", norm_angle(float(self.angle)))

    @staticmethod
    def from_vector(x: float, y: float) -> "ProjPoint":
        if x == 0.0 and y == 0.0:
            raise DegenerateInput("zero vector spans no direction")
        return ProjPoint(math.atan2(float(y), float(x)))

    @staticmethod
    def from_slope(s: float) -> "ProjPoint":
        return ProjPoint(math.atan2(float(s), 1.0))

    def vector(self) -> tuple[float, float]:
        return (math.cos(self.angle), math.sin(self.angle))

    def close_to(self, other: "ProjPoint", tol: float = DEFAULT.angle) -> bool:
        return same_angle(self.angle, other.angle, tol)


def _require_distinct(points, tol: float):
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if same_angle(points[i].angle, points[j].angle, tol):
                raise DegenerateInput(
                    f"points {i} and {j} coincide within tolerance {tol}"
                )


def cyclic_between(a: ProjPoint, b: ProjPoint, c: ProjPoint,
                   tol: float = DEFAULT.angle) -> bool:
    """True iff b lies strictly inside the positively oriented arc from a to c."""
    _require_distinct((a, b, c), tol)
    return angle_gap(a.angle, b.angle) < angle_gap(a.angle, c.angle)


def cyclically_ordered(points, tol: float = DEFAULT.angle) -> bool:
    """True iff the points occur on P1 in the listed cyclic order."""
    pts = list(points)
    _require_distinct(pts, tol)
    base = pts[0].angle
    gaps = [angle_gap(base, p.angle) for p in pts[1:]]
    return all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1))


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint,
                tol: float = DEFAULT.angle) -> float:
    _require_distinct((a, b, c, d), tol)
    s = math.sin
    aa, ab, ac, ad = a.angle, b.angle, c.angle, d.angle
    return (s(ac - aa) * s(ad - ab)) / (s(ab - aa) * s(ad - ac))


@dataclass(frozen=True)
class ArcP1:
    """Open arc running from start to end in the positive (increasing) sense."""

    start: ProjPoint
    end: ProjPoint

    def __post_init__(self):
        if angle_gap(self.start.angle, self.end.angle) == 0.0:
            raise DegenerateInput("arc endpoints coincide")

    @staticmethod
    def from_angles(start: float, end: float) -> "ArcP1":
        return ArcP1(ProjPoint(start), ProjPoint(end))

    @property
    def length(self) -> float:
        return angle_gap(self.start.angle, self.end.angle)

    @property
    def span(self) -> Span:
        return (self.start.angle, self.length)

    @property
    def midpoint(self) -> ProjPoint:
        return ProjPoint(self.start.angle + 0.5 * self.length)

    def offset_of(self, p: ProjPoint) -> float:
        """Positive-arc distance from start to p (not necessarily inside)."""
        return angle_gap(self.start.angle, p.angle)

    def signed_offset_of(self, angle: float) -> float:
        """Offset from start, with points slightly before start kept negative.

        The window of width (pi - length)/2 behind the start maps to negative
        values, so exact-endpoint float jitter does not wrap around the
        circle; anything further behind lands beyond the far end and reads as
        a large positive offset.
        """
        shift = 0.5 * (PI - self.length)
        return ((angle - self.start.angle + shift) % PI) - shift

    def contains(self, p: ProjPoint, margin: float = 0.0) -> bool:
        """Membership with a signed margin; margin > 0 demands interior depth."""
        off = self.signed_offset_of(p.angle)
        return margin < off < self.length - margin


def hilbert_density(arc: ArcP1, angle: float) -> float:
    """Density of the Hilbert metric of the arc w.r.t. angle length."""
    t = angle_gap(arc.start.angle, angle)
    L = arc.length
    if not 0.0 < t < L:
        raise OutOfArc(f"angle {angle} outside arc for density")
    return math.sin(L) / (math.sin(t) * math.sin(L - t))


def hilbert_dist(arc: ArcP1, x: ProjPoint, y: ProjPoint) -> float:
    """Hilbert distance |log [a, x, y, b]| inside the open arc (a, b)."""
    for p in (x, y):
        if not arc.contains(p):
            raise OutOfArc(f"point at angle {p.angle} is not inside the arc")
    if same_angle(x.angle, y.angle, 0.0):
        return 0.0
    return abs(math.log(cross_ratio(arc.start, x, y, arc.end, tol=0.0)))


def density_extremes(outer: ArcP1, inner: ArcP1) -> tuple[float, float]:
    """(min, max) of the outer arc's Hilbert density over the closed inner arc.

    The density is strictly convex with its minimum at the outer midpoint, so
    the extremes sit at the inner endpoints and, when covered, the midpoint.
    """
    lo_t = outer.offset_of(inner.start)
    hi_t = lo_t + inner.length
    ends = [hilbert_density(outer, inner.start.angle),
            hilbert_density(outer, inner.end.angle)]
    mid_t = 0.5 * outer.length
    if lo_t <= mid_t <= hi_t:
        mn = hilbert_density(outer, outer.midpoint.angle)
    else:
        mn = min(ends)
    return mn, max(ends)


# pi - PI: the part of pi that the float PI drops
PI_LO = 1.2246467991473532e-16
# relative shade on the closed-form contraction, covering its float evaluation
CONTRACTION_SHADE = 1e-12
# contraction reported for an inner arc whose Hilbert diameter rounds to 0
POINT_CONTRACTION = 1e6


def _sin_gap(a: float, b: float) -> float:
    """sin of the positive arc length from a to b, accurate relative to itself.

    The gap is one rounded difference of canonical angles (the wrap adds pi
    in two parts); above pi/2 the sine is taken of the complementary gap, so
    gaps near 0 and near pi both keep their relative accuracy.
    """
    g = b - a
    if g <= 0.0:
        g = (PI - a) + b + PI_LO
    if g > 0.5 * PI:
        g = a - b if a > b else (PI - b) + a + PI_LO
    return math.sin(g)


def contraction_factor(outer: ArcP1, inner: ArcP1) -> float:
    """Guaranteed expansion factor of the inner Hilbert metric over the outer.

    Returns lambda > 1 with d_inner >= lambda * d_outer on the inner arc, for
    inner compactly contained in outer.  The best such lambda is Birkhoff's
    coth(delta / 4), delta the outer Hilbert diameter of the inner arc
    (Birkhoff 1957; Bushell, ARMA 52, 1973).  With the inner arc of length ln
    at offset off inside the outer arc of length L, and rest = L - off - ln,
    the cross-ratio gives

        delta = log1p(sin L sin ln / (sin off sin rest)),

    a product of positive factors with no cancellation, each sine computed by
    _sin_gap from the endpoint angles.  The result is shaded down by
    CONTRACTION_SHADE, well above the few-ulp error of that evaluation.
    """
    if containment_margin(outer, inner.span) <= 0.0:
        raise DegenerateInput("inner arc is not compactly contained in outer arc")
    o0, o1 = outer.start.angle, outer.end.angle
    i0, i1 = inner.start.angle, inner.end.angle
    delta = math.log1p(_sin_gap(o0, o1) * _sin_gap(i0, i1)
                       / (_sin_gap(o0, i0) * _sin_gap(i1, o1)))
    t = math.tanh(0.25 * delta)
    if t <= 0.0:
        return POINT_CONTRACTION
    return (1.0 - CONTRACTION_SHADE) / t


# ---------------------------------------------------------------------------
# circular span arithmetic (used by core iteration and multicone checks)

Span = tuple[float, float]  # (start angle, length), length in [0, pi]


def containment_margin(outer: ArcP1, span: Span) -> float:
    """min(front gap, back gap) when the span (possibly degenerate) sits
    inside the arc, else negative."""
    off = outer.signed_offset_of(span[0])
    return min(off, outer.length - off - span[1])


def merge_spans(spans: list[Span], eps: float = 0.0) -> list[Span]:
    """Union of circular spans, merged into disjoint spans sorted by start.

    Spans whose gap is <= eps are coalesced.  Returns [(0.0, pi)] when the
    union covers the whole circle.
    """
    spans = [(norm_angle(s), ln) for s, ln in spans if ln > 0.0]
    if not spans:
        return []
    if any(ln >= PI - eps for _, ln in spans):
        return [(0.0, PI)]
    items = sorted(spans)
    merged: list[list[float]] = []
    for s, ln in items:
        if merged and s <= merged[-1][0] + merged[-1][1] + eps:
            end = max(merged[-1][0] + merged[-1][1], s + ln)
            merged[-1][1] = end - merged[-1][0]
        else:
            merged.append([s, ln])
    # wrap-around: spans at the end of [0, pi) may reach into spans at the front
    while len(merged) > 1:
        s0, l0 = merged[0]
        s1, l1 = merged[-1]
        if s1 + l1 < s0 + PI - eps:
            break
        ln = max(s0 + l0 + PI, s1 + l1) - s1
        if ln >= PI:
            return [(0.0, PI)]
        merged = merged[1:-1] + [[s1, ln]]
    out = [(norm_angle(s), ln) for s, ln in merged]
    if any(ln >= PI for _, ln in out):
        return [(0.0, PI)]
    out.sort()
    return out


def spans_of_arcs(arcs) -> list[Span]:
    return [a.span for a in arcs]


def arcs_of_spans(spans: list[Span]) -> tuple[ArcP1, ...]:
    return tuple(ArcP1.from_angles(s, s + ln) for s, ln in spans)


@dataclass(frozen=True)
class MultiCone:
    """Finite union of open arcs with pairwise disjoint closures, union != P1."""

    arcs: tuple[ArcP1, ...]

    def __post_init__(self):
        arcs = tuple(sorted(self.arcs, key=lambda a: a.start.angle))
        object.__setattr__(self, "arcs", arcs)
        if not arcs:
            raise DegenerateInput("multicone needs at least one arc")
        total = sum(a.length for a in arcs)
        if total >= PI:
            raise DegenerateInput("arcs cover the whole circle")
        for i in range(len(arcs) - 1):
            if arcs[i].start.angle + arcs[i].length >= arcs[i + 1].start.angle:
                raise DegenerateInput("arc closures are not pairwise disjoint")
        if arcs[-1].start.angle + arcs[-1].length >= arcs[0].start.angle + PI:
            raise DegenerateInput("arc closures are not pairwise disjoint")

    @property
    def rank(self) -> int:
        return len(self.arcs)

    def total_length(self) -> float:
        return sum(a.length for a in self.arcs)

    def complement(self) -> "MultiCone":
        """The gaps between the arcs, as a multicone (complement of the closure)."""
        arcs = []
        n = len(self.arcs)
        for i, a in enumerate(self.arcs):
            b = self.arcs[(i + 1) % n]
            arcs.append(ArcP1(a.end, b.start))
        return MultiCone(tuple(arcs))

    def to_json(self) -> dict:
        return {"arcs": [[a.start.angle, a.end.angle] for a in self.arcs]}

    @staticmethod
    def from_json(data: dict) -> "MultiCone":
        return MultiCone(tuple(ArcP1.from_angles(s, e) for s, e in data["arcs"]))

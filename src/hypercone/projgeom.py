"""Geometry of the projective circle P1.

A point of P1 is the line through the origin spanned by (cos a, sin a); the
angle a is canonicalized into [0, pi).  P1 is a circle of circumference pi,
oriented by increasing angle (every determinant-one matrix acts on it by an
orientation-preserving homeomorphism).

The Hilbert metric of an open arc I with endpoints a, b is
d_I(x, y) = |log [a, x, y, b]|, the cross-ratio of four angles being

    [a, b, c, d] = sin(c-a) sin(d-b) / (sin(b-a) sin(d-c)),

which no chart coordinate enters (tests/reference.py computes it).  The
library reads the metric through its density at angle t inside I,

    rho_I(t) = sin(L) / (sin(t - a) sin(a + L - t)),   L = arc length,

obtained by differentiating the cross-ratio in one argument.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DegenerateInput, OutOfArc

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


class ProjPoint(Record):
    """A direction in the plane, i.e. a point of P1, at an angle in [0, pi)."""

    __slots__ = ("angle",)

    def __init__(self, angle: float):
        try:
            _set_angle(self, norm_angle(float(angle)))
        except ValueError:  # fmod of an infinite angle; a NaN passes through
            raise DegenerateInput(f"angle {angle!r} is not finite") from None


# the slots' own setters, which the frozen __setattr__ does not block
_set_angle = ProjPoint.angle.__set__


def cyclically_ordered(angles) -> bool:
    """True iff the angles occur on P1 in the listed cyclic order, each
    strictly past the one before: the gaps from the first strictly increase,
    and the least is not 0."""
    base, *rest = angles
    gaps = [angle_gap(base, a) for a in rest]
    return gaps[0] > 0.0 and all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1))


class ArcP1(Record):
    """Open arc running from start to end (ProjPoints) in the positive
    (increasing) sense."""

    # length is angle_gap(start, end), set once; not part of equality, hash
    # or repr
    __slots__ = ("start", "end", "length")
    _fields = ("start", "end")

    def __init__(self, start: ProjPoint, end: ProjPoint):
        length = angle_gap(start.angle, end.angle)
        if not length > 0.0:  # 0, or NaN from a NaN endpoint
            if length == 0.0:
                raise DegenerateInput("arc endpoints coincide")
            bad = start.angle if math.isnan(start.angle) else end.angle
            raise DegenerateInput(f"arc endpoint {bad!r} is not finite")
        _set_start(self, start)
        _set_end(self, end)
        _set_length(self, length)

    @staticmethod
    def from_angles(start: float, end: float) -> "ArcP1":
        return ArcP1(ProjPoint(start), ProjPoint(end))

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


# the slots' own setters (see ProjPoint)
_set_start, _set_end, _set_length = (ArcP1.__dict__[f].__set__ for f in ArcP1.__slots__)


# pi - PI: the part of pi that the float PI drops
PI_LO = 1.2246467991473532e-16


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


def hilbert_density(arc: ArcP1, angle: float) -> float:
    """Density of the Hilbert metric of the arc w.r.t. angle length, its
    three sines taken by _sin_gap from the endpoint angles."""
    start, end = arc.start.angle, arc.end.angle
    if not 0.0 < angle_gap(start, angle) < arc.length:
        raise OutOfArc(f"angle {angle} outside arc for density")
    angle = norm_angle(angle)
    return _sin_gap(start, end) / (_sin_gap(start, angle) * _sin_gap(angle, end))


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


# relative shade on the closed-form contraction, covering its float evaluation
CONTRACTION_SHADE = 1e-12
# contraction reported for an inner arc whose Hilbert diameter rounds to 0
POINT_CONTRACTION = 1e6


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
# circular span arithmetic (used by the core fill and multicone checks)

Span = tuple[float, float]  # (start angle, length), length in [0, pi]


def containment_margin(outer: ArcP1, span: Span) -> float:
    """min(front gap, back gap) when the span (possibly degenerate) sits
    inside the arc, else negative."""
    off = outer.signed_offset_of(span[0])
    return min(off, outer.length - off - span[1])


def merge_spans(spans: list[Span]) -> list[Span]:
    """Union of circular spans, merged into disjoint spans sorted by start.

    Returns [(0.0, pi)] when the union covers the whole circle.
    """
    spans = [(norm_angle(s), ln) for s, ln in spans if ln > 0.0]
    if not spans:
        return []
    if any(ln >= PI for _, ln in spans):
        return [(0.0, PI)]
    items = sorted(spans)
    merged: list[list[float]] = []
    for s, ln in items:
        if merged and s <= merged[-1][0] + merged[-1][1]:
            end = max(merged[-1][0] + merged[-1][1], s + ln)
            merged[-1][1] = end - merged[-1][0]
        else:
            merged.append([s, ln])
    # wrap-around: spans at the end of [0, pi) may reach into spans at the front
    while len(merged) > 1:
        s0, l0 = merged[0]
        s1, l1 = merged[-1]
        if s1 + l1 < s0 + PI:
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


def arcs_of_spans(spans: list[Span]) -> tuple[ArcP1, ...]:
    return tuple(ArcP1.from_angles(s, s + ln) for s, ln in spans)


class MultiCone(Record):
    """Finite union of open arcs with pairwise disjoint closures, union != P1;
    arcs is a tuple of ArcP1, kept sorted by start."""

    __slots__ = ("arcs",)

    def __init__(self, arcs):
        arcs = tuple(sorted(arcs, key=lambda a: a.start.angle))
        super().__init__(arcs)
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

    def total_length(self) -> float:
        return sum(a.length for a in self.arcs)

    @staticmethod
    def from_json(data: dict) -> "MultiCone":
        return MultiCone(tuple(ArcP1.from_angles(s, e) for s, e in data["arcs"]))

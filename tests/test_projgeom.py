import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercone.errors import DegenerateInput, OutOfArc
from hypercone.projgeom import (PI, POINT_CONTRACTION, ArcP1, MultiCone,
                                ProjPoint, angle_dist, contraction_factor,
                                cyclically_ordered, hilbert_density, merge_spans)
from hypercone.sl2core import Mat2
from tests.reference import complement, cone_json, cross_ratio, hilbert_dist, same_angle


def pts(*slopes):
    return [ProjPoint(math.atan2(s, 1.0)) for s in slopes]


def test_cross_ratio_chart_values():
    a, b, c, d = pts(0.0, 1.0, 2.0, 3.0)
    # (c-a)/(b-a) * (d-b)/(d-c) on chart values 0,1,2,3
    assert cross_ratio(a, b, c, d) == pytest.approx(4.0, rel=1e-12)


def test_cross_ratio_with_point_at_infinity():
    a, b, c = pts(0.0, 1.0, 2.0)
    d = ProjPoint(math.pi / 2)  # vertical direction = the chart's infinity
    assert cross_ratio(a, b, c, d) == pytest.approx(2.0, rel=1e-12)


def test_cross_ratio_degenerate_input():
    a, b, c, _ = pts(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(DegenerateInput):
        cross_ratio(a, b, c, ProjPoint(a.angle + 1e-14))


def test_cross_ratio_moebius_invariance_sampled():
    rng = random.Random(0)
    for _ in range(10_000):
        angles = []
        while len(angles) < 4:
            t = rng.uniform(0, math.pi)
            if all(angle_dist(t, u) > 1e-3 for u in angles):
                angles.append(t)
        p = [ProjPoint(t) for t in angles]
        a_, b_, c_, d_ = (rng.uniform(-3, 3) for _ in range(4))
        det = a_ * d_ - b_ * c_
        if abs(det) < 1e-3:
            continue
        s = 1.0 / math.sqrt(abs(det))
        m = Mat2(a_ * s, b_ * s, c_ * s, d_ * s)
        if det < 0:
            m = Mat2(m.a, -m.b, m.c, -m.d)  # keep det positive
        before = cross_ratio(*p)
        after = cross_ratio(*(ProjPoint(m.act_angle(x.angle)) for x in p))
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_hilbert_dist_unit_interval_example():
    arc = ArcP1(ProjPoint(0.0), ProjPoint(math.pi / 2))  # the chart (0, inf)
    x = ProjPoint(math.atan2(1.0, 1.0))
    y = ProjPoint(math.atan2(math.e, 1.0))
    assert hilbert_dist(arc, x, y) == pytest.approx(1.0, rel=1e-12)
    assert hilbert_dist(arc, x, x) == 0.0


def test_hilbert_dist_requires_interior_points():
    arc = ArcP1(ProjPoint(0.0), ProjPoint(1.0))
    with pytest.raises(OutOfArc):
        hilbert_dist(arc, ProjPoint(2.0), ProjPoint(0.5))


def test_hilbert_symmetry_and_positivity():
    arc = ArcP1(ProjPoint(0.3), ProjPoint(1.9))
    x, y = ProjPoint(0.8), ProjPoint(1.2)
    assert hilbert_dist(arc, x, y) == pytest.approx(hilbert_dist(arc, y, x))
    assert hilbert_dist(arc, x, y) > 0


def test_nested_arc_metric_inequality():
    outer = ArcP1(ProjPoint(0.1), ProjPoint(2.1))
    inner = ArcP1(ProjPoint(0.5), ProjPoint(1.6))
    lam = contraction_factor(outer, inner)
    assert lam > 1.0
    rng = random.Random(1)
    for _ in range(200):
        a = rng.uniform(0.55, 1.55)
        b = rng.uniform(0.55, 1.55)
        if abs(a - b) < 1e-6:
            continue
        x, y = ProjPoint(a), ProjPoint(b)
        assert hilbert_dist(inner, x, y) >= lam * hilbert_dist(outer, x, y)


def fine_min_density_ratio(outer, inner, cells=64, steps=200):
    """inf of hilbert_density(inner) / hilbert_density(outer) by grid + ternary."""
    def ratio(t):
        return hilbert_density(inner, t) / hilbert_density(outer, t)

    a, ln = inner.start.angle, inner.length
    k = min(range(cells), key=lambda k: ratio(a + ln * (k + 0.5) / cells))
    lo, hi = a + ln * max(k - 1, 0) / cells, a + ln * min(k + 2, cells) / cells
    for _ in range(steps):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if ratio(m1) < ratio(m2):
            hi = m2
        else:
            lo = m1
    return ratio(0.5 * (lo + hi))


@given(st.floats(0.0, math.pi), st.floats(0.01, 3.0),
       st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0),
                 st.floats(0.01, 1.0)))
@settings(max_examples=200, deadline=None)
# an arc wrapping past pi, where the density once lost PI_LO
@example(start=3.140625, length=0.01171875, weights=(1.0, 0.015625, 0.01))
def test_contraction_factor_is_the_density_ratio_infimum(start, length, weights):
    off, ln, _ = (length * w / sum(weights) for w in weights)
    outer = ArcP1.from_angles(start, start + length)
    inner = ArcP1.from_angles(start + off, start + off + ln)
    lam = contraction_factor(outer, inner)
    best = fine_min_density_ratio(outer, inner)
    assert lam <= best
    assert lam >= best * (1.0 - 1e-9)


def test_contraction_factor_below_ratio_where_the_grid_overstated():
    # a sampled infimum (1024 midpoints, cut by 1e-6) read 1.6e-5 too high here
    start, length = 1.5946912976367613, 2.685345795366144
    off, ln = 0.004796069441116481, 1.548076951645154
    outer = ArcP1.from_angles(start, start + length)
    inner = ArcP1.from_angles(start + off, start + off + ln)
    assert contraction_factor(outer, inner) <= fine_min_density_ratio(outer, inner)


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
def test_contraction_factor_bound_across_thin_gaps(gap):
    # every gap here is an exact float difference (same binade), so the
    # reference evaluates the cross-ratio on the true arc lengths; a thin
    # gap computed from rounded offsets loses its relative accuracy and can
    # overstate lambda
    def reference(o0, o1, i0, i1):
        delta = math.log1p(math.sin(o1 - o0) * math.sin(i1 - i0)
                           / (math.sin(i0 - o0) * math.sin(o1 - i1)))
        return 1.0 / math.tanh(0.25 * delta)

    o0, o1 = 0.3, 1.2
    for i0, i1 in ((o0 + gap, 0.9), (0.6, o1 - gap)):
        outer, inner = ArcP1.from_angles(o0, o1), ArcP1.from_angles(i0, i1)
        ref = reference(o0, o1, inner.start.angle, inner.end.angle)
        lam = contraction_factor(outer, inner)
        assert ref * (1.0 - 2e-12) <= lam <= ref


def test_contraction_factor_of_point_like_inner_arcs():
    outer = ArcP1.from_angles(0.2, 2.9)
    for a, b in ((1.0, 1.0 + 1e-13), (1.0, math.nextafter(1.0, 2.0))):
        inner = ArcP1.from_angles(a, b)
        assert same_angle(inner.start.angle, inner.end.angle)
        lam = contraction_factor(outer, inner)
        assert 1.0 < lam < math.inf
    # the Hilbert diameter of a one-ulp arc at angle 0 rounds to 0
    wide = ArcP1.from_angles(PI - 1.5, 1.5)
    assert contraction_factor(wide, ArcP1.from_angles(0.0, 5e-324)) \
        == POINT_CONTRACTION


def test_hilbert_metric_comparable_with_angle_metric_on_compact_subarc():
    outer = ArcP1(ProjPoint(0.0), ProjPoint(2.0))
    inner = ArcP1(ProjPoint(0.4), ProjPoint(1.5))
    lo = min(hilbert_density(outer, 0.4 + 1.1 * k / 64) for k in range(1, 64))
    hi = max(hilbert_density(outer, 0.4 + 1.1 * k / 64) for k in range(1, 64))
    rng = random.Random(2)
    for _ in range(200):
        a, b = sorted((rng.uniform(0.4, 1.5), rng.uniform(0.4, 1.5)))
        if b - a < 1e-9:
            continue
        d = hilbert_dist(outer, ProjPoint(a), ProjPoint(b))
        assert 0.99 * lo * (b - a) <= d <= 1.01 * hi * (b - a)


def test_cyclic_between_examples():
    assert cyclically_ordered((0.0, 1.0, 2.0))
    # the arc from 2 to 1 wraps through 0, so 0.5 lies inside it
    assert cyclically_ordered((2.0, 0.5, 1.0))
    assert not cyclically_ordered((0.5, 2.0, 1.0))
    # a second angle on the first is not past it
    assert not cyclically_ordered((1.0, 1.0, 2.0))


@given(st.tuples(st.floats(0, math.pi - 1e-9), st.floats(0, math.pi - 1e-9),
                 st.floats(0, math.pi - 1e-9)))
@settings(max_examples=300)
def test_cyclic_between_exactly_one_orientation(triple):
    a, b, c = (ProjPoint(t).angle for t in triple)
    if (angle_dist(a, b) < 1e-6 or angle_dist(b, c) < 1e-6 or
            angle_dist(a, c) < 1e-6):
        return
    assert cyclically_ordered((a, b, c)) != cyclically_ordered((c, b, a))


def test_cyclically_ordered_rotation_invariance():
    angles = [0.2, 0.9, 1.7, 2.6]
    assert cyclically_ordered(angles)
    assert cyclically_ordered(angles[2:] + angles[:2])
    assert not cyclically_ordered([angles[0], angles[2], angles[1], angles[3]])


def test_multicone_validation():
    good = MultiCone((ArcP1(ProjPoint(0.0), ProjPoint(0.5)),
                      ArcP1(ProjPoint(1.0), ProjPoint(1.5))))
    assert len(good.arcs) == 2
    with pytest.raises(DegenerateInput):
        MultiCone((ArcP1(ProjPoint(0.0), ProjPoint(1.2)),
                   ArcP1(ProjPoint(1.0), ProjPoint(1.5))))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arc_endpoint_is_degenerate(bad):
    # a NaN endpoint gave an arc of length NaN, which every disjointness
    # comparison of MultiCone passed
    for start, end in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(DegenerateInput, match=f"{bad} is not finite"):
            ArcP1.from_angles(start, end)
    with pytest.raises(DegenerateInput, match=f"{bad} is not finite"):
        MultiCone.from_json({"arcs": [[bad, 0.5], [1.0, 1.5]]})
    with pytest.raises(DegenerateInput, match=f"{bad} is not finite"):
        MultiCone.from_json({"arcs": [[0.0, 0.5], [1.0, bad]]})


def test_multicone_complement_alternates():
    cone = MultiCone((ArcP1(ProjPoint(0.0), ProjPoint(0.5)),
                      ArcP1(ProjPoint(1.0), ProjPoint(1.5))))
    comp = complement(cone)
    assert len(comp.arcs) == 2
    assert comp.arcs[0].start.angle == pytest.approx(0.5)


def test_merge_spans_wraparound():
    spans = [(3.0, 0.3), (0.05, 0.2), (1.0, 0.5)]
    merged = merge_spans(spans)
    # the first span wraps past pi and swallows the second
    assert len(merged) == 2
    total = sum(ln for _, ln in merged)
    assert total == pytest.approx(0.3 + 0.2 + 0.5 - ((3.0 + 0.3 - PI) - 0.05),
                                  abs=1e-12)


def test_merge_spans_full_circle():
    assert merge_spans([(0.0, 2.0), (1.9, 2.0)]) == [(0.0, PI)]


def test_arc_json_roundtrip():
    cone = MultiCone((ArcP1(ProjPoint(0.1), ProjPoint(0.4)),))
    again = MultiCone.from_json(cone_json(cone))
    assert again.arcs[0].start.angle == pytest.approx(0.1)


@given(st.lists(st.tuples(st.floats(0, math.pi - 1e-6),
                          st.floats(1e-4, 1.0)), min_size=1, max_size=6),
       st.floats(0, math.pi - 1e-9))
@settings(max_examples=300)
def test_merge_spans_preserves_membership(spans, probe):
    def inside(span_list, t):
        for s, ln in span_list:
            if (t - s) % PI < ln:
                return True
        return False

    merged = merge_spans(spans)
    # keep the probe away from span boundaries, where closure conventions
    # may differ between raw and merged representations
    near_edge = any(min((probe - s) % PI, (s - probe) % PI) < 1e-9 or
                    min((probe - s - ln) % PI, (s + ln - probe) % PI) < 1e-9
                    for s, ln in spans)
    if near_edge:
        return
    assert inside(merged, probe) == inside(spans, probe)
    # merged spans are pairwise disjoint and sorted
    for i in range(len(merged) - 1):
        assert merged[i][0] + merged[i][1] < merged[i + 1][0]

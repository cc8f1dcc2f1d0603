import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import pytest

from hypercone.errors import NoInvariantDirection, PreconditionViolated
from hypercone.sl2core import (Mat2, c1_bound, check_finite, eigen_angles, eigen_data,
                               integer_scaled, is_exact, is_pm_identity, normalize_tuple,
                               spectral_norm)
from hypercone.symdyn import eval_string
from hypercone.tolerances import DEFAULT
from tests.reference import (MatClass, NotCanonicalizable, canonical_form, classify,
                             invariant_dirs, vector)


def rand_sl2(rng, scale=3.0):
    while True:
        a = rng.uniform(-scale, scale)
        b = rng.uniform(-scale, scale)
        c = rng.uniform(-scale, scale)
        if abs(a) > 1e-3:
            return Mat2(a, b, c, (1.0 + b * c) / a)


def test_classify_examples():
    assert classify(Mat2(2, 1, 0, 0.5)) is MatClass.HYPERBOLIC
    assert classify(Mat2.identity()) is MatClass.PLUS_MINUS_IDENTITY
    assert classify(Mat2(0, -1, 1, 0)) is MatClass.ELLIPTIC
    assert classify(Mat2(1, 1, 0, 1)) is MatClass.PARABOLIC


def test_exact_input_is_read_exactly_by_the_identity_test():
    # within DEFAULT.identity of +-I entrywise, but not +-I: rational input
    # is read exactly, float input within the band
    assert classify(Mat2.diagonal(1 + Fraction(1, 10 ** 12))) is MatClass.HYPERBOLIC
    assert classify(Mat2(1, Fraction(1, 10 ** 10), 0, 1)) is MatClass.PARABOLIC
    assert classify(Mat2.diagonal(1 + 1e-12)) is MatClass.PLUS_MINUS_IDENTITY
    assert classify(Mat2(-1, 0, 0, -1)) is MatClass.PLUS_MINUS_IDENTITY
    # an integer matrix n over a scale s is n / s
    assert is_pm_identity(Mat2(-3, 0, 0, -3), 3)
    assert not is_pm_identity(Mat2(3, 0, 0, 3), 1)
    assert not is_pm_identity(Mat2(3, 0, 0, -3), 3)


def test_float_identity_test_is_the_distance_test():
    # the float test may stop at an off-diagonal entry past the tolerance;
    # its answer must be the entrywise distance test's, NaN and inf included
    tol = DEFAULT.identity
    edges = (0.0, tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0))
    rng = random.Random(31)

    def offset():
        size = rng.choice(edges + (0.5 * tol, 2 * tol, rng.uniform(0, 3 * tol), 1.0))
        return rng.choice((size, -size))

    mats = []
    for _ in range(4000):
        sign = rng.choice((1.0, -1.0))
        mats.append(Mat2(sign + offset(), offset(), offset(), sign + offset()))
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            for base in ((1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0),
                         (2.0, 1.0, 1.0, 1.0)):
                entries = list(base)
                entries[i] = bad
                mats.append(Mat2(*entries))
    outcomes = {}
    for m in mats:
        got = is_pm_identity(m)
        assert got == (m.dist_to_pm_identity() <= tol), m
        key = (got, abs(m.b) > tol or abs(m.c) > tol)
        outcomes[key] = outcomes.get(key, 0) + 1
    # an off-diagonal entry past the tolerance, and both answers without one
    assert min(outcomes[False, True], outcomes[False, False], outcomes[True, False]) > 200


def test_classify_conjugation_invariance():
    rng = random.Random(3)
    for _ in range(10_000):
        m = rand_sl2(rng)
        r = rand_sl2(rng, scale=1000.0)
        assert classify(r @ m @ r.inverse()) is classify(m)


def test_invariant_dirs_worked_example():
    u, s = invariant_dirs(Mat2(2, 1, 0, 0.5))
    assert u.angle == pytest.approx(0.0, abs=1e-12)
    # stable direction spans (-2/3, 1)
    assert math.tan(s.angle) == pytest.approx(-1.5, rel=1e-12)


def test_invariant_dirs_parabolic_and_diagonal():
    u, s = invariant_dirs(Mat2(1, 1, 0, 1))
    assert u.angle == pytest.approx(s.angle)
    u, s = invariant_dirs(Mat2(2, 0, 0, 0.5))
    assert u.angle == pytest.approx(0.0)
    assert s.angle == pytest.approx(math.pi / 2)


def test_invariant_dirs_rejects_elliptic():
    with pytest.raises(NoInvariantDirection):
        invariant_dirs(Mat2(0, -1, 1, 0))


def test_eigen_residual():
    rng = random.Random(4)
    checked = 0
    while checked < 500:
        m = rand_sl2(rng)
        if abs(float(m.trace())) <= 2.0 + 1e-6:
            continue
        (u, lu), (s, ls) = eigen_data(m)
        for p, lam in ((u, lu), (s, ls)):
            x, y = vector(p)
            rx = float(m.a) * x + float(m.b) * y - lam * x
            ry = float(m.c) * x + float(m.d) * y - lam * y
            assert math.hypot(rx, ry) <= 1e-8
        assert abs(lu) >= 1.0 >= abs(ls)
        checked += 1


def test_canonical_form_worked_example(free_pair):
    A, B = free_pair
    cp = canonical_form(A, B)
    assert cp.mu == pytest.approx(2.0, rel=1e-12)
    assert cp.nu == pytest.approx(2.0, rel=1e-12)
    assert cp.alpha == pytest.approx(1.0, rel=1e-9)
    assert cp.beta == pytest.approx(-9.0, rel=1e-9)
    assert cp.gamma == pytest.approx(-9.0, rel=1e-9)


def test_canonical_gamma_conjugation_invariant(free_pair):
    A, B = free_pair
    rng = random.Random(5)
    for _ in range(50):
        r = rand_sl2(rng, scale=4.0)
        cp = canonical_form(r @ A @ r.inverse(), r @ B @ r.inverse())
        assert cp.gamma == pytest.approx(-9.0, rel=1e-6)


def test_canonical_reconstruction_and_trace_identity(free_pair):
    A, B = free_pair
    cp = canonical_form(A, B)
    P, Pinv = cp.basis, cp.basis.inverse()
    A2 = P @ Mat2(cp.mu, cp.alpha, 0, 1 / cp.mu) @ Pinv
    B2 = P @ Mat2(1 / cp.nu, 0, cp.beta, cp.nu) @ Pinv
    for m, m2 in ((A, A2), (B, B2)):
        for v, v2 in zip((m.a, m.b, m.c, m.d), (m2.a, m2.b, m2.c, m2.d)):
            assert v2 == pytest.approx(v, abs=1e-8)
    # tr AB = mu/nu + nu/mu + gamma
    direct = (A @ B).trace()
    assert cp.mu / cp.nu + cp.nu / cp.mu + cp.gamma == pytest.approx(direct,
                                                                    abs=1e-9)


def test_canonical_form_rejections():
    with pytest.raises(NotCanonicalizable):
        canonical_form(Mat2(0, -1, 1, 0), Mat2(2, 0, 0, 0.5))
    with pytest.raises(NotCanonicalizable):
        canonical_form(Mat2(2, 0, 0, 0.5), Mat2(3, 0, 0, 1 / 3))  # same axis


def test_canonical_form_reads_an_exact_trace_exactly():
    # det 1 and trace 2 - 1e-10: elliptic when read exactly, though within
    # DEFAULT.trace of 2 as a float, so refused before any eigen data
    near = Mat2(1, 1, -Fraction(1, 10**10), 1 - Fraction(1, 10**10))
    assert near.det() == 1 and classify(near) is MatClass.ELLIPTIC
    for pair in ((near, Mat2(2, 1, 1, 1)), (Mat2(2, 1, 1, 1), near)):
        with pytest.raises(NotCanonicalizable, match="traces"):
            canonical_form(*pair)


def test_canonical_form_refuses_a_float_member_with_no_direction():
    # trace 2 - 1e-10 at det 1, and trace 2 at det 1 + 1e-12: each passes
    # the float trace gate but is elliptic in eigen_data
    for near in (Mat2(1.0, 1.0, -1e-10, 1 - 1e-10), Mat2(1.0, 1.0, -1e-12, 1.0)):
        with pytest.raises(NoInvariantDirection):
            eigen_data(near)
        for pair in ((near, Mat2(2.0, 1.0, 1.0, 1.0)), (Mat2(2.0, 1.0, 1.0, 1.0), near)):
            with pytest.raises(NotCanonicalizable):
                canonical_form(*pair)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_identity_tuple():
    R, out = normalize_tuple([Mat2.identity(), Mat2.identity()], 10.0)
    assert R == Mat2.identity()
    assert out[0] == Mat2.identity()


def test_normalize_single_shear():
    R, out = normalize_tuple([Mat2(1, 1000, 0, 1)], 10.0)
    m = out[0]
    assert m.a == pytest.approx(1.0)
    assert m.b == pytest.approx(1.0, rel=1e-12)
    assert abs(m.c) <= 1e-12


def test_normalize_precondition_violated():
    with pytest.raises(PreconditionViolated):
        normalize_tuple([Mat2(100, 0, 0, 0.01)], 10.0)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, -1.0])
def test_normalize_rejects_a_bound_that_is_not_a_finite_number(bound):
    # a NaN or infinite bound passes every |tr| > C test, and gave a
    # conjugator with a NaN or infinite entry bound
    with pytest.raises(PreconditionViolated):
        normalize_tuple([Mat2(2, 1, 1, 1)], bound)


def test_normalize_bounds_traces_idempotence(free_pair):
    A, B = free_pair
    rng = random.Random(6)
    bound = c1_bound(10.0)
    for _ in range(100):
        n = math.exp(rng.uniform(0, math.log(1e6)))
        R0 = Mat2(n, rng.uniform(-1, 1) * n, 0, 1 / n) @ Mat2.rotation(rng.uniform(0, math.pi))
        conj = [R0 @ m @ R0.inverse() for m in (A, B)]
        R, out = normalize_tuple(conj, 10.0)
        assert max(abs(float(v)) for m in out for v in (m.a, m.b, m.c, m.d)) <= bound
        # conjugation identity
        for m0, m1 in zip(conj, out):
            back = R @ m0 @ R.inverse()
            for v, w in zip((back.a, back.b, back.c, back.d),
                            (m1.a, m1.b, m1.c, m1.d)):
                assert w == pytest.approx(v, abs=1e-6 * max(1.0, abs(v)))
        # word traces preserved
        for word in ("A", "B", "AB", "AAB", "ABB"):
            t0 = eval_string(conj, word).trace()
            t1 = eval_string(out, word).trace()
            assert t1 == pytest.approx(t0, rel=1e-6, abs=1e-6)
        # idempotence
        _, out2 = normalize_tuple(out, 10.0)
        for m1, m2 in zip(out, out2):
            for v, w in zip((m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d)):
                assert abs(v - w) <= 1e-6


def test_mat2_norm_closed_form():
    m = Mat2(3, 1, 0, 1 / 3)
    s = m.frobenius_sq()
    expect = math.sqrt(0.5 * (s + math.sqrt(s * s - 4.0)))
    assert spectral_norm(m.a, m.b, m.c, m.d) == pytest.approx(expect, rel=1e-12)


def test_is_exact_is_the_rational_isinstance():
    # one answer per entry type, kept after its first entry: the same as
    # isinstance on bool, subclasses of int, float and Fraction, and Decimal
    class Int(int):
        pass

    class Float(float):
        pass

    class Frac(Fraction):
        pass

    values = (True, False, 7, Int(5), 1.5, Float(2.5), Fraction(1, 3), Frac(2, 7),
              Decimal("1.5"), Decimal(2))
    for _ in range(2):  # the first pass fills the table, the second reads it
        for v in values:
            assert is_exact(v) is isinstance(v, Rational), v
    # a type keeps the answer of its first entry: registered before, it is
    # exact; registered after, it still is not
    early, late = type("Early", (), {}), type("Late", (), {})
    Rational.register(early)
    assert is_exact(early()) and not is_exact(late())
    Rational.register(late)
    assert isinstance(late(), Rational) and not is_exact(late())


def test_check_finite_reports_whether_every_entry_is_exact():
    exact = Mat2(1, Fraction(1, 2), True, 2)
    floats = Mat2(1.0, 0.5, 0.0, 2.0)
    assert check_finite((exact, exact)) and check_finite(())
    for i in range(4):
        entries = [1, Fraction(1, 2), 0, 2]
        entries[i] = Decimal("0.5") if i == 1 else float(entries[i])
        assert not check_finite((exact, Mat2(*entries)))
    assert not check_finite((floats,)) and not check_finite((exact, floats))


def test_exact_entries_survive_products():
    a = Mat2(Fraction(2), Fraction(1), Fraction(0), Fraction(1, 2))
    b = Mat2(Fraction(1, 2), Fraction(0), Fraction(-9), Fraction(2))
    p = a @ b
    assert p.is_exact()
    assert p.trace() == Fraction(-7)


def test_is_exact_truth_table():
    for v, exact in ((3, True), (0, True), (True, True), (False, True),
                     (Fraction(1, 3), True), (Fraction(4), True),
                     (1.5, False), (2.0, False), (-0.0, False)):
        assert is_exact(v) is exact, v
    assert Mat2(1, Fraction(1, 2), True, 2).is_exact()
    for i in range(4):
        entries = [1, Fraction(1, 2), 0, 2]
        entries[i] = float(entries[i])
        assert not Mat2(*entries).is_exact()
        # to_float copies unless every entry is a float already
        floats = [1.0, 0.5, 0.0, 2.0]
        floats[i] = Fraction(floats[i])
        m = Mat2(*floats)
        f = m.to_float()
        assert f is not m and f == m and f.to_float() is f


def test_integer_scaled_is_least_common_denominator():
    m = Mat2(Fraction(1, 6), Fraction(-3, 4), 2, Fraction(5, 9))
    n, s = integer_scaled(m)
    assert s == 36 and (n.a, n.b, n.c, n.d) == (6, -27, 72, 20)
    assert all(type(v) is int for v in (n.a, n.b, n.c, n.d))
    assert integer_scaled(Mat2(2, 1, 1, 1)) == (Mat2(2, 1, 1, 1), 1)


def test_integer_scaled_reads_floats_as_dyadic_rationals():
    n, s = integer_scaled(Mat2(0.5, 0.25, 3.0, 2.0))
    assert (n, s) == (Mat2(2, 1, 12, 8), 4)
    assert all(type(v) is int for v in (n.a, n.b, n.c, n.d))
    rng = random.Random(18)
    for _ in range(200):
        m = Mat2(*(rng.uniform(-1e3, 1e3) * 2.0 ** rng.randint(-60, 60)
                   for _ in range(4)))
        exact = Mat2(*(Fraction(v) for v in (m.a, m.b, m.c, m.d)))
        assert integer_scaled(m) == integer_scaled(exact)


def test_eigen_data_exact_matches_the_rational_discriminant():
    # the exact branch must give the bits of float() of the rational
    # discriminant and determinant, also off determinant 1
    rng = random.Random(5)
    near_parabolic = [Mat2(mu, Fraction(1, 3), 0, 1 / mu)
                      for k in range(5, 40, 3)
                      for mu in (1 + Fraction(1, 10 ** k), -1 - Fraction(1, 7 ** k))]
    checked = 0
    for i in range(400):
        big = rng.choice((60, 10 ** 12))
        a, b, c, d = (Fraction(rng.randint(-big, big), rng.randint(1, big))
                      for _ in range(4))
        m = Mat2(a, b, c, d) if rng.random() < 0.5 or a == 0 else \
            Mat2(a, b, c, (1 + b * c) / a)
        if i < len(near_parabolic):
            m = near_parabolic[i]
        tr, det = m.trace(), m.det()
        disc = float(tr * tr - 4 * det)
        if disc < 0 or m.dist_to_pm_identity() == 0:
            continue
        t = float(m.a) + float(m.d)
        r = math.sqrt(disc)
        lam = 0.5 * (t + r) if t >= 0 else 0.5 * (t - r)
        if lam == 0:
            continue
        (_, lam_u), (_, lam_s) = eigen_data(m)
        assert lam_u == lam and lam_s == float(det) / lam
        # any integer scale of the matrix gives the same bits
        n, s = integer_scaled(m)
        for k in (1, 2, 7, 10 ** 6):
            nk = Mat2(n.a * k, n.b * k, n.c * k, n.d * k)
            assert eigen_data(nk, k * s) == eigen_data(m), (m, k)
        checked += 1
    assert checked > 100


def test_eigen_angles_have_eigen_data_bits():
    """eigen_angles(a, b, c, d, s) gives the angles of eigen_data(Mat2(a, b,
    c, d), s) bit for bit, or raises as it does, on float matrices, their
    Fraction forms, integer_scaled forms with S > 1, large integer matrices
    at scale 1, triangular matrices, negative traces and det < 0."""
    rng = random.Random("eigen angles")

    def flipped(m):
        return Mat2(m.b, m.a, m.d, m.c)  # det -1 from det 1

    floats = [rand_sl2(rng) for _ in range(150)]
    floats += [Mat2(2.0, 1.0, 0.0, 0.5), Mat2(2.0, 0.0, -3.0, 0.5),
               Mat2(3.0, 0.0, 0.0, 1 / 3), Mat2(1.0, 1.0, 0.0, 1.0)]
    floats += [-m for m in floats] + [flipped(m) for m in floats]
    rationals = [Mat2(*(Fraction(v) for v in (m.a, m.b, m.c, m.d))) for m in floats]
    for _ in range(150):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
        if a:
            rationals.append(Mat2(a, b, c, (rng.choice((1, -1)) + b * c) / a))
    rationals += [Mat2(Fraction(5, 3), 0, 7, Fraction(3, 5)),
                  Mat2(Fraction(-5, 3), Fraction(2, 7), 0, Fraction(-3, 5))]
    # integer matrices of det +-1 whose traces pass 2**53, where the float
    # discriminant is not the exact one
    integers = []
    for _ in range(100):
        n = Mat2(1, 0, 0, rng.choice((1, -1)))
        for _ in range(6):
            k = rng.randint(-10 ** 4, 10 ** 4)
            n = (Mat2(1, k, 0, 1) if rng.random() < 0.5 else Mat2(1, 0, k, 1)) @ n
        integers += [n, -n]

    cases = ([(m, 1) for m in floats + rationals + integers]
             + [integer_scaled(m) for m in rationals])
    seen = {"raised": 0, "scale > 1": 0, "det < 0": 0, "tr < 0": 0,
            "b or c = 0": 0, "float reading differs": 0}
    for m, s in cases:
        try:
            (u, _), (v, _) = eigen_data(m, s)
        except NoInvariantDirection:
            with pytest.raises(NoInvariantDirection):
                eigen_angles(m.a, m.b, m.c, m.d, s)
            seen["raised"] += 1
            continue
        got = eigen_angles(m.a, m.b, m.c, m.d, s)
        assert [x.hex() for x in got] == [u.angle.hex(), v.angle.hex()], (m, s)
        seen["scale > 1"] += s > 1
        seen["det < 0"] += m.det() < 0
        seen["tr < 0"] += m.trace() < 0
        seen["b or c = 0"] += m.b == 0 or m.c == 0
        if s == 1 and all(type(x) is int for x in (m.a, m.b, m.c, m.d)):
            (fu, _), (fv, _) = eigen_data(m.to_float())
            seen["float reading differs"] += got != (fu.angle, fv.angle)
    assert all(seen.values()), seen


def _matrix_exports():
    """Every export of the package: a call of it on a matrix pair over the
    full 2-shift for those that take matrices, None for the others."""
    import hypercone as hc
    free = (Mat2(2.0, 1.0, 0.0, 0.5), Mat2(0.5, 0.0, -9.0, 2.0))
    full2 = hc.Sft.full(2)
    cores = hc.compute_cores(free, full2, 4)
    fam = hc.MulticoneFamily.constant(hc.fatten_cores(free, cores), 2)
    takes = {
        "normalize_tuple": lambda m: hc.normalize_tuple(m, 10.0),
        "product": lambda m: hc.product(m, (0, 1)),
        "hyperbolicity_rate": lambda m: hc.hyperbolicity_rate(m, full2, 3),
        "certify": lambda m: hc.certify(m, full2, fam),
        "compute_cores": lambda m: hc.compute_cores(m, full2, 4),
        "core_criterion": lambda m: hc.core_criterion(m, cores),
        "fatten_cores": lambda m: hc.fatten_cores(m, cores),
        "classify_pair": lambda m: hc.classify_pair(*m),
        "component_model": lambda m: hc.component_model(*m, ""),
        "induced_morphism": lambda m: hc.induced_morphism(m, cores),
        "winding_matrix": lambda m: hc.winding_matrix(m, "AB"),
        "best_heteroclinic": lambda m: hc.best_heteroclinic(m, full2, 2, 2, 1),
        "diagnose_boundary": lambda m: hc.diagnose_boundary(m, full2, (2, 2, 1)),
        "search_elliptic": lambda m: hc.search_elliptic(m, full2, 3),
        "search_parabolic": lambda m: hc.search_parabolic(m, full2, 3),
    }
    takes_none = {
        "ArcP1", "MultiCone", "ProjPoint", "Mat2", "c1_bound", "RateReport", "Sft",
        "periodic_words", "CertifyReport", "CoreSet", "MulticoneFamily",
        "Classification2", "Degenerate", "EllipticWitness", "NonPrincipal",
        "Principal", "ComponentModel", "build_order", "farey_interval",
        "j_of_fword", "CombMulticone", "MonotoneCorr", "Morphism",
        "classify_two_morphism", "morphism_hyperbolic", "morphism_tight",
        "validate", "BoundaryReport", "DEFAULT", "Tolerances",
    }
    return free, {**takes, **dict.fromkeys(takes_none)}


def test_every_matrix_export_refuses_a_non_finite_entry():
    # the table names every export, so a new one fails here until it is
    # classed; each matrix-taking export answers on the free pair, and
    # refuses NaN and +-inf in every entry position, in a float pair and in
    # a mixed one (the other matrix and the other entries exact), with the
    # input gate's DegenerateInput rather than a verdict
    import hypercone as hc
    from hypercone.errors import DegenerateInput
    free, table = _matrix_exports()
    assert set(table) == set(hc._EXPORTS)
    exact = tuple(Mat2(*map(Fraction, (m.a, m.b, m.c, m.d))) for m in free)
    for name, call in table.items():
        if call is None:
            continue
        call(free)
        for pair in (free, exact):
            for i, k in itertools.product(range(2), range(4)):
                for bad in (math.nan, math.inf, -math.inf):
                    entries = [pair[i].a, pair[i].b, pair[i].c, pair[i].d]
                    entries[k] = bad
                    mats = list(pair)
                    mats[i] = Mat2(*entries)
                    with pytest.raises(DegenerateInput,
                                       match=f"entry {bad!r} is not finite"
                                             f" \\(entry {'abcd'[k]} of matrix {i}\\)"):
                        call(tuple(mats))


def test_check_unimodular_refuses_a_nan_matrix():
    from hypercone.errors import DegenerateInput
    from hypercone.sl2core import check_unimodular
    with pytest.raises(DegenerateInput, match="entry nan is not finite"):
        check_unimodular(Mat2(math.nan, 1.0, 1.0, 2.0))


@pytest.mark.parametrize("m, ok", [
    # float det 1.0, but read exactly 1.000148: a census-scale pullback
    # draw rounded to floats, whose float pair walks another sign word
    (Mat2(598367.0489707368, 656759.1988336588, 4083969.670245097, 4482507.272594324),
     False),
    # float det 0.9999999963, read exactly 1 - 4.1e-10: inside DEFAULT.det
    (Mat2(14415.546471931131, -3367.3629487809703, -5242.560436194117,
          1224.6226533249255), True),
    # exact input has band 0
    (Mat2(Fraction(10 ** 12 + 1, 10 ** 12), 0, 0, 1), False),
    (Mat2(Fraction(1, 3), 0, 0, 3), True),
    # s^2 of the exact reading is far beyond the float range
    (Mat2(1e200, 0.0, 0.0, 1e-200), True),
])
def test_check_unimodular_reads_the_exact_determinant(m, ok):
    from hypercone.errors import DegenerateInput
    from hypercone.sl2core import check_unimodular
    off = abs(Fraction(m.a) * Fraction(m.d) - Fraction(m.b) * Fraction(m.c) - 1)
    assert (off == 0 or not m.is_exact() and off <= Fraction(DEFAULT.det)) == ok
    if ok:
        assert check_unimodular(m) is m
    else:
        with pytest.raises(DegenerateInput, match="matrix determinant .* is not 1"):
            check_unimodular(m)


def test_normalize_refuses_a_matrix_off_determinant_one():
    # entries near 1e12 with c = (a d - 1) / b in floats: read exactly, the
    # det is -2.9e7, and the bound's chain (|y z| <= 1 + |x t|) fails; the
    # conjugate had an entry of 15495, past c1_bound(10) = 6177.4
    from hypercone.errors import DegenerateInput
    m = Mat2(1134364244112.4011, 1763774618976.614, -729561602978.1854,
             -1134364244105.4524)
    with pytest.raises(DegenerateInput, match="matrix determinant"):
        normalize_tuple([Mat2(2, 1, 1, 1), m], 10.0)


def test_normalize_rotation_stage():
    # det exactly 1, trace 2; its corner entry 5000 is past the rotation
    # stage's cap c1_bound(10, rotation_stage=True) = 3970.75, so the stage runs
    m = Mat2(5000.0, 1.0, -24990001.0, -4998.0)
    assert m.det() == 1 and abs(m.a) > c1_bound(10.0, rotation_stage=True)
    R, out = normalize_tuple([m], 10.0)
    assert R != Mat2.identity()
    assert max(abs(v) for v in (out[0].a, out[0].b, out[0].c, out[0].d)) == \
        pytest.approx(2.0, rel=1e-7)
    back = R @ m @ R.inverse()
    for v, w in zip((back.a, back.b, back.c, back.d),
                    (out[0].a, out[0].b, out[0].c, out[0].d)):
        assert w == pytest.approx(v, abs=1e-6)
    # a second pass finds both goals met and snaps to the identity
    R2, out2 = normalize_tuple(out, 10.0)
    assert R2 == Mat2.identity() and out2 == out

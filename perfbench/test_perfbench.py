"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import check
import gen
import run
import workloads
from check import CheckFailed

hc = run.import_program()
from hypercone.twoshift import (Degenerate, EllipticWitness,  # noqa: E402
                                NonPrincipal, Principal)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(name, seed=1, hc_=hc, keep=None):
    wl = workloads.WORKLOADS[name](hc_, seed, run.ROOT)
    wl.rounds = [wl.rounds[0][:keep]]
    return wl


# ---------------------------------------------------------------------------
# every workload runs at tiny size


@pytest.mark.parametrize("name,keep", [("decide", 30), ("certify", 9),
                                       ("search", None), ("cli", 3)])
def test_workload_runs_tiny(name, keep):
    wl = tiny(name, keep=keep)
    try:
        wl.warmup()
        wl.phase(0.0)
        e2e = wl.end_to_end()
        tr = workloads.Tracer()
        overhead = wl.traced_phase(0.0, tr)
    finally:
        wl.close()
    assert not wl.errors, wl.errors
    assert wl.attempted == len(wl.rounds[0])     # distinct operations, not visits
    assert e2e["throughput_per_s"][0] > 0 and e2e["latency_p50_ms"][0] > 0
    assert overhead > -1
    table = tr.layer_table()
    assert table and all(name.split(".")[0] in ("certify", "cli") or name in
                         workloads.LAYERS for name in table)


def test_certify_latency_on_pullback_pairs_and_shares_per_input():
    wl = workloads.WORKLOADS["certify"](hc, 1, run.ROOT)
    wl.counting = True
    for key, ms, failed in (("pullback0.0", (2, 4, 3), True),
                            ("free0.0.0", (1,), False), ("free0.0.1", (1,), False)):
        for t in ms:
            wl.samples.setdefault(key, []).append(t * 1e6)
            wl.tally(key, True, failed)
    e2e = wl.end_to_end()
    assert e2e["latency_p50_ms"][0] == e2e["latency_tail_ms"][0] == 3.0
    assert e2e["throughput_per_s"][0] == pytest.approx(3 / 5e-3)
    assert (wl.attempted, wl.failed) == (3, 1)
    assert e2e["ok_share"][0] == pytest.approx(2 / 3)


def test_cli_temp_files_removed():
    wl = tiny("cli", keep=1)
    wl.close()
    assert not os.path.exists(wl.tmp)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_the_declared_metrics(trace, key):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                          "--workload", "decide", "--seed", "3", "--seconds",
                          "0.2", "--trace", str(trace)],
                         capture_output=True, text=True, cwd=run.ROOT, check=True)
    result = json.loads(out.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


# ---------------------------------------------------------------------------
# the same seed gives identical inputs


def _inputs(name, seed):
    wl = workloads.WORKLOADS[name](hc, seed, run.ROOT)
    wl.close()
    if name == "cli":
        return [argv for _, argv, _, _ in wl.calls]
    # plain entries and the expected answers, not the program's objects
    return [(op[0], op[1], op[2], op[4], op[5]) if name == "decide" else
            (op[0], op[1], op[3], op[4], op[5]) if op[1] == "pair" else
            (op[0], op[1], op[3]) for rnd in wl.rounds for op in rnd]


@pytest.mark.parametrize("name", ["decide", "certify", "cli"])
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_search_inputs_fixed():
    a = tiny("search", seed=1)
    b = tiny("search", seed=2)
    assert [t[3] for t in a.tasks] == [t[3] for t in b.tasks]


def test_fword_schedule_covers_lengths():
    words = gen.fword_schedule(11 * 64)
    assert words == gen.fword_schedule(11 * 64)
    assert len(set(w for w in words if len(w) == 6)) == 64
    assert [len(w) for w in words[:11]] == list(gen.PULLBACK_LENGTHS)


# ---------------------------------------------------------------------------
# every check rejects a deliberately wrong verdict


FREE = gen.free_pair()


def test_constructed_verdict_rejects_wrong_word_orientation_iterations():
    good = NonPrincipal(fword="+-", sign_pair=(1, 1), orientation=1,
                        iterations=2, invariant=0.0)
    check.constructed_verdict(good, "+-", False)
    for bad, fword, mirrored in ((good, "-+", False), (good, "+-", True),
                                 (Principal((1, 1), 0.0), "+-", False),
                                 (NonPrincipal("+-", (1, 1), 1, 3, 0.0), "+-",
                                  False)):
        with pytest.raises(CheckFailed):
            check.constructed_verdict(bad, fword, mirrored)


def test_census_verdict_rejects_inconsistent_verdicts():
    x, y = check.trace(FREE[0]), check.trace(FREE[1])
    z = check.trace(gen.mul(*FREE))
    inv = x * x + y * y + z * z - x * y * z
    check.census_verdict(FREE, NonPrincipal("", (1, 1), 1, 0, inv))
    check.census_verdict(FREE, Degenerate("walk exceeded its termination bound"))
    for bad in (NonPrincipal("+", (1, 1), 1, 1, inv),
                NonPrincipal("", (1, -1), 1, 0, inv),
                NonPrincipal("", (1, 1), 1, 0, inv + 1),
                Principal((1, 1), inv),
                EllipticWitness("AB", 0.0, 0),
                Degenerate("")):
        with pytest.raises(CheckFailed):
            check.census_verdict(FREE, bad)


def test_growth_bound_rejects_an_overstated_contraction():
    check.growth_bound(FREE, 1.0, 1.5)
    with pytest.raises(CheckFailed):
        check.growth_bound(FREE, 1.0, 100.0)
    with pytest.raises(CheckFailed):
        check.growth_bound(FREE, 1.0, 0.9)


def test_morphism_class_rejects_wrong_fraction_or_orientation():
    check.morphism_class((Fraction(2, 5), 1), "+-", False)
    with pytest.raises(CheckFailed):
        check.morphism_class((Fraction(3, 5), 1), "+-", False)
    with pytest.raises(CheckFailed):
        check.morphism_class((Fraction(2, 5), 1), "+-", True)


def test_probe_checks_reject_a_certified_elliptic_pair():
    with pytest.raises(CheckFailed):
        check.rejected(SimpleNamespace(ok=True))
    with pytest.raises(CheckFailed):
        check.elliptic_product(FREE)


def test_witness_checks_reject_wrong_witnesses():
    walk = gen.elliptic_walk_pair()
    check.elliptic_word(walk, (0, 1, 1))
    for word in ((0,), None):
        with pytest.raises(CheckFailed):
            check.elliptic_word(walk, word)
    with pytest.raises(CheckFailed):
        check.no_witness((0, 1))
    triple = gen.boundary_triple()
    hit = SimpleNamespace(source=(1,), connector=(2,), target=(0,), residual=0.0)
    assert check.heteroclinic(triple, hit)
    for bad in (SimpleNamespace(source=(1,), connector=(2,), target=(0,),
                                residual=0.1),
                SimpleNamespace(source=(1,), connector=(), target=(1,),
                                residual=0.0)):
        with pytest.raises(CheckFailed):
            check.heteroclinic(triple, bad)


def test_rate_and_words_checks_reject_wrong_answers():
    words = check.cyclic_words(2, 6)
    check.periodic_words(words, 2, 6)
    with pytest.raises(CheckFailed):
        check.periodic_words(words[1:], 2, 6)
    best = min(check.norm2(check.orbit_product(FREE, w)) ** (1 / len(w))
               for w in words)
    right = SimpleNamespace(value=best, word=(0,))
    check.rate(FREE, 6, right)
    for bad in (SimpleNamespace(value=best * 1.01, word=(0,)),
                SimpleNamespace(value=best, word=(0, 1))):
        with pytest.raises(CheckFailed):
            check.rate(FREE, 6, bad)


def test_cores_check_rejects_shifted_cores():
    mats = tuple(hc.Mat2(*m) for m in FREE)
    cores = hc.compute_cores(mats, hc.Sft.full(2))
    check.cores_hold_directions(FREE, cores)
    shift = [hc.ArcP1.from_angles(a.start.angle + 0.3, a.end.angle + 0.3)
             for a in cores.u_arcs]
    with pytest.raises(CheckFailed):
        check.cores_hold_directions(FREE, SimpleNamespace(
            u_arcs=shift, s_arcs=cores.s_arcs))


def test_cli_checks_reject_wrong_code_and_changed_envelope():
    with pytest.raises(CheckFailed):
        check.exit_code("classify2", 2, 0)
    with pytest.raises(CheckFailed):
        check.same_envelope("classify2", b'{"a":1}\n', b'{"a":2}\n')


def test_workload_records_a_wrong_verdict():
    """A program answering Principal everywhere fails the decide checks."""
    liar = SimpleNamespace(**{k: getattr(hc, k) for k in ("Mat2",)},
                           classify_pair=lambda A, B: Principal((1, 1), 0.0))
    wl = tiny("decide", hc_=liar, keep=6)
    wl.warmup()
    wl.phase(0.0)
    assert len(wl.errors) >= 4

"""The benchmark's four workloads: decide, certify, search and cli.

Load comes from one process with one caller in a closed loop: the next
operation starts when the previous one has returned.  Each workload is a
list of rounds of operations made from the seed before timing starts; a
phase runs whole rounds, from the first, until its time is up.  Every
input's result is checked in full the first time it is seen and must repeat
exactly on later visits.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter, thread_time_ns

import check
import gen
from check import CheckFailed
from spans import Tracer, call
from speed import Speed

FLOAT = "twoshift.classify_pair.float"
EXACT = "twoshift.classify_pair.exact"
CLI_COMMANDS = ("classify2", "certify", "cores", "describe", "farey", "winding",
                "witness", "normalize", "rate")

# Spans the traced run reports, in the order of the pipeline.
LAYERS = (FLOAT, EXACT,
          "fareycomb.component_model", "multicone.core_criterion",
          "multicone.fatten_cores", "multicone.certify.accept",
          "multicone.certify.reject", "corrdyn.induced_morphism",
          "corrdyn.classify_two_morphism",
          "multicone.compute_cores.full", "multicone.compute_cores.sft",
          "symdyn.periodic_words", "symdyn.hyperbolicity_rate",
          "witness.search_elliptic", "witness.search_parabolic",
          "witness.best_heteroclinic") + tuple(f"cli.main.{c}" for c in CLI_COMMANDS)
# Counts recorded at the same boundaries.
COUNTS = ("twoshift.walk_steps", "symdyn.periodic_words.words")


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Workload:
    """Rounds of operations, timing, failure counts and first-visit checks.

    Subclasses build `self.rounds` and implement `do(op, tr)`, which runs one
    operation and returns its duration in ns, or None for an operation that
    is checked but not part of the workload's timed user operations.  An
    operation's first field is its input's key.

    An operation's time is the CPU time it takes, not wall time: a shared
    virtual machine loses a varying share of wall time to its host (steal),
    which CPU time leaves out.  Each time is scaled to reference machine
    speed (speed.py).  Timed figures are over inputs, each timed by the
    median of its visits in the run.
    """

    tail_q = 1.0        # percentile over inputs for latency_tail_ms: the slowest
    latency_prefix = ""  # latencies count only inputs whose key starts with it
    warmup_ops = 1

    def __init__(self, hc, root: str):
        self.hc = hc
        self.root = root
        self.rounds: list[list] = []
        self.errors: list[str] = []
        self.first: dict = {}
        self.counting = False
        self.op_failed: dict = {}  # failed per operation, every operation
        self.outcomes: dict = {}   # (failed, undecided) per user input
        self.samples: dict[str, list[float]] = {}   # scaled CPU ns per input
        self.speed = Speed()

    # -- bookkeeping used by do() ------------------------------------------

    @property
    def attempted(self) -> int:
        """Distinct operations run while counting.  Every run runs every
        round, so this is fixed by the seed, not by the program's speed."""
        return len(self.op_failed)

    @property
    def failed(self) -> int:
        """Distinct operations that failed on some visit."""
        return sum(self.op_failed.values())

    def tally(self, key, user: bool, failed: bool, undecided: bool = False):
        """Count one operation by its key, so that counts and shares are over
        inputs however often a run visits each."""
        if not self.counting:
            return
        self.op_failed[key] = self.op_failed.get(key, False) or failed
        if user:
            self.outcomes[key] = (failed, undecided)

    def verify(self, key, signature, full_check, repeat_check=None):
        """Full check on the first visit; later visits must repeat the result."""
        try:
            if key not in self.first:
                self.first[key] = signature
                full_check()
            elif repeat_check is not None:
                repeat_check(self.first[key])
            elif self.first[key] != signature:
                raise CheckFailed("result changed between visits")
        except CheckFailed as exc:
            self.errors.append(f"{key}: {exc}")

    # -- phases ------------------------------------------------------------

    def warmup(self):
        """Untimed, uncounted operations so lazy set-up finishes before timing."""
        for op in self.rounds[0][:self.warmup_ops]:
            self.do(op, None)

    def run_round(self, ops, tr: Tracer | None, record: bool) -> int:
        """Run one round; return the CPU ns of its timed operations.

        With `record`, each timed operation's scaled CPU ns are kept under
        its input's key.
        """
        busy = 0
        for op in ops:
            ns = self.do(op, tr)
            if ns is not None:
                busy += ns
                if record:
                    factor = self.speed.factor(ns)
                    self.samples.setdefault(op[0], []).append(ns * factor)
        return busy

    def phase(self, seconds: float):
        """Untraced whole rounds, cycled from the first, until `seconds` pass
        and every round has run at least once."""
        self.counting = True
        deadline = perf_counter() + seconds
        r = 0
        while r < len(self.rounds) or perf_counter() < deadline:
            self.run_round(self.rounds[r % len(self.rounds)], None, True)
            r += 1
        self.counting = False

    def traced_phase(self, seconds: float, tr: Tracer) -> float:
        """Each round twice, untraced and traced, alternating which goes first;
        rounds cycle as in phase().

        Returns the tracing overhead: traced busy time over untraced busy
        time on the same rounds, minus one.
        """
        self.counting = True
        deadline = perf_counter() + seconds
        plain = traced = 0
        r = 0
        while r < len(self.rounds) or perf_counter() < deadline:
            ops = self.rounds[r % len(self.rounds)]
            if r % 2:
                traced += self.run_round(ops, tr, False)
                plain += self.run_round(ops, None, False)
            else:
                plain += self.run_round(ops, None, False)
                traced += self.run_round(ops, tr, False)
            r += 1
        self.counting = False
        return traced / plain - 1

    def end_to_end(self) -> dict:
        per_input = {k: statistics.median(v) for k, v in self.samples.items()}
        latency = sorted(t for k, t in per_input.items()
                         if k.startswith(self.latency_prefix))
        n = max(len(self.outcomes), 1)
        failed = sum(f for f, _ in self.outcomes.values())
        undecided = sum(u for _, u in self.outcomes.values())
        return {
            "throughput_per_s": (len(per_input) / (sum(per_input.values()) / 1e9),
                                 "1/s"),
            "latency_p50_ms": (percentile(latency, 0.5) / 1e6, "ms"),
            "latency_tail_ms": (self.tail(latency) / 1e6, "ms"),
            "ok_share": (1 - failed / n, "share"),
            "decided_share": (1 - undecided / n, "share"),
        }

    def tail(self, latency) -> float:
        """latency_tail_ms in ns: the tail_q percentile of the sorted latencies."""
        need = math.ceil(10 / (1 - self.tail_q)) if self.tail_q < 1 else 0
        if len(latency) < need:
            print(f"warning: {len(latency)} inputs, p{round(self.tail_q * 100)} "
                  f"needs {need}", file=sys.stderr)
        return percentile(latency, self.tail_q)

    def extra_layers(self) -> dict:
        """Per-layer numbers beyond the span table; every workload reports all
        of them, at 0 where the workload does not reach that layer."""
        return {"certify.accept_share": (0.0, "share"),
                "witness.hit_share": (0.0, "share"),
                "cli.startup_ms": (0.0, "ms")}

    def close(self):
        pass


# ---------------------------------------------------------------------------


class Decide(Workload):
    """twoshift.classify_pair over census, strict-free and exact pullback pairs."""

    tail_q = 0.99
    warmup_ops = 99
    triples_per_round = 33
    n_rounds = 36

    def __init__(self, hc, seed: int, root: str):
        super().__init__(hc, root)
        Mat2 = hc.Mat2
        census = gen.rng_for(seed, "decide.census")
        free = gen.rng_for(seed, "decide.free")
        exact = gen.rng_for(seed, "decide.exact")
        n = self.triples_per_round * self.n_rounds
        ops = []
        for i, fword in enumerate(gen.fword_schedule(n)):
            for kind, (pair, fw, mirrored) in (
                    ("census", (gen.census_pair(census), None, False)),
                    ("free", (gen.strict_free_pair(free), "", False)),
                    ("exact", gen.pullback_draw(exact, fword))):
                mats = tuple(Mat2(*m) for m in pair)
                ops.append((f"{kind}{i}", kind, pair, mats, fw, mirrored))
        per = 3 * self.triples_per_round
        self.rounds = [ops[k:k + per] for k in range(0, len(ops), per)]

    def do(self, op, tr):
        key, kind, pair, mats, fword, mirrored = op
        classify = self.hc.classify_pair
        t0 = thread_time_ns()
        try:
            v = call(tr, EXACT if kind == "exact" else FLOAT, key, classify, *mats)
        except Exception as exc:
            ns = thread_time_ns() - t0
            self.tally(key, True, True)
            self.verify(key, ("raised", type(exc).__name__), lambda: None)
            return ns
        ns = thread_time_ns() - t0
        self.tally(key, True, False, type(v).__name__ == "Degenerate")
        if tr is not None:
            tr.count("twoshift.walk_steps", getattr(v, "iterations", 0))
        if kind == "census":
            self.verify(key, v, lambda: check.census_verdict(pair, v))
        else:
            self.verify(key, v, lambda: check.constructed_verdict(v, fword, mirrored))
        return ns


class Certify(Workload):
    """The component pipeline per pair, plus rejection probes on elliptic pairs.

    A round holds one pullback pair per slot of the sign-word schedule and
    two strict-free pairs per pullback pair: the 1000 : 500 ratio of the
    strict-free and pullback populations the ROADMAP's bench runs.  Timed
    operations are whole pipelines.  Throughput is over all of them;
    latencies are over the pullback pairs, the ROADMAP's per-pair baseline
    population: strict-free pairs have rank 2 and cost a fraction of most
    pullback pairs, so a median over both would fall among them.  Probes are
    counted and checked but kept out of the timed figures.
    """

    latency_prefix = "pullback"
    n_rounds = 4        # distinct rounds, cycled; a 20 s run gets through 7 or 8
    free_per_pullback = 2
    probes_per_round = 4
    warmup_ops = 3

    def __init__(self, hc, seed: int, root: str):
        super().__init__(hc, root)
        Mat2, MultiCone, ArcP1 = hc.Mat2, hc.MultiCone, hc.ArcP1
        self.full2 = hc.Sft.full(2)
        free = gen.rng_for(seed, "certify.free")
        pull = gen.rng_for(seed, "certify.pullback")
        probe = gen.rng_for(seed, "certify.probe")
        slots = len(gen.PULLBACK_LENGTHS)
        schedule = gen.fword_schedule(slots * self.n_rounds)
        for r in range(self.n_rounds):
            ops = []
            for i in range(slots):
                pair, fword, mirrored = gen.pullback_draw(pull, schedule[r * slots + i])
                ops.append((f"pullback{r}.{i}", "pair",
                            tuple(Mat2(*m) for m in pair), pair, fword, mirrored))
                for j in range(self.free_per_pullback):
                    pair = gen.strict_free_pair(free)
                    ops.append((f"free{r}.{i}.{j}", "pair",
                                tuple(Mat2(*m) for m in pair), pair, "", False))
            pair = gen.elliptic_pair(probe)
            mats = tuple(Mat2(*m) for m in pair)
            for i in range(self.probes_per_round):
                arcs = gen.candidate_multicone(probe)
                cone = MultiCone(tuple(ArcP1.from_angles(s, e) for s, e in arcs))
                fam = hc.MulticoneFamily.constant(cone, 2)
                ops.append((f"probe{r}.{i}", "probe", mats, pair, fam, None))
            self.rounds.append(ops)
        self.reached_certify = self.accepted = 0

    def tail(self, latency):
        """Mean of the slowest quarter of the pullback pairs (11 of 44).

        Their costs come in lumps set by the component's rank, so any one
        percentile that leaves 10 pairs above it sits on the edge of a lump
        and jumped by up to 65% between seeds; a mean over the quarter moves
        with all of them.
        """
        return statistics.mean(latency[len(latency) * 3 // 4:])

    def do(self, op, tr):
        if op[1] == "probe":
            return self.probe(op, tr)
        key, _, mats, pair, fword, mirrored = op
        t0 = thread_time_ns()
        root = tr.begin("certify.pair", key) if tr is not None else None
        try:
            status, v, extra = self.pipeline(key, mats, tr)
        except Exception as exc:
            status, v, extra = "raised", None, type(exc).__name__
        if tr is not None:
            tr.end(root, failed=status != "certified")
        ns = thread_time_ns() - t0
        self.tally(key, True, status != "certified",
                   status == "unclassified" and type(v).__name__ == "Degenerate")

        def full_check():
            if v is not None:
                check.constructed_verdict(v, fword, mirrored)
            if status == "certified":
                contraction, comparability, morphism = extra
                check.growth_bound(pair, comparability, contraction)
                check.morphism_class(morphism, fword, mirrored)

        self.verify(key, (status, v, extra), full_check)
        return ns

    def pipeline(self, key, mats, tr):
        hc = self.hc
        A, B = mats
        v = call(tr, EXACT if A.is_exact() else FLOAT, key, hc.classify_pair, A, B)
        if type(v).__name__ != "NonPrincipal":
            return "unclassified", v, None
        pair = (A if v.sign_pair[0] > 0 else -A, B if v.sign_pair[1] > 0 else -B)
        try:
            return self.certify_component(key, pair, v, tr)
        except Exception as exc:
            return "raised", v, type(exc).__name__

    def certify_component(self, key, pair, v, tr):
        hc = self.hc
        model = call(tr, "fareycomb.component_model", key,
                     hc.component_model, *pair, v.fword)
        crit = call(tr, "multicone.core_criterion", key, hc.core_criterion,
                    pair, model.cores,
                    outcome=lambda r: ("multicone.core_criterion", not r.ok))
        if not crit.ok:
            return "criterion", v, crit.reasons[0].split(":")[0]
        cone = call(tr, "multicone.fatten_cores", key, hc.fatten_cores,
                    pair, model.cores)
        fam = hc.MulticoneFamily.constant(cone, 2)
        if self.counting:
            self.reached_certify += 1
        rep = call(tr, "multicone.certify.accept", key, hc.certify,
                   pair, self.full2, fam, outcome=self._accept_expected)
        if not rep.ok:
            return "rejected", v, None
        if self.counting:
            self.accepted += 1
        phi = call(tr, "corrdyn.induced_morphism", key, hc.induced_morphism,
                   pair, model.cores)
        morphism = call(tr, "corrdyn.classify_two_morphism", key,
                        hc.classify_two_morphism, phi)
        return "certified", v, (rep.contraction, rep.comparability, morphism)

    @staticmethod
    def _accept_expected(rep):
        return ("multicone.certify.accept", False) if rep.ok else \
            ("multicone.certify.reject", True)

    @staticmethod
    def _reject_expected(rep):
        return ("multicone.certify.accept", True) if rep.ok else \
            ("multicone.certify.reject", False)

    def probe(self, op, tr):
        key, _, mats, pair, fam, _ = op
        try:
            rep = call(tr, "multicone.certify.reject", key, self.hc.certify,
                       mats, self.full2, fam, outcome=self._reject_expected)
        except Exception as exc:
            self.tally(key, False, True)
            self.verify(key, ("raised", type(exc).__name__), lambda: None)
            return None
        self.tally(key, False, False)

        def full_check():
            check.elliptic_product(pair)
            check.rejected(rep)

        self.verify(key, rep, full_check)
        return None

    def extra_layers(self):
        share = self.accepted / self.reached_certify if self.reached_certify else 0.0
        return dict(super().extra_layers(), **{"certify.accept_share": (share, "share")})


class Search(Workload):
    """Word enumeration, witness searches and cores on fixed tuples.

    The tuples are fixed, so the seed changes nothing here.  They are not
    rotated by a seeded angle: compute_cores on the free pair conjugated by
    some rotations takes 15-30 s instead of 0.2 s, which no run could absorb
    (see README.md).
    """

    warmup_ops = 15

    def __init__(self, hc, seed: int, root: str):
        super().__init__(hc, root)
        Mat2, Sft = hc.Mat2, hc.Sft

        def mats(entries):
            return tuple(Mat2(*m) for m in entries)

        # plain entries for the checks, Mat2 tuples for the program
        free_e = gen.free_pair()
        walk_e = gen.elliptic_walk_pair()
        triple_e = gen.boundary_triple()
        group_e = gen.group_tuple(free_e)
        free, walk, triple, group = map(mats, (free_e, walk_e, triple_e, group_e))
        full2, full3 = Sft.full(2), Sft.full(3)
        sft4, golden = Sft(4, gen.SFT4), Sft(2, gen.GOLDEN)
        ell, par = hc.search_elliptic, hc.search_parabolic
        het, rate = hc.best_heteroclinic, hc.hyperbolicity_rate
        cores = hc.compute_cores
        C = check
        # (key, span, function, args, check of the result, witness hit test)
        self.tasks = [
            ("free.rate", "symdyn.hyperbolicity_rate", rate, (free, full2, 12),
             lambda r: C.rate(free_e, 12, r), None),
            ("free.elliptic", "witness.search_elliptic", ell, (free, full2, 10),
             C.no_witness, _found),
            ("free.parabolic", "witness.search_parabolic", par, (free, full2, 10),
             C.no_witness, _found),
            ("free.heteroclinic", "witness.best_heteroclinic", het,
             (free, full2, 10, 10, 6), lambda r: C.heteroclinic(free_e, r), _connects),
            ("free.cores", "multicone.compute_cores.full", cores, (free, full2),
             lambda r: C.cores_hold_directions(free_e, r), None),
            ("walk.elliptic", "witness.search_elliptic", ell, (walk, full2, 10),
             lambda r: C.elliptic_word(walk_e, r), _found),
            ("triple.heteroclinic", "witness.best_heteroclinic", het,
             (triple, full3, 2, 2, 2),
             lambda r: C.require(C.heteroclinic(triple_e, r),
                                 "boundary triple: no connection"), _connects),
            ("words.full2", "symdyn.periodic_words", self._words, (full2, 12),
             lambda r: C.periodic_words(r, 2, 12), None),
            ("words.full3", "symdyn.periodic_words", self._words, (full3, 8),
             lambda r: C.periodic_words(r, 3, 8), None),
            ("words.sft4", "symdyn.periodic_words", self._words, (sft4, 8),
             lambda r: C.periodic_words(r, 4, 8, gen.SFT4), None),
            ("group.rate", "symdyn.hyperbolicity_rate", rate, (group, sft4, 6),
             lambda r: C.rate(group_e, 6, r, gen.SFT4), None),
            ("group.elliptic", "witness.search_elliptic", ell, (group, sft4, 8),
             C.no_witness, _found),
            ("group.parabolic", "witness.search_parabolic", par, (group, sft4, 8),
             C.no_witness, _found),
            ("group.heteroclinic", "witness.best_heteroclinic", het,
             (group, sft4, 4, 4, 3), lambda r: C.heteroclinic(group_e, r, gen.SFT4),
             _connects),
            ("golden.cores", "multicone.compute_cores.sft", cores, (free, golden),
             lambda r: C.cores_hold_directions(free_e, r, gen.GOLDEN), None),
        ]
        self.rounds = [self.tasks]
        self.witness_calls = self.witness_hits = 0

    def _words(self, sft, n):
        return list(self.hc.periodic_words(sft, n))

    def do(self, op, tr):
        key, name, fn, args, full_check, hit = op
        t0 = thread_time_ns()
        try:
            out = call(tr, name, key, fn, *args)
        except Exception as exc:
            ns = thread_time_ns() - t0
            self.tally(key, True, True)
            self.verify(key, ("raised", type(exc).__name__), lambda: None)
            return ns
        ns = thread_time_ns() - t0
        self.tally(key, True, False)
        if tr is not None and name == "symdyn.periodic_words":
            tr.count("symdyn.periodic_words.words", len(out))
        if hit is not None and self.counting:
            self.witness_calls += 1
            self.witness_hits += hit(out)
        self.verify(key, out, lambda: full_check(out))
        return ns

    def extra_layers(self):
        share = self.witness_hits / self.witness_calls if self.witness_calls else 0.0
        return dict(super().extra_layers(), **{"witness.hit_share": (share, "share")})


def _found(result) -> bool:
    return result is not None


def _connects(hit) -> bool:
    return hit is not None and hit.residual <= 1e-9


class Cli(Workload):
    """Each subcommand as a fresh `python -m hypercone.cli` on files written here.

    The tuple files hold the fixed free pair; the seed picks the fraction
    of the farey subcommand.

    Subprocesses run one at a time.  The traced run also calls cli.main
    in-process on the same arguments, which leaves out interpreter start and
    import.
    """

    warmup_ops = 1

    def __init__(self, hc, seed: int, root: str):
        super().__init__(hc, root)
        rng = gen.rng_for(seed, "cli")
        free = gen.free_pair()
        # describe's sign word is fixed: `--fword=--` crashes the parser (see
        # README.md), so a seeded word would fail the exit-code check at random
        fword = "+-"
        q = rng.randint(2, 12)
        p = rng.choice([k for k in range(1, q) if math.gcd(k, q) == 1])
        cone = gen.free_pair_cone()
        self.tmp = tempfile.mkdtemp(prefix=".perfbench_tmp", dir=root)
        self._write("free.json", {"matrices": [[[m[0], m[1]], [m[2], m[3]]]
                                               for m in free],
                                  "shift": {"type": "full"}, "mode": "float"})
        self._write("family.json", {str(i): {"arcs": cone}
                                    for i in range(2)})
        self._write("parabolic.json", {"matrices": [[[1, 1], [0, 1]],
                                                    [[2, 1], [0, 0.5]]]})
        with open(os.path.join(self.tmp, "bad.json"), "w") as fh:
            fh.write("{not json")
        # (key, argv, documented exit code, check of the parsed envelope)
        self.calls = [
            ("classify2", ["classify2", "--input", "free.json"], 0,
             lambda d: check.require(d["verdicts"][0]["fword"] == "",
                                     "free pair not at the free level")),
            ("certify", ["certify", "--input", "free.json", "--multicone",
                         "family.json"], 0,
             lambda d: check.require(d["verdicts"][0]["ok"], "family rejected")),
            ("cores", ["cores", "--input", "free.json"], 0,
             lambda d: check.require(d["verdicts"][0]["rank"] == 2, "cores rank")),
            ("describe", ["describe", f"--fword={fword}"], 0,
             lambda d: check.require(d["verdicts"][0]["fraction"]
                                     == _frac(check.fraction_of(fword)),
                                     "describe fraction")),
            ("farey", ["farey", "--pq", f"{p}/{q}"], 0,
             lambda d: check.require(len(d["verdicts"][0]["order"]) == 2 * q,
                                     "farey order length")),
            ("winding", ["winding", "--input", "free.json", "--word", "AB"], 0,
             lambda d: check.require(d["verdicts"][0]["winding"] == -1,
                                     "winding of AB")),
            ("witness", ["witness", "--input", "free.json", "--budget", "8,8,5"], 0,
             lambda d: check.require(d["verdicts"][0]["kind"] == "none",
                                     "witness on a free pair")),
            ("normalize", ["normalize", "--input", "free.json", "--bound", "10"], 0,
             lambda d: check.require(
                 max(abs(v) for m in d["verdicts"][0]["normalized"]
                     for row in m for v in row)
                 <= d["verdicts"][0]["entry_bound"], "normalized entries")),
            ("rate", ["rate", "--input", "free.json", "--depth", "10"], 0,
             lambda d: check.rate(free, 10, _Rate(d["verdicts"][0]))),
            ("degenerate", ["classify2", "--input", "parabolic.json"], 2,
             lambda d: check.require(d["verdicts"][0]["variant"] == "degenerate",
                                     "parabolic generator not degenerate")),
            ("bad_input", ["classify2", "--input", "bad.json"], 1, None),
        ]
        self.rounds = [self.calls]
        env = dict(os.environ)
        env.pop("HYPERCONE_TOL", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self.sub_ms: dict[str, list[float]] = {}
        self.main_ms: dict[str, list[float]] = {}

    def _write(self, name, doc):
        with open(os.path.join(self.tmp, name), "w") as fh:
            json.dump(doc, fh)

    def do(self, op, tr):
        key, argv, want, validate = op
        root = tr.begin("cli.call", key) if tr is not None else None
        before = _children_cpu_ns()
        proc = subprocess.run([sys.executable, "-m", "hypercone.cli", *argv],
                              cwd=self.tmp, env=self.env, capture_output=True)
        ns = _children_cpu_ns() - before     # the one child's user + system time
        crashed = b"Traceback" in proc.stderr
        if tr is not None:
            tr.end(root, failed=crashed)
        self.tally(key, True, crashed, proc.returncode == 2)
        if self.counting:
            self.sub_ms.setdefault(key, []).append(ns / 1e6)

        def full_check():
            check.exit_code(key, proc.returncode, want, proc.stderr.decode())
            if validate is not None:
                doc = json.loads(proc.stdout)
                check.require(doc["command"] == argv[0], f"{key}: command field")
                validate(doc)

        def repeat_check(first):
            check.exit_code(key, proc.returncode, first[0], proc.stderr.decode())
            check.same_envelope(key, first[1], proc.stdout)

        self.verify(key, (proc.returncode, proc.stdout), full_check, repeat_check)
        if tr is not None and want == 0:
            self.in_process(key, argv, proc.stdout, tr)
        return ns

    def in_process(self, key, argv, envelope: bytes, tr):
        out, err = io.StringIO(), io.StringIO()
        t0 = thread_time_ns()
        cwd = os.getcwd()
        os.chdir(self.tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                call(tr, f"cli.main.{argv[0]}", key, self.hc.cli.main, argv)
        except (Exception, SystemExit) as exc:
            self.errors.append(f"{key}: in-process main raised {exc!r}")
        finally:
            os.chdir(cwd)
        self.main_ms.setdefault(key, []).append((thread_time_ns() - t0) / 1e6)
        if out.getvalue().encode() != envelope:
            self.errors.append(f"{key}: in-process envelope differs from the subprocess")

    def extra_layers(self):
        gaps = [statistics.median(self.sub_ms[k]) - statistics.median(v)
                for k, v in self.main_ms.items() if k in self.sub_ms]
        gap = statistics.median(gaps) if gaps else 0.0
        return dict(super().extra_layers(), **{"cli.startup_ms": (gap, "ms")})

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def _children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


class _Rate:
    """Rate verdict of the cli envelope, in the shape check.rate reads."""

    def __init__(self, verdict):
        self.value = verdict["rate"]
        self.word = tuple(ord(ch) - ord("A") for ch in verdict["word"])


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


WORKLOADS = {"decide": Decide, "certify": Certify, "search": Search, "cli": Cli}

"""Command-line interface: classification, certification, diagrams.

Tuple specification files are JSON documents

    {"matrices": [[[2, 1], [0, 0.5]], [[0.5, 0], [-9, 2]]],
     "shift": {"type": "full"},
     "mode": "float"}

with entries given as numbers or exact strings like "1/3" in rational mode,
and an optional {"type": "sft", "allowed": [[...]]} transition table.  A file
may also hold {"tuples": [spec, ...]} for batch runs; outputs keep the input
order.  Every command prints a deterministic JSON envelope (sorted keys,
shortest round-trip floats) carrying the verdict together with the
tolerances and budgets it was decided under.

Exit codes: 0 ok, 1 input error (usage errors included), 2 degenerate
verdict, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import (__version__, corrdyn, fareycomb, multicone, render, symdyn,
               twoshift, witness)
from .errors import (ClosureBudgetExceeded, HyperconeError,
                     SearchBudgetExceeded)
from .sl2core import Mat2, c1_bound, check_unimodular, normalize_tuple
from .symdyn import Sft, render_word
from .tolerances import DEFAULT, Tolerances

VERSION = __version__

EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE, EXIT_BUDGET = 0, 1, 2, 3


class InputError(Exception):
    pass


def _tolerances() -> Tolerances:
    env = os.environ.get("HYPERCONE_TOL")
    if env is None:
        return DEFAULT
    try:
        return dataclasses.replace(DEFAULT, trace=float(env))
    except ValueError as exc:
        raise InputError(f"bad HYPERCONE_TOL value {env!r}") from exc


def _parse_entry(v, exact: bool):
    if exact:
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, float) and v.is_integer():
            return Fraction(int(v))
        raise InputError(f"entry {v!r} is not exact in rational mode")
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


def parse_tuple_spec(data: dict, mode_flag: str | None, tol: Tolerances):
    mode = mode_flag or data.get("mode", "float")
    if mode not in ("float", "rational"):
        raise InputError(f"unknown mode {mode!r}")
    exact = mode == "rational"
    try:
        mats = tuple(Mat2(_parse_entry(r[0][0], exact), _parse_entry(r[0][1], exact),
                          _parse_entry(r[1][0], exact), _parse_entry(r[1][1], exact))
                     for r in data["matrices"])
    except (KeyError, IndexError, TypeError) as exc:
        raise InputError(f"malformed matrices field: {exc}") from exc
    for m in mats:
        check_unimodular(m, tol)
    shift = data.get("shift", {"type": "full"})
    if shift.get("type", "full") == "full":
        sft = Sft.full(len(mats))
    else:
        table = tuple(tuple(bool(v) for v in row) for row in shift["allowed"])
        sft = Sft(len(mats), table)
    if sft.n_symbols != len(mats):
        raise InputError("transition table does not match the tuple size")
    return mats, sft, mode


def load_specs(path: str, mode_flag: str | None, tol: Tolerances):
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    data = json.loads(raw)
    specs = data["tuples"] if isinstance(data, dict) and "tuples" in data else [data]
    return [parse_tuple_spec(d, mode_flag, tol) for d in specs], digest


def envelope(command: str, digest: str, verdicts, tol: Tolerances,
             budgets: dict | None = None) -> str:
    doc = {"command": command, "input_digest": digest, "version": VERSION,
           "tolerances": tol.as_dict(), "budgets": budgets or {},
           "verdicts": verdicts}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def _write_svg(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify2(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    verdicts = []
    worst = EXIT_OK
    for mats, sft, mode in specs:
        if len(mats) != 2 or not sft.is_full:
            raise InputError("classify2 needs exactly two matrices on the full shift")
        c = twoshift.classify_pair(mats[0], mats[1], tol)
        d = twoshift.classification_to_dict(c)
        verdicts.append(d)
        if d["variant"] == "degenerate":
            worst = max(worst, EXIT_DEGENERATE)
        if args.svg and d["variant"] == "non_principal":
            model = fareycomb.component_model(
                mats[0] if c.sign_pair[0] > 0 else -mats[0],
                mats[1] if c.sign_pair[1] > 0 else -mats[1], c.fword, tol)
            _write_svg(args.svg, render.component_diagram(model))
    sys.stdout.write(envelope("classify2", digest, verdicts, tol))
    return worst


def cmd_certify(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    with open(args.multicone, "rb") as fh:
        fam_data = json.loads(fh.read())
    verdicts = []
    worst = EXIT_OK
    for mats, sft, _ in specs:
        fam = multicone.MulticoneFamily.from_json(fam_data)
        report = multicone.certify(mats, sft, fam, tol)
        verdicts.append(report.to_json())
        if not report.ok:
            worst = max(worst, EXIT_DEGENERATE)
        if args.svg:
            _write_svg(args.svg, render.svg_diagram(cone=fam.cones[0],
                                                    title="certified family"
                                                    if report.ok else "rejected"))
    sys.stdout.write(envelope("certify", digest, verdicts, tol))
    return worst


def cmd_cores(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    verdicts = []
    for mats, sft, _ in specs:
        cores = multicone.compute_cores(mats, sft, depth=args.depth, tol=tol)
        verdicts.append(cores.to_json())
        if args.svg:
            _write_svg(args.svg, render.svg_diagram(cores=cores, title="cores"))
    sys.stdout.write(envelope("cores", digest, verdicts, tol,
                              budgets={"depth": args.depth}))
    return EXIT_OK


def _order_svg(family, title: str) -> str:
    import math
    words = family.words()
    n = len(words)
    points = {w: math.pi * i / n for i, w in enumerate(words)}
    return render.svg_diagram(points=points, title=title)


def cmd_describe(args, tol: Tolerances) -> int:
    fword = args.fword
    if not isinstance(fword, str):
        # argparse strips a value that is exactly "--", so --fword=-- arrives
        # as an empty list of values
        fword = "--"
    if set(fword) - {"+", "-"}:
        raise InputError(f"sign word {fword!r} has characters other than '+' and '-'")
    frac = fareycomb.j_of_fword(fword)
    family = fareycomb.build_order(frac)
    table = fareycomb.action_table(frac)
    verdict = {
        "fword": fword,
        "fraction": f"{frac.numerator}/{frac.denominator}",
        "order": family.words(),
        "lex_first": family.lex_first,
        "lex_last": family.lex_last,
        "action": {w: {g: {"to": t, "exact": e} for g, (t, e) in row.items()}
                   for w, row in table.items()},
    }
    if args.svg:
        _write_svg(args.svg, _order_svg(
            family, f"component {frac.numerator}/{frac.denominator}"))
    digest = hashlib.sha256(fword.encode()).hexdigest()
    sys.stdout.write(envelope("describe", digest, [verdict], tol))
    return EXIT_OK


def cmd_farey(args, tol: Tolerances) -> int:
    p, q = args.pq.split("/")
    frac = Fraction(int(p), int(q))
    family = fareycomb.build_order(frac)
    left, right = family.parents
    verdict = {
        "fraction": f"{frac.numerator}/{frac.denominator}",
        "parents": [f"{left.numerator}/{left.denominator}",
                    f"{right.numerator}/{right.denominator}"],
        "order": family.words(),
        "lex_first": family.lex_first,
        "lex_last": family.lex_last,
    }
    if args.svg:
        _write_svg(args.svg, _order_svg(family, f"order of {args.pq}"))
    digest = hashlib.sha256(args.pq.encode()).hexdigest()
    sys.stdout.write(envelope("farey", digest, [verdict], tol))
    return EXIT_OK


def cmd_winding(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    verdicts = []
    for mats, sft, _ in specs:
        n = corrdyn.winding_matrix(mats, args.word.upper())
        verdicts.append({"word": args.word.upper(), "winding": n})
    sys.stdout.write(envelope("winding", digest, verdicts, tol))
    return EXIT_OK


def cmd_witness(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    k, ell, n = (int(x) for x in args.budget.split(","))
    verdicts = []
    for mats, sft, _ in specs:
        report = witness.diagnose_boundary(mats, sft, budget=(k, ell, n), tol=tol)
        verdicts.append(report.to_json())
    sys.stdout.write(envelope("witness", digest, verdicts, tol,
                              budgets={"k": k, "l": ell, "n": n}))
    return EXIT_OK


def cmd_normalize(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    verdicts = []
    for mats, sft, _ in specs:
        R, out = normalize_tuple(mats, args.bound, tol)
        verdicts.append({
            "bound": args.bound,
            "entry_bound": c1_bound(args.bound),
            "conjugator": [[R.a, R.b], [R.c, R.d]],
            "normalized": [[[m.a, m.b], [m.c, m.d]] for m in out],
        })
    sys.stdout.write(envelope("normalize", digest, verdicts, tol,
                              budgets={"bound": args.bound}))
    return EXIT_OK


def cmd_rate(args, tol: Tolerances) -> int:
    specs, digest = load_specs(args.input, args.mode, tol)
    verdicts = []
    for mats, sft, _ in specs:
        rep = symdyn.hyperbolicity_rate(mats, sft, args.depth)
        verdicts.append({"rate": rep.value, "word": render_word(rep.word),
                         "depth": rep.depth})
    sys.stdout.write(envelope("rate", digest, verdicts, tol,
                              budgets={"depth": args.depth}))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hypercone",
                 description="uniform hyperbolicity toolkit for "
                             "finite SL(2,R) families")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="tuple spec JSON file")
            p.add_argument("--mode", choices=["float", "rational"], default=None)
        p.add_argument("--svg", default=None, help="write an SVG diagram here")

    p = sub.add_parser("classify2", help="decide a pair over the full 2-shift")
    add_common(p)
    p.set_defaults(func=cmd_classify2)

    p = sub.add_parser("certify", help="check a multicone family certificate")
    add_common(p)
    p.add_argument("--multicone", required=True, help="multicone family JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("cores", help="iterate core approximations")
    add_common(p)
    p.add_argument("--depth", type=int, default=48)
    p.set_defaults(func=cmd_cores)

    p = sub.add_parser("describe", help="combinatorics of a component by sign word")
    p.add_argument("--fword", required=True, help="sign word over '+' and '-' "
                                                  "such as '+-+' (empty for the "
                                                  "free level)")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("farey", help="cyclic order of a rotation family")
    p.add_argument("--pq", required=True, help="fraction such as 2/5")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("winding", help="winding number of a word")
    add_common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("witness", help="search non-hyperbolicity witnesses")
    add_common(p)
    p.add_argument("--budget", default="12,12,8", help="k,l,n search depths")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("normalize", help="conjugate a tuple into bounded entries")
    add_common(p)
    p.add_argument("--bound", type=float, required=True, help="shared trace bound")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("rate", help="finite-depth hyperbolicity rate estimate")
    add_common(p)
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(func=cmd_rate)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        tol = _tolerances()
        return args.func(args, tol)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (SearchBudgetExceeded, ClosureBudgetExceeded) as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except HyperconeError as exc:
        sys.stderr.write(f"degenerate input: {exc}\n")
        return EXIT_DEGENERATE


if __name__ == "__main__":
    raise SystemExit(main())

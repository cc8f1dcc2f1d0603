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
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import HyperconeError, SearchBudgetExceeded, WitnessUnverified
from .sl2core import Mat2, c1_bound, check_unimodular, normalize_tuple
from .symdyn import LETTERS, Sft, hyperbolicity_rate, render_word
from .tolerances import DEFAULT

VERSION = __version__

EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE, EXIT_BUDGET = 0, 1, 2, 3


class InputError(Exception):
    pass


def _parse_entry(v, exact: bool):
    if isinstance(v, bool):
        raise InputError(f"entry {v!r} is not a number")
    if exact:
        if isinstance(v, (str, int)) or isinstance(v, float) and v.is_integer():
            return Fraction(v)
        raise InputError(f"entry {v!r} is not exact in rational mode")
    if isinstance(v, str):
        return float(Fraction(v))
    # json reads NaN and +-Infinity, which no determinant test refuses
    if isinstance(v, float) and not math.isfinite(v):
        raise InputError(f"entry {v!r} is not finite")
    return float(v)


def _parse_matrix(rows, exact: bool) -> Mat2:
    if not (isinstance(rows, list) and len(rows) == 2
            and all(isinstance(r, list) and len(r) == 2 for r in rows)):
        raise InputError(f"matrix {rows!r} is not 2 by 2")
    (a, b), (c, d) = rows
    return Mat2(*(_parse_entry(v, exact) for v in (a, b, c, d)))


def _parse_flag(v) -> bool:
    # bool is a subclass of int, so this admits true, false, 0 and 1
    if not isinstance(v, int) or v not in (0, 1):
        raise InputError(f"transition table entry {v!r} is not a boolean or 0/1")
    return bool(v)


def parse_tuple_spec(data: dict, mode_flag: str | None):
    if not isinstance(data, dict):
        raise InputError(f"tuple spec {data!r} is not a JSON object")
    mode = mode_flag or data.get("mode", "float")
    if mode not in ("float", "rational"):
        raise InputError(f"unknown mode {mode!r}")
    exact = mode == "rational"
    try:
        mats = tuple(_parse_matrix(r, exact) for r in data["matrices"])
    except (KeyError, OverflowError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed matrices field: {exc}") from exc
    for i, m in enumerate(mats):
        try:
            check_unimodular(m)
        except OverflowError:  # its message's det has no float
            raise InputError(f"matrix {i} has a determinant beyond the float range") from None
    if not mats:
        raise InputError("the matrices field is empty")
    n = len(mats)
    if n > len(LETTERS):
        raise InputError(f"{n} matrices, more than the {len(LETTERS)} letters of a word")
    shift = data.get("shift", {"type": "full"})
    if not isinstance(shift, dict):
        raise InputError(f"shift {shift!r} is not a JSON object")
    if shift.get("type", "full") == "full":
        return mats, Sft.full(n)
    if shift["type"] != "sft":
        raise InputError(f"unknown shift type {shift['type']!r} (expected 'full' or 'sft')")
    if "allowed" not in shift:
        raise InputError("an sft shift needs an 'allowed' transition table")
    try:
        table = tuple(tuple(_parse_flag(v) for v in row) for row in shift["allowed"])
    except TypeError as exc:
        raise InputError(f"malformed allowed table: {exc}") from exc
    if len(table) != n or any(len(row) != n for row in table):
        raise InputError(f"transition table is not {n} by {n} for {n} matrices")
    return mats, Sft(n, table)


def load_specs(path: str, mode_flag: str | None):
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    data = json.loads(raw)
    specs = data["tuples"] if isinstance(data, dict) and "tuples" in data else [data]
    if not isinstance(specs, list):
        raise InputError("the tuples field is not a JSON list")
    return [parse_tuple_spec(d, mode_flag) for d in specs], digest


def envelope(command: str, digest: str, verdicts, budgets: dict | None = None) -> str:
    doc = {"command": command, "input_digest": digest, "version": VERSION,
           "tolerances": DEFAULT.as_dict(), "budgets": budgets or {},
           "verdicts": verdicts}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def _write_svg(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _run(args) -> int:
    """The tuple subcommands' one loop.  Once the specs are read,
    args.decide(args) gives the command's budgets and its verdict(mats,
    sft) -> (verdict, exit code), called per tuple in input order; one
    envelope named by the command follows the last tuple, so an error
    within a batch prints none.  Returns the worst exit code."""
    specs, digest = load_specs(args.input, args.mode)
    verdict, budgets = args.decide(args)
    verdicts, worst = [], EXIT_OK
    for mats, sft in specs:
        v, code = verdict(mats, sft)
        verdicts.append(v)
        worst = max(worst, code)
    sys.stdout.write(envelope(args.command, digest, verdicts, budgets))
    return worst


def decide_classify2(args):
    from . import twoshift

    def verdict(mats, sft):
        if len(mats) != 2 or not sft.is_full:
            raise InputError("classify2 needs exactly two matrices on the full shift")
        c = twoshift.classify_pair(*mats)
        d = twoshift.classification_to_dict(c)
        if args.svg and d["variant"] == "non_principal":
            from . import fareycomb, render
            model = fareycomb.component_model(
                *(m if sign > 0 else -m for m, sign in zip(mats, c.sign_pair)), c.fword)
            _write_svg(args.svg, render.component_diagram(model))
        return d, EXIT_DEGENERATE if d["variant"] == "degenerate" else EXIT_OK
    return verdict, None


def _finite_angle(text: str) -> float:
    """A number of a multicone file, refused unless finite: json reads NaN,
    +-Infinity and a literal beyond the float range, such as 1e400."""
    value = float(text)
    if not math.isfinite(value):
        raise InputError(f"multicone entry {text} is not finite")
    return value


def decide_certify(args):
    from . import multicone
    with open(args.multicone, "rb") as fh:
        fam_data = json.loads(fh.read(), parse_float=_finite_angle,
                              parse_constant=_finite_angle)

    def verdict(mats, sft):
        fam = multicone.MulticoneFamily.from_json(fam_data)
        report = multicone.certify(mats, sft, fam)
        if args.svg:
            from . import render
            _write_svg(args.svg, render.svg_diagram(
                cone=fam.cones[0], title="certified family" if report.ok else "rejected"))
        return report.to_json(), EXIT_OK if report.ok else EXIT_DEGENERATE
    return verdict, None


def decide_cores(args):
    from . import multicone

    def verdict(mats, sft):
        cores = multicone.compute_cores(mats, sft, depth=args.depth)
        if args.svg:
            from . import render
            _write_svg(args.svg, render.svg_diagram(cores=cores, title="cores"))
        return cores.to_json(), EXIT_OK
    return verdict, {"depth": args.depth}


def decide_winding(args):
    from . import corrdyn
    word = args.word.upper()

    def verdict(mats, sft):
        alphabet = LETTERS[:len(mats)]
        if not set(word) <= set(alphabet):
            raise InputError(f"word {word!r} is not over the alphabet {alphabet}")
        return {"word": word, "winding": corrdyn.winding_matrix(mats, word)}, EXIT_OK
    return verdict, None


def decide_witness(args):
    from . import witness
    k, ell, n = args.budget

    def verdict(mats, sft):
        return witness.diagnose_boundary(mats, sft, budget=args.budget).to_json(), EXIT_OK
    return verdict, {"k": k, "l": ell, "n": n}


def decide_normalize(args):
    def verdict(mats, sft):
        R, out = normalize_tuple(mats, args.bound)
        return {"bound": args.bound, "entry_bound": c1_bound(args.bound),
                "conjugator": [[R.a, R.b], [R.c, R.d]],
                "normalized": [[[m.a, m.b], [m.c, m.d]] for m in out]}, EXIT_OK
    return verdict, {"bound": args.bound}


def decide_rate(args):
    def verdict(mats, sft):
        rep = hyperbolicity_rate(mats, sft, args.depth)
        return {"rate": rep.value, "word": render_word(rep.word),
                "depth": rep.depth}, EXIT_OK
    return verdict, {"depth": args.depth}


def _rotation(args, text: str, frac: Fraction, title: str, **fields) -> int:
    """describe's and farey's one verdict: the fields with frac's rotation
    family (order, lex_first, lex_last), whose order --svg draws, in an
    envelope digested from the text argument."""
    from . import fareycomb
    family = fareycomb.build_order(frac)
    words = family.words()
    if args.svg:
        from . import render
        points = {w: math.pi * i / len(words) for i, w in enumerate(words)}
        _write_svg(args.svg, render.svg_diagram(points=points, title=title))
    # build_order has checked 0 < frac < 1, so str(frac) reads p/q
    verdict = dict(fields, fraction=str(frac), order=words,
                   lex_first=family.lex_first, lex_last=family.lex_last)
    digest = hashlib.sha256(text.encode()).hexdigest()
    sys.stdout.write(envelope(args.command, digest, [verdict]))
    return EXIT_OK


def cmd_describe(args) -> int:
    from . import fareycomb
    fword = args.fword
    if not isinstance(fword, str):
        # argparse strips a value that is exactly "--", so --fword=-- arrives
        # as an empty list of values
        fword = "--"
    if set(fword) - {"+", "-"}:
        raise InputError(f"sign word {fword!r} has characters other than '+' and '-'")
    frac = fareycomb.j_of_fword(fword)
    action = {w: {g: {"to": t, "exact": e} for g, (t, e) in row.items()}
              for w, row in fareycomb.action_table(frac).items()}
    return _rotation(args, fword, frac, f"component {frac}", fword=fword, action=action)


def cmd_farey(args) -> int:
    from . import fareycomb
    text, frac = args.pq
    parents = [f"{f.numerator}/{f.denominator}" for f in fareycomb.farey_interval(frac)]
    return _rotation(args, text, frac, f"order of {text}", parents=parents)


def _depth(text: str) -> int:
    """A word length of at least 1; argparse reports a non-integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"depth {value} is below 1")
    return value


def _bound(text: str) -> float:
    """A finite trace bound of at least 0; argparse reports a non-number."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"bound {text!r} is not a finite number >= 0")
    return value


def _interior_fraction(text: str) -> tuple[str, Fraction]:
    """p/q strictly between 0 and 1, with the text it was given as (the
    envelope digests the text, so 2/4 and 1/2 differ there); argparse
    reports a non-integer or a wrong count."""
    p, q = (int(x) for x in text.split("/"))
    if q == 0 or not 0 < Fraction(p, q) < 1:
        raise argparse.ArgumentTypeError(
            f"fraction {text!r} is not strictly between 0 and 1")
    return text, Fraction(p, q)


def _budget(text: str) -> tuple[int, int, int]:
    """k,l,n: source and target lengths of at least 1 and a connector
    length of at least 0 (the empty connector); argparse reports a
    non-integer or a wrong count."""
    k, ell, n = (int(x) for x in text.split(","))
    if k < 1 or ell < 1 or n < 0:
        raise argparse.ArgumentTypeError(
            f"budget {text!r} needs k >= 1, l >= 1 and n >= 0")
    return k, ell, n


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

    def add_common(p, decide):
        p.add_argument("--input", required=True, help="tuple spec JSON file")
        p.add_argument("--mode", choices=["float", "rational"], default=None)
        p.set_defaults(func=_run, decide=decide)

    p = sub.add_parser("classify2", help="decide a pair over the full 2-shift")
    add_common(p, decide_classify2)
    p.add_argument("--svg", default=None, help="write a component diagram here")

    p = sub.add_parser("certify", help="check a multicone family certificate")
    add_common(p, decide_certify)
    p.add_argument("--multicone", required=True, help="multicone family JSON")
    p.add_argument("--svg", default=None, help="write the family's diagram here")

    p = sub.add_parser("cores", help="cores filled from periodic points")
    add_common(p, decide_cores)
    p.add_argument("--svg", default=None, help="write the cores' diagram here")
    p.add_argument("--depth", type=_depth, default=12,
                   help="longest periodic word length tried")

    p = sub.add_parser("describe", help="combinatorics of a component by sign word")
    p.add_argument("--fword", required=True, help="sign word over '+' and '-' "
                                                  "such as '+-+' (empty for the "
                                                  "free level)")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("farey", help="cyclic order of a rotation family")
    p.add_argument("--pq", type=_interior_fraction, required=True,
                   help="fraction strictly between 0 and 1, such as 2/5")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("winding", help="winding number of a word")
    add_common(p, decide_winding)
    p.add_argument("--word", required=True)

    p = sub.add_parser("witness", help="search non-hyperbolicity witnesses")
    add_common(p, decide_witness)
    p.add_argument("--budget", type=_budget, default="12,12,8",
                   help="k,l,n search depths")

    p = sub.add_parser("normalize", help="conjugate a tuple into bounded entries")
    add_common(p, decide_normalize)
    p.add_argument("--bound", type=_bound, required=True, help="shared trace bound")

    p = sub.add_parser("rate", help="finite-depth hyperbolicity rate estimate")
    add_common(p, decide_rate)
    p.add_argument("--depth", type=_depth, default=12)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except SearchBudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except WitnessUnverified as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_DEGENERATE
    except HyperconeError as exc:
        sys.stderr.write(f"degenerate input: {exc}\n")
        return EXIT_DEGENERATE


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Render the core/multicone diagram of a 2-shift component to SVG.

Builds a member of the component with the given sign word by pulling a
canonical free pair back through the regeneration moves, computes its core
arc systems and the certified multicone around them, and writes a circle
diagram with the labeled direction data.

Usage: python scripts/draw_component.py --fword "+-" --out component.svg
"""

import argparse
import sys
from fractions import Fraction

from hypercone.fareycomb import component_model
from hypercone.multicone import MulticoneFamily, certify, fatten_cores
from hypercone.render import component_diagram
from hypercone.sl2core import Mat2
from hypercone.symdyn import Sft
from hypercone.twoshift import apply_fword_inverse


def base_pair(strength: str):
    if strength == "strong":
        mu = nu = Fraction(2)
        gamma = Fraction(-9)
    else:
        mu, nu = Fraction(11, 10), Fraction(23, 20)
        gamma = Fraction(-21, 10) - mu / nu - nu / mu
    return (Mat2(mu, Fraction(1), Fraction(0), 1 / mu),
            Mat2(1 / nu, Fraction(0), gamma, nu))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fword", default="", help="sign word such as '+-'")
    ap.add_argument("--out", default="component.svg")
    ap.add_argument("--strength", choices=["strong", "mild"], default="mild",
                    help="base pair scale (mild keeps deep components resolvable)")
    args = ap.parse_args(argv)

    pair = apply_fword_inverse(*base_pair(args.strength), args.fword)
    model = component_model(*pair, args.fword)
    cone = fatten_cores(pair, model.cores)
    report = certify(pair, Sft.full(2), MulticoneFamily.constant(cone, 2))

    note = f"   rank {model.cores.rank}   lambda {report.contraction:.4f}"
    svg = component_diagram(model, cone, note)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    frac = model.fraction
    print(f"wrote {args.out}: component {frac.numerator}/{frac.denominator}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

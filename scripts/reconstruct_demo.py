#!/usr/bin/env python3
"""Walk one line-orthogonality reconstruction end to end, verbosely.

Draws a pair of lines (orthogonal unless --oblique), prints the common
perpendicular feet and every pair of flats the typed oracle was asked
about in witness mode, one per flat of the exact cover inside the larger
flat (recorded by an oracle wrapped around the ground truth), then
compares the witness-mode and sampled-mode verdicts against the direct
direction check they are meant to reproduce.
"""

import argparse
import json
import random
import sys

from orthokernel.errors import InputError
from orthokernel.generators import GenConfig, gen_line_pair
from orthokernel.ortho import TypedPerpParams
from orthokernel.reconstruct import (
    PerpOracle,
    ReconstructionMode,
    common_perpendicular_feet,
    ground_truth_oracle,
    judge_line_pair,
    reconstruct_line_perp,
)


def show(name, flat):
    print(f"  {name} = {json.dumps(flat.to_wire())}")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k1", type=int, default=2)
    p.add_argument("--k2", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument(
        "--oblique", action="store_true", help="draw non-orthogonal lines"
    )
    args = p.parse_args()

    try:
        params = TypedPerpParams(args.m, args.k1, args.k2)
        cfg = GenConfig(
            dim=args.dim, seed=args.seed, perp_params=params,
            sample_count=args.samples,
        )
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    l1, l2 = gen_line_pair(cfg, rng, orthogonal=not args.oblique)
    # witness mode draws nothing and sampled mode runs last, so the
    # verdicts can be taken before anything is printed
    verdicts = judge_line_pair(l1, l2, params, "both", args.samples, rng)
    truth = verdicts.truth
    asked = []

    def record(x1, x2):
        asked.append((x1, x2))
        return ground_truth_oracle(params).query(x1, x2)

    reconstruct_line_perp(
        l1, l2, params, PerpOracle(params, record), ReconstructionMode.witness()
    )

    print(
        f"ambient dimension {args.dim},"
        f" oracle type (m,k1,k2)=({params.m},{params.k1},{params.k2})"
    )
    print("lines:")
    show("l1", l1)
    show("l2", l2)
    print(f"direct direction check: {truth}")

    if truth:
        q, pt = common_perpendicular_feet(l1, l2)
        print("common perpendicular feet:")
        print(f"  on l1: {json.dumps(q.to_wire()['point'])}")
        print(f"  on l2: {json.dumps(pt.to_wire()['point'])}")
    if asked:
        print(
            "pairs the oracle was asked about in witness mode, one per flat"
            " of the cover (both lines moved through the origin):"
        )
        for x1, x2 in asked:
            show("x1", x1)
            show("x2", x2)
    else:
        print("oracle not asked in witness mode: the lines admit no wrapping pair")

    ok = verdicts.witness_agrees
    print(f"witness mode verdict: {verdicts.witness}")
    print(f"sampled mode verdict (K={args.samples}): {verdicts.sampled}")
    print("agreement with direct check:", "ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

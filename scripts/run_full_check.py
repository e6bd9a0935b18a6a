#!/usr/bin/env python3
"""Run the full property battery across a dimension range.

One JSON report per dimension, all three default forms, core properties by
default (pass --props all to include the reconstruction set). Exit status 1
when any dimension reports a violation; exit status 2, with no further
dimension run, as soon as check exits 2 for one and writes no report: it
refused the input, or a generator gave up in a trial.  A --dims that names
no dimension, or an --out that cannot be made a directory (an existing
file, say), exits 2 before any dimension runs.
"""

import argparse
import sys
import time
from pathlib import Path

from orthokernel.cli import main as cli_main


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dims", default="3,4,5,6", help="comma-separated ambient dims")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--props", default="core", help="'core', 'all', or id list")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="reports", help="directory for JSON reports")
    return p.parse_args()


def main():
    args = parse_args()
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError:
        dims = []
    if not dims:
        print(
            f"error: --dims needs comma-separated integers, got {args.dims!r}",
            file=sys.stderr,
        )
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(
            f"error: --out needs a directory, cannot make {args.out!r}: {exc.strerror}",
            file=sys.stderr,
        )
        return 2
    failing = 0
    t0 = time.perf_counter()
    for n in dims:
        report = out / f"check-dim{n}.json"
        code = cli_main(
            [
                "check", "--dim", str(n), "--trials", str(args.trials),
                "--seed", str(args.seed), "--props", args.props,
                "--form", "all", "--jobs", str(args.jobs),
                "--json", str(report),
            ]
        )
        if code == 2:
            # check has said on stderr what it refused or what gave up
            print(f"dim {n}: exit 2, no report written", file=sys.stderr)
            return 2
        failing += code != 0
        print(f"dim {n}: exit {code}, report written to {report}")
    elapsed = time.perf_counter() - t0
    print(f"finished in {elapsed:.1f}s; failing dimensions: {failing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

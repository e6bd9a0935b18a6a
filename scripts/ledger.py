#!/usr/bin/env python3
"""Write the work ledger: exact counts of the kernel's work, by unit.

Usage: python scripts/ledger.py [PATH]

Writes PATH (default ``LEDGER.json`` at the repository root) with, for
each unit of work, how often it called the elimination routines
(``_rref_int``, ``_forward_steps``, ``_echelon_kernel``), the product of
rows with the form ``_times_form`` and the bounded draw ``_draws``, how
often ``_meet_parts`` found its pair's system in the meet slot
("meet_hits") or reduced it ("meet_misses"), and how many oracle queries
the decisions made. The units are:

- "properties": each property id at dims 3-6 under each named form, 8
  trials of ``run_suite``;
- "decisions": the wrap, the witness and the sampled (K = 20) decision of
  8 line pairs, half of them orthogonal, for each (m, k1, k2) of the
  A-RECON grid, dimension and named form; the wrap line counts all 8
  pairs, and "decided" says how many pairs it left to decide;
- "cli": each command that ``check_interpreters.py`` pins, run in process.

Every count repeats exactly for the same sources, so a change to the
kernel's work shows as a changed line. Time is not recorded. Standard
library only.
"""

import contextlib
import importlib
import io
import json
import pkgutil
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orthokernel  # noqa: E402
from orthokernel import cli, reconstruct  # noqa: E402
from orthokernel.generators import (  # noqa: E402
    NAMED_FORMS,
    GenConfig,
    gen_line_pair,
    resolve_space,
)
from orthokernel.linalg import full_subspace  # noqa: E402
from orthokernel.ortho import TypedPerpParams  # noqa: E402
from orthokernel.properties import ALL_PROPERTY_IDS, run_suite  # noqa: E402

from check_interpreters import PINNED  # noqa: E402

KEYS = (
    "_rref_int", "_forward_steps", "_echelon_kernel", "_times_form", "_draws",
    "meet_hits", "meet_misses", "queries",
)
A_RECON_GRID = ((0, 1, 1), (1, 2, 2), (1, 2, 3), (2, 3, 3))
DIMS = range(3, 7)
TRIALS = 8
PAIRS = 8
SAMPLES = 20
SEED = 1


def _package_modules() -> list:
    return [
        importlib.import_module(f"orthokernel.{info.name}")
        for info in pkgutil.iter_modules(orthokernel.__path__)
        if info.name != "__main__"
    ]


def _wrappers(counts: Counter) -> dict:
    """For each name counted, the real function and its counting stand-in."""

    def calls(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    def meet_parts(real):
        # the slot _meet_parts keeps in x1's instance dict:
        # (weak reference to the partner, parts)
        def counted(x1, x2):
            slot = x1.__dict__.get("_meet")
            hit = slot is not None and slot[0]() is x2
            counts["meet_hits" if hit else "meet_misses"] += 1
            return real(x1, x2)

        return counted

    def decide(real):
        # every oracle query the kernel makes is made inside decide_perp0
        def counted(y1, x2, oracle, *args, **kwargs):
            def query(a, b):
                counts["queries"] += 1
                return oracle.query(a, b)

            counted_oracle = reconstruct.PerpOracle(oracle.params, query)
            return real(y1, x2, counted_oracle, *args, **kwargs)

        return counted

    linalg = orthokernel.linalg
    out = {
        real.__name__: (real, calls(real.__name__, real))
        for real in (
            linalg._rref_int,
            linalg._forward_steps,
            linalg._echelon_kernel,
            linalg._times_form,
            orthokernel.ortho._draws,
        )
    }
    for real, wrap in (
        (orthokernel.flats._meet_parts, meet_parts),
        (reconstruct.decide_perp0, decide),
    ):
        out[real.__name__] = (real, wrap(real))
    return out


@contextlib.contextmanager
def counting(counts: Counter):
    """Count into counts wherever a package module binds a counted name."""
    saved = []
    wrappers = _wrappers(counts)
    try:
        for module in _package_modules():
            for name, (real, counted) in wrappers.items():
                if getattr(module, name, None) is real:
                    saved.append((module, name, real))
                    setattr(module, name, counted)
        yield
    finally:
        for module, name, real in saved:
            setattr(module, name, real)


def _warm_caches() -> None:
    """Fill the caches that outlive a unit, so that no unit's counts
    depend on what ran before it in the process."""
    for n in range(1, 9):
        full_subspace(n).equations
        for form in NAMED_FORMS:
            space = resolve_space(n, form)
            space.int_form_entries
            space.int_form_inverse


def _take(counts: Counter) -> dict:
    line = {key: counts[key] for key in KEYS}
    counts.clear()
    return line


def _properties(counts: Counter) -> dict:
    out = {}
    for pid in ALL_PROPERTY_IDS:
        for n in DIMS:
            for form in NAMED_FORMS:
                run_suite(GenConfig(dim=n, seed=SEED), [pid], TRIALS, [form])
                out[f"{pid} dim={n} {form}"] = _take(counts)
    return out


def _decisions(counts: Counter) -> dict:
    out = {}
    witness = reconstruct.ReconstructionMode.witness()
    sampled = reconstruct.ReconstructionMode.sampled(SAMPLES)
    for m, k1, k2 in A_RECON_GRID:
        params = TypedPerpParams(m, k1, k2)
        oracle = reconstruct.ground_truth_oracle(params)
        for n in range(k1 + k2 - m, 7):
            for form in NAMED_FORMS:
                cfg = GenConfig(dim=n, seed=SEED, form=form, perp_params=params)
                lines = {"wrap": Counter(), "witness": Counter(), "sampled": Counter()}
                decided = 0
                for i in range(PAIRS):
                    rng = random.Random(i)
                    l1, l2 = gen_line_pair(cfg, rng, orthogonal=i % 2 == 0)
                    counts.clear()
                    core = reconstruct._wrap_line_pair(l1, l2, params)
                    lines["wrap"].update(_take(counts))
                    if core is None:
                        continue
                    decided += 1
                    reconstruct.decide_perp0(*core, oracle, witness)
                    lines["witness"].update(_take(counts))
                    reconstruct.decide_perp0(*core, oracle, sampled, rng)
                    lines["sampled"].update(_take(counts))
                for stage, line in lines.items():
                    key = f"m={m} k1={k1} k2={k2} dim={n} {form} {stage}"
                    out[key] = {"decided": decided, **{k: line[k] for k in KEYS}}
    return out


def _cli(counts: Counter) -> dict:
    out = {}
    for args, _ in PINNED:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(args))
        out[" ".join(args)] = _take(counts)
    return out


def ledger() -> dict:
    """Every unit's counts, from warm caches."""
    _warm_caches()
    counts: Counter = Counter()
    with counting(counts):
        return {
            "properties": _properties(counts),
            "decisions": _decisions(counts),
            "cli": _cli(counts),
        }


def render(data: dict) -> str:
    """The ledger as JSON, one line per unit, everything sorted by name."""
    sections = []
    for section in sorted(data):
        units = data[section]
        body = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(units[name], sort_keys=True)}"
            for name in sorted(units)
        )
        sections.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main(argv: list) -> int:
    path = Path(argv[0]) if argv else ROOT / "LEDGER.json"
    path.write_text(render(ledger()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

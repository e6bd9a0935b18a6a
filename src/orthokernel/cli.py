"""Command-line surface: property suites, witnesses, reconstruction, demos.

Exit codes: 0 all checks pass, 1 a violation or disagreement was found,
2 malformed input.  The master seed comes from --seed, then the
ORTHOKERNEL_SEED environment variable, then 0; every run is a pure
function of (flags, seed), so reports are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from .errors import GenerationError, InputError, UnsatisfiableParams
from .generators import (
    GenConfig,
    gen_line_pair,
    gen_pair_with_meet_dim,
    space_of,
    trial_rng,
)
from .ortho import (
    DENOMINATOR_BOUND,
    NUMERATOR_BOUND,
    RETRIES,
    TypedPerpParams,
    make_perp_pair,
)
from .properties import (
    ALL_PROPERTY_IDS,
    CORE_PROPERTY_IDS,
    default_forms,
    run_suite,
)
from .counterexamples import emit_counterexamples
from .reconstruct import judge_line_pair, lemma1_witness, lemma2_witness


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("ORTHOKERNEL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError(f"ORTHOKERNEL_SEED is not an integer: {env!r}") from None


def _parse_props(value: str) -> list[str]:
    if value == "all":
        return list(ALL_PROPERTY_IDS)
    if value == "core":
        return list(CORE_PROPERTY_IDS)
    return [p.strip() for p in value.split(",") if p.strip()]


def _parse_forms(value: str) -> list:
    if value == "all":
        return list(default_forms())
    if value in default_forms():
        return [value]
    path = Path(value)
    if path.suffix == ".json" or path.exists():
        try:
            rows = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read form matrix from {value}: {exc}") from exc
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError("form file must hold a matrix (list of rows)")
        return [tuple(tuple(str(x) for x in row) for row in rows)]
    raise InputError(
        f"unknown form {value!r}: use identity, diag, tridiag, all, or a JSON file"
    )


def _parse_params(args: argparse.Namespace, required: bool) -> Optional[TypedPerpParams]:
    given = [v is not None for v in (args.m, args.k1, args.k2)]
    if not any(given):
        if required:
            raise InputError("--m, --k1, and --k2 are required")
        return None
    if not all(given):
        raise InputError("--m, --k1, and --k2 must be given together")
    return TypedPerpParams(args.m, args.k1, args.k2)


def _check_json_target(path: Optional[str]) -> None:
    """Refuse a --json path that is empty, a directory or in a missing
    directory, before any work runs."""
    if path is None:
        return
    if not path:
        raise InputError("--json needs a file name")
    if Path(path).is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    if not Path(path).parent.is_dir():
        raise InputError(
            f"cannot write {path}: directory {Path(path).parent} does not exist"
        )


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    seed = _resolve_seed(args.seed)
    props = _parse_props(args.props)
    forms = _parse_forms(args.form)
    params = _parse_params(args, required=False)
    cfg = GenConfig(
        dim=args.dim,
        seed=seed,
        perp_params=params,
        sample_count=args.samples,
    )
    reports = run_suite(cfg, props, args.trials, forms, args.jobs)
    total = 0
    for rep in reports:
        total += rep.violations
        line = (
            f"{rep.property_id:16s} form={rep.form:8s} trials={rep.trials}"
            f" violations={rep.violations} [{rep.elapsed_ms} ms]"
        )
        print(line)
    print(f"total violations: {total}")
    if args.json is not None:
        config = {
            "dim": cfg.dim,
            "trials": args.trials,
            "seed": seed,
            "forms": [f if isinstance(f, str) else [list(r) for r in f] for f in forms],
            "props": sorted(set(props)),
            # the fixed draw policy, kept as fields of report schema 1
            "numerator_bound": NUMERATOR_BOUND,
            "denominator_bound": DENOMINATOR_BOUND,
            "retries": RETRIES,
            "sample_count": cfg.sample_count,
        }
        if params is not None:
            config["perp_params"] = asdict(params)
        reports_json = [r.to_json_dict() for r in reports]
        _write_json(args.json, {"schema": 1, "config": config, "reports": reports_json})
    return 1 if total else 0


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InputError("--count must be at least 1")
    seed = _resolve_seed(args.seed)
    params = _parse_params(args, required=True)
    if params.k1 > params.k2:
        raise InputError("witness generation needs k1 <= k2")
    cfg = GenConfig(dim=args.dim, seed=seed, perp_params=params)
    space = space_of(cfg)
    payload: dict = {
        "schema": 1,
        "dim": args.dim,
        "params": asdict(params),
        "seed": seed,
    }
    items = []
    for i in range(args.count):
        rng = trial_rng(seed, f"witness:{args.lemma or 'pair'}", i)
        if args.lemma is None:
            x1, x2 = make_perp_pair(space, params, rng)
            flats = {"x1": x1, "x2": x2}
        elif args.lemma == 1:
            y1, x2 = gen_pair_with_meet_dim(
                cfg, params.k1 - params.m, params.k2, 0, rng
            )
            flats = {"y1": y1, "x2": x2, "x1": lemma1_witness(y1, x2, params.m)}
        else:
            if params.k2 < 2:
                raise InputError("the line-wrapping witness needs k2 >= 2")
            l1, l2 = gen_line_pair(cfg, rng, orthogonal=True)
            x1, x2 = lemma2_witness(l1, l2, params.k1 - params.m, params.k2)
            flats = {"l1": l1, "l2": l2, "x1": x1, "x2": x2}
        items.append({name: flat.to_wire() for name, flat in flats.items()})
    payload["witnesses"] = items
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.pairs < 1:
        raise InputError("--pairs must be at least 1")
    seed = _resolve_seed(args.seed)
    params = _parse_params(args, required=True)
    cfg = GenConfig(
        dim=args.dim, seed=seed, perp_params=params, sample_count=args.samples
    )
    run_sampled = args.mode in ("sampled", "both")
    run_witness = args.mode in ("witness", "both")
    label = f"reconstruct:{params.m}:{params.k1}:{params.k2}"
    agree = 0
    contradictions = 0
    for i in range(args.pairs):
        rng = trial_rng(seed, label, i)
        l1, l2 = gen_line_pair(cfg, rng, orthogonal=(i % 2 == 0))
        v = judge_line_pair(l1, l2, params, args.mode, args.samples, rng)
        agree += v.witness_agrees
        contradictions += v.sampled_contradicts
    head = f"(m,k1,k2)=({params.m},{params.k1},{params.k2}) dim={args.dim}:"
    if run_witness:
        print(f"{head} witness agreement {agree}/{args.pairs}")
    if run_sampled:
        print(f"{head} sampled contradictions {contradictions}")
    ok = (agree == args.pairs or not run_witness) and contradictions == 0
    if args.json is not None:
        payload = {
            "schema": 1,
            "config": {
                "dim": args.dim,
                "pairs": args.pairs,
                "seed": seed,
                "mode": args.mode,
                "samples": args.samples,
                "perp_params": asdict(params),
            },
            "witness_agreements": agree if run_witness else None,
            "sampled_contradictions": contradictions if run_sampled else None,
        }
        _write_json(args.json, payload)
    return 0 if ok else 1


def _cmd_counterexample(args: argparse.Namespace) -> int:
    payload = {"schema": 1, "instances": emit_counterexamples()}
    print(json.dumps(payload, sort_keys=True, indent=2))
    if args.json is not None:
        _write_json(args.json, payload)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=None, help="meet dimension")
    parser.add_argument("--k1", type=int, default=None, help="first flat dimension")
    parser.add_argument("--k2", type=int, default=None, help="second flat dimension")


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which reports arguments it does not know with
    its own usage line rather than leaving them to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthokernel",
        description="exact rational orthogonality kernel and property harness",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    check = sub.add_parser("check", help="run randomized property suites")
    check.add_argument("--dim", type=int, required=True)
    check.add_argument("--trials", type=int, default=200)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument(
        "--props",
        default="all",
        help="'all', 'core', or a comma-separated list of property ids",
    )
    check.add_argument(
        "--form",
        default="all",
        help="identity, diag, tridiag, all, or a JSON matrix file",
    )
    check.add_argument("--json", default=None, help="write the report here")
    check.add_argument("--jobs", type=int, default=1)
    check.add_argument("--samples", type=int, default=20)
    _add_params(check)
    check.set_defaults(func=_cmd_check)

    witness = sub.add_parser(
        "witness", help="emit typed orthogonal pairs or lemma witnesses"
    )
    witness.add_argument("--dim", type=int, required=True)
    witness.add_argument("--seed", type=int, default=None)
    witness.add_argument("--count", type=int, default=3)
    witness.add_argument(
        "--lemma",
        type=int,
        choices=(1, 2),
        default=None,
        help="emit extension (1) or line-wrapping (2) witnesses",
    )
    _add_params(witness)
    witness.set_defaults(func=_cmd_witness)

    recon = sub.add_parser(
        "reconstruct", help="compare oracle reconstruction against ground truth"
    )
    recon.add_argument("--dim", type=int, required=True)
    recon.add_argument("--pairs", type=int, default=500)
    recon.add_argument("--seed", type=int, default=None)
    recon.add_argument("--mode", choices=("witness", "sampled", "both"), default="both")
    recon.add_argument("--samples", type=int, default=20)
    recon.add_argument("--json", default=None)
    _add_params(recon)
    recon.set_defaults(func=_cmd_reconstruct)

    cex = sub.add_parser(
        "counterexample", help="emit the fixed non-transitivity instances"
    )
    cex.add_argument("--json", default=None)
    cex.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every subcommand with a report file names it --json
        _check_json_target(getattr(args, "json", None))
        return args.func(args)
    except (InputError, UnsatisfiableParams, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

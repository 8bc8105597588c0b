"""Command-line front end.

Commands:

    balancedn run --scenario <id> --topology <preset|path> [--resolvers N]
        [--content M] [--skew i:count,...] [--seed S]
        [--schemes flooding,balancedn] --out <file.csv> [--verbose]
    balancedn hash --name <name> [--resolvers N]
    balancedn validate --topology <path>

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .core import assign_resolver, parse_name
from .scenarios import SCENARIOS, SCHEMES, ScenarioConfig, ScenarioError, run_scenario
from .topology import load_topology


def _parse_skew(text: str) -> dict[int, int]:
    skew: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        index, _, count = part.partition(":")
        try:
            shard, load = int(index), int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad skew entry {part!r}; expected <index>:<count>") from None
        if shard in skew:
            raise argparse.ArgumentTypeError(f"shard index {shard} repeated in skew map")
        skew[shard] = load
    if not skew:
        raise argparse.ArgumentTypeError("empty skew map")
    return skew


def _parse_schemes(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancedn",
        description="Content-network simulator: flooding search vs. "
                    "hash-sharded resolver lookup.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write a CSV report")
    run_p.add_argument("--scenario", required=True, choices=SCENARIOS)
    run_p.add_argument("--topology", default="",
                       help="preset name (nsfnet, oteglobe) or topology file path")
    run_p.add_argument("--resolvers", type=int, default=8, metavar="N")
    run_p.add_argument("--content", type=int, default=None, metavar="M",
                       help="total unique names (default 1000000)")
    run_p.add_argument("--skew", type=_parse_skew, default=None,
                       metavar="i:count,...", help="per-shard load map (s4 only)")
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--schemes", type=_parse_schemes,
                       default=SCHEMES, metavar="a,b")
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument("--verbose", action="store_true",
                       help="emit the engine event log on standard error")

    hash_p = sub.add_parser("hash", help="print a name's resolver shard index")
    hash_p.add_argument("--name", required=True)
    hash_p.add_argument("--resolvers", type=int, default=8, metavar="N")

    val_p = sub.add_parser("validate", help="check a topology file")
    val_p.add_argument("--topology", required=True)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv (exit code 2 on usage errors, via argparse).

    For ``run`` the options become ``args.config``, a ScenarioConfig, so
    its checks of the options alone are usage errors too; checks that
    need the topology run later, as runtime errors.  A ``hash`` resolver
    count below 1 is a usage error as well.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            args.config = ScenarioConfig(
                scenario=args.scenario,
                topology=args.topology,
                resolver_count=args.resolvers,
                content_count=args.content,
                skew=args.skew,
                seed=args.seed,
                schemes=args.schemes,
                out=args.out,
                verbose=args.verbose,
            )
        except ScenarioError as exc:
            parser.error(str(exc))
    elif args.command == "hash" and args.resolvers < 1:
        parser.error("resolver_count must be at least 1")
    return args


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(args.config)
    sys.stdout.write(f"wrote {report.rows_written} report rows to {args.out}\n")
    return 0


def _cmd_hash(args: argparse.Namespace) -> int:
    name = parse_name(args.name)
    index = assign_resolver(name, args.resolvers)
    sys.stdout.write(f"{index}\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.topology, "r", encoding="utf-8") as fh:
        topology = load_topology(fh.read())
    roles = Counter(nd.role for nd in topology.nodes.values())
    role_text = " ".join(f"{role}={roles[role]}" for role in sorted(roles))
    sys.stdout.write(f"ok: {len(topology.nodes)} nodes, {len(topology.links)} links, "
                     f"{role_text}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "hash":
            return _cmd_hash(args)
        return _cmd_validate(args)
    except Exception as exc:  # runtime errors exit 1, usage errors exited 2 already
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 operation/resolution failure, 2 configuration,
fixture or snapshot trouble, 3 invariant failure. ``ENUM_APEX`` overrides
the domain apex for every topology the CLI builds, which is how the
multiple-root deployments are exercised from the shell.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from importlib.resources import files as resource_files
from pathlib import Path

from .audit import assert_invariants, value_flow, value_flow_from_log
from .errors import (
    EnumStackError,
    InvalidModelCombination,
    LockHeld,
    MarketError,
    ScenarioError,
    SnapshotError,
)
from .market import load_market_table, load_potential_fixture, market_report
from .scenarios import (
    ScenarioConfig,
    Topology,
    build_topology,
    canonical_events,
    model_fixture_text,
    parse_config,
    read_text,
    run_events,
)
from . import snapshots

EXIT_OK = 0
EXIT_OPERATION = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

DEMO_NUMBERS = (
    ("+1-315-443-4473", "alice", "reg1", '100 10 "u" "E2U+sip" "!^.*$!sip:info@example.com!" .'),
    ("+1-315-443-4474", "bob", "reg2", '100 10 "u" "E2U+sip" "!^.*$!sip:bob@example.org!" .'),
)


def _parse_cfg(text: str) -> ScenarioConfig:
    """Parse scenario config text, then apply the ``ENUM_APEX`` override."""
    cfg = parse_config(text)
    apex = os.environ.get("ENUM_APEX")
    return dataclasses.replace(cfg, apex=apex) if apex else cfg


def _load_cfg(args: argparse.Namespace) -> tuple[ScenarioConfig, str]:
    """Scenario config from --scenario-file / --model, else builtin model 1.

    Returns (config, config text) so state directories can persist it.
    """
    path = getattr(args, "scenario_file", None) or getattr(args, "config", None)
    if path:
        text = read_text(path)
    else:
        text = model_fixture_text(getattr(args, "model", None) or 1)
    return _parse_cfg(text), text


def _bootstrap_demo(topology: Topology) -> None:
    """Built-in demo data: two subscribed numbers with one sip record each."""
    for number, user, registrar, record in DEMO_NUMBERS:
        topology.assign(number, user, "tsp1")
        topology.subscribe(number, user, registrar, token="auto")
        topology.provision(number, user, record)
    topology.completed = True


def _topology_for_state(args: argparse.Namespace) -> tuple[Topology, str]:
    """Build (and bootstrap or load) the topology behind a state directory."""
    state_dir = Path(args.state_dir)
    cfg_file = state_dir / snapshots.SCENARIO_FILE
    if snapshots.has_state(state_dir) and cfg_file.exists() and not (
        getattr(args, "scenario_file", None)
    ):
        text = snapshots.read_state_text(cfg_file)
        cfg = _parse_cfg(text)
    else:
        cfg, text = _load_cfg(args)
    topology = build_topology(cfg, seed=getattr(args, "seed", 0) or 0)
    if snapshots.has_state(state_dir):
        snapshots.load_state(topology, state_dir)
    else:
        _bootstrap_demo(topology)
        snapshots.save_state(topology, state_dir, scenario_text=text)
        snapshots.append_log(state_dir, topology.log)
    return topology, text


def _persisting_op(args: argparse.Namespace, fn) -> int:
    state_dir = Path(args.state_dir)
    with snapshots.StateLock(state_dir):
        topology, text = _topology_for_state(args)
        before = len(topology.log)
        try:
            fn(topology)
        finally:
            snapshots.save_state(topology, state_dir, scenario_text=text)
            snapshots.append_log(state_dir, topology.log[before:])
    return EXIT_OK


# ---------------------------------------------------------------- commands


def cmd_resolve(args: argparse.Namespace) -> int:
    if args.state_dir and snapshots.has_state(Path(args.state_dir)):
        topology, _ = _topology_for_state(args)
    else:
        cfg, _text = _load_cfg(args)
        topology = build_topology(cfg, seed=args.seed or 0)
        _bootstrap_demo(topology)
    result = topology.resolve(args.number, service=args.service)
    uris = result.get("uris", "")
    for uri in uris.splitlines():
        print(uri)
    if args.trace:
        for line in result.get("trace", "").splitlines():
            print(f"trace: {line}")
    return EXIT_OK


def cmd_scenario_run(args: argparse.Namespace) -> int:
    cfg, _text = _load_cfg(args)
    topology = build_topology(cfg, seed=args.seed or 0)
    if args.script:
        script = read_text(args.script)
    else:
        script = canonical_events()
    log = run_events(topology, script)
    report = assert_invariants(topology)
    if args.report == "log":
        for line in log.render_lines():
            print(line)
    elif args.report == "valueflow":
        for line in value_flow(topology).render_lines():
            print(line)
    else:
        for line in report.render_lines():
            print(line)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def cmd_scenario_report(args: argparse.Namespace) -> int:
    # Billing ledgers live only inside a run (snapshots carry just the
    # delegation lines), so persisted-state reporting is log-derived.
    state_dir = Path(args.state_dir)
    if not snapshots.has_state(state_dir):
        raise ScenarioError(f"no state in {state_dir}")
    cfg = parse_config(snapshots.read_state_text(state_dir / snapshots.SCENARIO_FILE))
    records = snapshots.read_log(state_dir)
    if args.report == "log":
        for rec in records:
            print(rec.render())
        return EXIT_OK
    for line in value_flow_from_log(records, cfg).render_lines():
        print(line)
    return EXIT_OK


def cmd_market(args: argparse.Namespace) -> int:
    if args.fixtures:
        fixtures = Path(args.fixtures)
        if not fixtures.is_dir():
            raise MarketError(f"fixture directory {fixtures} does not exist")
    else:
        fixtures = Path(str(resource_files("enumstack").joinpath("fixtures/market")))
    tables = []
    for name in ("ip_telephony", "unified_messaging"):
        path = fixtures / f"{name}.csv"
        if path.exists():
            tables.append(load_market_table(path, name))
    potential_path = fixtures / "potential_market.csv"
    potential = load_potential_fixture(potential_path) if potential_path.exists() else None
    if not tables and potential is None:
        raise MarketError(f"no market fixtures in {fixtures}")
    sys.stdout.write(market_report(tables, potential, fmt=args.format))
    return EXIT_OK


def cmd_provision(args: argparse.Namespace) -> int:
    def op(topology: Topology) -> None:
        topology.provision(
            args.number, args.actor, args.record, visibility=args.visibility
        )

    return _persisting_op(args, op)


def cmd_transfer(args: argparse.Namespace) -> int:
    def op(topology: Topology) -> None:
        topology.transfer(args.number, args.user, args.to)

    return _persisting_op(args, op)


def cmd_disconnect(args: argparse.Namespace) -> int:
    def op(topology: Topology) -> None:
        topology.disconnect(args.number, args.user, args.kind)

    return _persisting_op(args, op)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumstack",
        description="Telephone-number-to-URI resolution stack with "
        "registry/registrar provisioning scenarios and market reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario-file", help="scenario config file")
        p.add_argument("--model", type=int, help="built-in model fixture (1-6)")
        p.add_argument("--seed", type=int, default=0, help="simulator seed")

    p = sub.add_parser("resolve", help="resolve a number to URIs")
    p.add_argument("number")
    p.add_argument("--service", default="*", help='service filter, e.g. "E2U+sip"')
    p.add_argument("--trace", action="store_true", help="print the hop-by-hop trace")
    p.add_argument("--state-dir", help="use a persisted state directory")
    add_topology_args(p)
    p.set_defaults(fn=cmd_resolve)

    scenario = sub.add_parser("scenario", help="run administration-model scenarios")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    p = scenario_sub.add_parser("run", help="run an event script on a model")
    p.add_argument("--config", help="scenario config file")
    p.add_argument("--model", type=int, help="built-in model fixture (1-6)")
    p.add_argument("--script", help="event script (default: canonical)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--report",
        choices=("invariants", "valueflow", "log"),
        default="invariants",
    )
    p.set_defaults(fn=cmd_scenario_run)

    p = scenario_sub.add_parser("report", help="report over a persisted state dir")
    p.add_argument("--state-dir", required=True)
    p.add_argument("--report", choices=("valueflow", "log"), default="valueflow")
    p.set_defaults(fn=cmd_scenario_report)

    market = sub.add_parser("market", help="market estimation reports")
    market_sub = market.add_subparsers(dest="market_command", required=True)
    p = market_sub.add_parser("report", help="emit the market tables")
    p.add_argument("--fixtures", help="directory of fixture csv files")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(fn=cmd_market)

    p = sub.add_parser("provision", help="provision a record against saved state")
    p.add_argument("number")
    p.add_argument("--actor", required=True)
    p.add_argument("--record", required=True, help="zone-style record line")
    p.add_argument("--visibility", choices=("public", "restricted"))
    p.add_argument("--state-dir", required=True)
    add_topology_args(p)
    p.set_defaults(fn=cmd_provision)

    p = sub.add_parser("transfer", help="move a number to another registrar")
    p.add_argument("number")
    p.add_argument("--user", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--state-dir", required=True)
    add_topology_args(p)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("disconnect", help="disconnect ENUM or telephone service")
    p.add_argument("number")
    p.add_argument("--user", required=True)
    p.add_argument("--kind", choices=("enum_only", "telephone"), default="enum_only")
    p.add_argument("--state-dir", required=True)
    add_topology_args(p)
    p.set_defaults(fn=cmd_disconnect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, SnapshotError, LockHeld, MarketError, InvalidModelCombination, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumStackError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OPERATION


if __name__ == "__main__":
    sys.exit(main())

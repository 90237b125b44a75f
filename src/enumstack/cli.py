"""Command-line front end.

Exit codes: 0 success, 1 operation/resolution failure, 2 configuration,
fixture or snapshot trouble, 3 invariant failure. ``ENUM_APEX`` overrides
the domain apex for every topology the CLI builds, which is how the
multiple-root deployments are exercised from the shell.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib.resources import files as resource_files
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BadArgument,
    E164Error,
    EnumStackError,
    InvalidModelCombination,
    LockHeld,
    MarketError,
    ScenarioError,
    SnapshotError,
)

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig, Topology

# Each command imports the modules it uses when it runs, so a call loads
# only what its command reads: ``market report`` loads no topology code.

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
    from .e164 import ApexConfig
    from .scenarios import parse_config

    cfg = parse_config(text)
    apex = os.environ.get("ENUM_APEX")
    if apex:
        try:
            ApexConfig(apex)
        except E164Error as exc:
            raise ScenarioError(f"ENUM_APEX={apex!r}: {exc}") from None
        cfg.apex = apex
    return cfg


def _load_cfg(args: argparse.Namespace) -> tuple[ScenarioConfig, str]:
    """Scenario config from --scenario-file / --model, else builtin model 1.

    Returns (config, config text) so state directories can persist it.
    """
    from .scenarios import model_fixture_text, read_text

    path = getattr(args, "scenario_file", None) or getattr(args, "config", None)
    if path:
        text = read_text(path)
    else:
        model = getattr(args, "model", None)
        text = model_fixture_text(1 if model is None else model)
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
    from . import snapshots
    from .scenarios import build_topology

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
        # A log left by a bootstrap killed before its save is replaced, not
        # appended to, so the demo's events are logged once.
        (state_dir / snapshots.EVENTS_LOG).unlink(missing_ok=True)
        snapshots.append_log(state_dir, topology.log)
        snapshots.save_state(topology, state_dir, scenario_text=text)
    return topology, text


# ---------------------------------------------------------------- commands


def cmd_resolve(args: argparse.Namespace) -> int:
    from . import snapshots
    from .scenarios import build_topology

    if args.state_dir and snapshots.has_state(Path(args.state_dir)):
        topology, _ = _topology_for_state(args)
    else:
        cfg, _text = _load_cfg(args)
        topology = build_topology(cfg, seed=args.seed or 0)
        _bootstrap_demo(topology)
    result = topology.resolve(args.number, service=args.service)
    # Both are "\n"-joined; a URI or a record may hold a character that
    # str.splitlines() breaks at, so neither is split anywhere else.
    uris = result.get("uris", "")
    if uris:
        print(uris)
    if args.trace and result.get("trace"):
        for line in result["trace"].split("\n"):
            print(f"trace: {line}")
    return EXIT_OK


def cmd_scenario_run(args: argparse.Namespace) -> int:
    from .audit import assert_invariants, value_flow
    from .scenarios import build_topology, canonical_events, read_text, run_events

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
    from . import snapshots
    from .audit import VALUE_FLOW_KINDS, value_flow_from_log
    from .scenarios import parse_config

    state_dir = Path(args.state_dir)
    if not snapshots.has_state(state_dir):
        raise ScenarioError(f"no state in {state_dir}")
    cfg = parse_config(snapshots.read_state_text(state_dir / snapshots.SCENARIO_FILE))
    if args.report == "log":
        lines = [rec.render() for rec in snapshots.read_log(state_dir)]
    else:
        # Only the records that can pay are parsed; every line is checked.
        records = snapshots.read_log(state_dir, VALUE_FLOW_KINDS)
        lines = value_flow_from_log(records, cfg).render_lines()
    sys.stdout.write("".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_market(args: argparse.Namespace) -> int:
    # Imported here: no other command needs the market tables or decimal.
    from .market import load_market_table, load_potential_fixture, market_report

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


def cmd_step(args: argparse.Namespace) -> int:
    """Run the script step the command names (``provision``, ``transfer``
    or ``disconnect``) on the directory's topology under its lock, then
    persist: the log lines first, then the snapshots and, last, the
    checkpoint that describes them all (see :mod:`enumstack.snapshots`).
    The command's arguments are the step's keys."""
    from . import snapshots
    from .scenarios import _STEPS

    method, required, defaults = _STEPS[args.command]
    kwargs = {key: getattr(args, key) for key in (*required, *defaults)}
    state_dir = Path(args.state_dir)
    with snapshots.StateLock(state_dir):
        topology, text = _topology_for_state(args)
        before = len(topology.log)
        try:
            getattr(topology, method)(**kwargs)
        finally:
            snapshots.append_log(state_dir, topology.log[before:])
            snapshots.save_state(topology, state_dir, scenario_text=text)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def integer(text: str) -> int:
    """A ``--model`` or ``--seed`` value, read as scripts read numbers:
    ASCII and no ``_``, a sign allowed."""
    from .scenarios import _plain  # here, so that market report loads no topology code

    return int(_plain(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumstack",
        description="Telephone-number-to-URI resolution stack with "
        "registry/registrar provisioning scenarios and market reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario-file", help="scenario config file")
        p.add_argument("--model", type=integer, help="built-in model fixture (1-6)")
        p.add_argument("--seed", type=integer, default=0, help="simulator seed")

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
    p.add_argument("--model", type=integer, help="built-in model fixture (1-6)")
    p.add_argument("--script", help="event script (default: canonical)")
    p.add_argument("--seed", type=integer, default=0)
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
    p.set_defaults(fn=cmd_step)

    p = sub.add_parser("transfer", help="move a number to another registrar")
    p.add_argument("number")
    p.add_argument("--user", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--state-dir", required=True)
    add_topology_args(p)
    p.set_defaults(fn=cmd_step)

    p = sub.add_parser("disconnect", help="disconnect ENUM or telephone service")
    p.add_argument("number")
    p.add_argument("--user", required=True)
    p.add_argument("--kind", choices=("enum_only", "telephone"), default="enum_only")
    p.add_argument("--state-dir", required=True)
    add_topology_args(p)
    p.set_defaults(fn=cmd_step)

    return parser


# Arguments that name files: the OS takes their bytes as they are.
_PATH_ARGS = frozenset(("state_dir", "scenario_file", "config", "script", "fixtures"))


def _check_text_args(args: argparse.Namespace) -> None:
    """Refuse a text argument that holds a lone surrogate, which is how
    Python hands over an argv byte that is not UTF-8: no frame, log line or
    state file could carry it."""
    for name, value in vars(args).items():
        if isinstance(value, str) and not value.isascii() and name not in _PATH_ARGS:
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise BadArgument(f"argument {name}: {value!r} is not UTF-8 text") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_text_args(args)
        return args.fn(args)
    except (
        BadArgument, ScenarioError, SnapshotError, LockHeld, MarketError,
        InvalidModelCombination, OSError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumStackError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OPERATION


if __name__ == "__main__":
    sys.exit(main())

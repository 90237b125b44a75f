"""Print the replay digests of a checkout, one line per seeded run.

Usage: python3 tools/replay_digests.py <repo>

Runs the package found under ``<repo>/src`` and prints, for models 1-6,
seeds 0-9 and each script (the canonical script alone, and followed by
each extra script pinned in this checkout's ``tests/test_scenarios.py``),
one line with the sha256 of the log bytes, ``state_hash()``, the sha256 of
the invariant report, the final clock, the sha256 of the wire bytes of
every frame the network popped, in pop order, and ``steps=``: the sha256 of
the log bytes with each line's ``|t<n>|`` field removed. A change that only
adds frames moves the ticks, so ``log=`` moves while ``steps=`` shows that
no step's outcome did. Two small model-6 churn runs from
``<repo>/bench/inputs.py`` follow. Last, the ``cli_state`` mix of
command-line calls runs through ``enumstack.cli.main`` on a model-4 state
directory holding the demo's two numbers and STATE_NUMBERS more, with one
line per call: the sha256 of its stdout, its exit code, and the sha256 of
each state file but ``checkpoint``. The calls touch only the demo's
numbers, so every other number is loaded and saved without being read.
The mix then runs again, tagged ``state-plain``, with ``checkpoint``
deleted before each call, so that every call loads the directory without
it; its lines match the ``state`` lines when both load modes write the
same bytes. Last, tagged ``state-cold``, each call runs in a fresh
interpreter (``python -m enumstack``), as the benchmark runs it; its
lines match the ``state`` lines unless one call leaves state in the
process that a later call uses. A change that claims byte identity runs
this at both commits and diffs the two outputs.

The scripts come from this checkout, not from *repo*, so both commits
replay the same steps. They are read with :mod:`ast`, without importing
the test module, so a test file that needs names the other commit lacks
does not matter.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
EXTRA_SCRIPTS = ("EXTENDED_EVENTS", "RED_EVENTS", "REPLICATION_EVENTS", "TRANSFER_FAULT_EVENTS")
MODELS = range(1, 7)
SEEDS = range(10)
CHURN_SEEDS = (3, 5)
CHURN_NUMBERS = 100
# The cli_state mix on the demo's two numbers, in a directory holding
# STATE_NUMBERS more.
STATE_NUMBERS = 300
_SIP = '"u" "E2U+sip" "!^.*$!sip:{}@example.net!" .'
STATE_CALLS = (
    ("provision", "+1-315-443-4473", "--actor", "alice", "--record", "120 10 " + _SIP.format("a1"),
     "--model", "4"),
    ("transfer", "+1 315 443 4474", "--user", "bob", "--to", "reg1"),
    ("provision", "+13154434474", "--actor", "bob", "--record", "130 10 " + _SIP.format("b1"),
     "--visibility", "restricted"),
    ("resolve", "+1.315.443.4474", "--service", "E2U+sip"),
    ("disconnect", "+1-315-443-4473", "--user", "alice"),
    ("provision", "+13154434474", "--actor", "bob", "--record", "140 10 " + _SIP.format("b2")),
    ("scenario", "report"),
    ("resolve", "+13154434474"),
    ("resolve", "+13154434473"),
)
UNHASHED_STATE_FILES = ("checkpoint", ".lock")


def pinned_scripts(test_file: Path = HERE / "tests" / "test_scenarios.py") -> dict[str, str]:
    """The module-level string constants named in EXTRA_SCRIPTS."""
    found: dict[str, str] = {}
    for node in ast.parse(test_file.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in EXTRA_SCRIPTS:
                found[target.id] = ast.literal_eval(node.value)
    return {name: found[name] for name in EXTRA_SCRIPTS if name in found}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_TICK = re.compile(r"\|t[0-9]+\|")


def steps_digest(log) -> str:
    """The sha256 of *log*'s bytes with each line's tick field removed."""
    lines = [_TICK.sub("|", line, count=1) for line in log.render_lines()]
    return sha(("\n".join(lines) + "\n").encode("utf-8"))


class WireRecorder:
    """Hashes the bytes of every frame any ``Network`` pops.

    It wraps ``Network.step`` and reads the head of the queue, the entry
    the step pops. Where a checkout's queue entry holds the frame's bytes
    as its third item, those are hashed; where it holds only the frame (its
    last item), *encode_frame* of the frame is. Both are the bytes the
    frame was sent as, so one recorder serves both commits of a comparison.
    """

    def __init__(self, simulator, encode_frame) -> None:
        self.digest = hashlib.sha256()
        step = simulator.Network.step

        def recording_step(net):
            if net._queue:
                entry = net._queue[0]
                data = entry[2]
                self.digest.update(data if isinstance(data, bytes) else encode_frame(entry[-1]))
            return step(net)

        simulator.Network.step = recording_step

    def take(self) -> str:
        value, self.digest = self.digest.hexdigest(), hashlib.sha256()
        return value


def digest_line(es, wire: WireRecorder, label: str, topology, log) -> str:
    report = es.assert_invariants(topology)
    return (
        f"{label} log={sha(log.render_bytes())} state={topology.state_hash()}"
        f" invariants={sha(chr(10).join(report.render_lines()).encode('utf-8'))}"
        f" clock={topology.net.clock} wire={wire.take()} steps={steps_digest(log)}"
    )


def replay(es, wire: WireRecorder, model: int, seed: int, name: str, script: str) -> str:
    wire.take()
    topology = es.build_topology(es.builtin_config(model), seed=seed)
    log = es.run_events(topology, es.canonical_events() + script)
    return digest_line(es, wire, f"model={model} seed={seed} script={name}", topology, log)


def churn(es, inputs, wire: WireRecorder, seed: int) -> str:
    """A small ``provision_churn`` pass: subscribe the numbers, run the script."""
    rng = random.Random(f"churn-setup-{seed}")
    owners = {d: rng.choice(inputs.USERS) for d in inputs.draw_numbers(rng, CHURN_NUMBERS)}
    serving = {d: rng.choice(inputs.REGISTRARS) for d in owners}
    script = inputs.ChurnScript(seed, owners, serving).generate(4 * CHURN_NUMBERS)
    wire.take()
    topology = es.build_topology(es.builtin_config(6), seed=seed)
    for digits, user in owners.items():
        topology.assign("+" + digits, user, "tsp1")
        topology.subscribe("+" + digits, user, serving[digits], token="auto")
    log = es.run_events(topology, script)
    return digest_line(es, wire, f"churn seed={seed} numbers={CHURN_NUMBERS}", topology, log)


def populate_state_dir(cli, state_dir: Path) -> None:
    """Save a model-4 state directory holding the demo's numbers and
    STATE_NUMBERS more, each with one or two records, as a persisting call
    leaves it: the log first, then the snapshots and the checkpoint."""
    from enumstack import snapshots
    from enumstack.scenarios import build_topology, model_fixture_text, parse_config

    rng = random.Random("state-dir")
    text = model_fixture_text(4)
    topology = build_topology(parse_config(text), seed=0)
    cli._bootstrap_demo(topology)
    for k in range(STATE_NUMBERS):
        number = f"+1{rng.randrange(200, 999)}{rng.randrange(10**7):07d}"
        user = rng.choice(("alice", "bob", "carol"))
        topology.assign(number, user, "tsp1")
        topology.subscribe(number, user, rng.choice(("reg1", "reg2")), token="auto")
        records = ["100 10 " + _SIP.format(f"n{k}")]
        if k % 3 == 0:
            records.append(f'110 10 "u" "E2U+tel" "!^.*$!tel:{number}!" .')
        topology.provision(number, user, records)
    snapshots.append_log(state_dir, topology.log)
    snapshots.save_state(topology, state_dir, scenario_text=text)


def run_cold(cli, argv: list[str]) -> tuple[int, bytes]:
    """*argv* run by ``python -m enumstack`` on the package *cli* belongs
    to: its exit code and stdout."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "enumstack", *argv], env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout


def state_dir_lines(cli, tag: str = "state") -> list[str]:
    """Run STATE_CALLS on a populated state directory (see
    :func:`populate_state_dir`); one line per call. With the tag
    ``state-plain``, each call starts without a checkpoint; with
    ``state-cold``, each runs in a fresh interpreter."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "state"
        populate_state_dir(cli, state_dir)
        for k, call in enumerate(STATE_CALLS):
            argv = [*call, "--state-dir", str(state_dir)]
            if tag == "state-plain":
                (state_dir / "checkpoint").unlink(missing_ok=True)
            if tag == "state-cold":
                code, stdout = run_cold(cli, argv)
            else:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                stdout = out.getvalue().encode("utf-8")
            files = " ".join(
                f"{path.name}={sha(path.read_bytes())}"
                for path in sorted(state_dir.iterdir())
                if path.name not in UNHASHED_STATE_FILES
            )
            lines.append(
                f"{tag} call={k} {call[0]} exit={code} stdout={sha(stdout)} {files}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    repo = Path(argv[0]).resolve()
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    import enumstack as es
    from enumstack import cli, simulator
    from enumstack.wire import encode_frame
    import inputs

    wire = WireRecorder(simulator, encode_frame)
    scripts = {"canonical": "", **pinned_scripts()}
    for model in MODELS:
        for seed in SEEDS:
            for name, script in scripts.items():
                print(replay(es, wire, model, seed, name, script))
    for seed in CHURN_SEEDS:
        print(churn(es, inputs, wire, seed))
    for tag in ("state", "state-plain", "state-cold"):
        for line in state_dir_lines(cli, tag):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

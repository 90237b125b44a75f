"""The three workloads. Each is a closed loop: one client, one process
(plus one child process at a time for the CLI), no threads.

A workload returns an :class:`Outcome`: the end-to-end metrics measured
with tracing off, each workload's own figures printed before the result line
and, in a traced run, the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib.resources import files as resource_files
from pathlib import Path
from time import perf_counter, perf_counter_ns

import enumstack as es
from enumstack import snapshots

import inputs
import tracing
import hostclock
from hostclock import Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEGMENTS = 5  # resolve_mix: set-ups spread through the run, each followed by lookups
CLI_ROUNDS = 3  # cli_state: at least this many rounds of set-up and one pass
AUDITS = 3  # audits after each set-up, churn pass or CLI pass
CHUNK = 200  # numbers, lookups or script steps timed between two reference readings
RSS_PROBE_OPS = 2000  # resolve_mix samples peak RSS after this many lookups
DIGEST_OPS = 1000  # resolve_mix answers folded into its digest
LOOKUP_POOL = 20_000
CLI_TIMEOUT_S = 60


@dataclass
class Params:
    seed: int
    seconds: float
    n: int
    trace: bool
    out_dir: Path


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def line(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        extra = f"  (n={samples})" if samples is not None else ""
        self.report.append(f"  {name:<24} {value:>14.4f} {unit}{extra}")


def quantile(samples: list[float], q: int) -> float:
    """q-th percentile (1..99) by linear interpolation."""
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _common(out: Outcome, setup: list[float], per_s: float, lat_ns: list[float],
            audit: list[float], rss: float) -> None:
    out.metrics["setup_s"] = (statistics.median(setup), "s")
    out.metrics["ops_per_s"] = (per_s, "1/s")
    out.metrics["op_p50_us"] = (statistics.median(lat_ns) / 1e3, "us")
    out.metrics["op_p99_us"] = (quantile(lat_ns, 99) / 1e3, "us")
    out.metrics["audit_s"] = (statistics.median(audit), "s")
    out.metrics["rss_mb"] = (rss, "MB")


def audit_once(topology, times: list[float]):
    """Time one ``assert_invariants`` into *times*; returns its report.

    A full collection first makes every audit start from the same
    collector state, so each meets the same collections on its way."""
    gc.collect()
    watch = Stopwatch()
    report = es.assert_invariants(topology)
    watch.split()
    times.append(watch.s)
    return report


def _reregister(topology) -> None:
    """Point the network at the actor handlers as the classes now define
    them; ``Topology`` registered bound methods when it was built."""
    actors = [topology.tier0, *topology.registries.values(), *topology.registrars.values()]
    for actor in actors:
        topology.net.register(actor.actor_id, actor.handle_frame)


def _overhead(out: Outcome, plain_ns: float, traced_ns: float) -> None:
    out.layers["trace.overhead_us_per_op"] = ((traced_ns - plain_ns) / 1e3, "us")
    out.layers["trace.overhead_pct"] = (100.0 * (traced_ns - plain_ns) / plain_ns, "%")


# ---------------------------------------------------------------- resolve_mix


def populate_model4(pop: inputs.Population, seed: int, watch: Stopwatch):
    """Model 4 (TSP registrars, two peered registries) holding *pop*,
    timed on *watch* in stretches of CHUNK numbers."""
    topology = es.build_topology(es.builtin_config(4), seed=seed)
    for k, digits in enumerate(pop.numbers + pop.unsubscribed, 1):
        topology.assign("+" + digits, pop.users[digits], "tsp1")
        if k % CHUNK == 0:
            watch.split()
    for k, digits in enumerate(pop.numbers, 1):
        user = pop.users[digits]
        topology.subscribe("+" + digits, user, pop.registrar[digits], token="auto")
        topology.provision("+" + digits, user, [r.line for r in pop.records[digits]])
        if k % CHUNK == 0:
            watch.split()
    watch.split()
    return topology


def _lookup_loop(topology, lookups, seconds: float, out: Outcome, lat_ns: list[float],
                 speed: list[float], rss_at: list[float] | None = None) -> str:
    """Resolve from the first lookup on, for *seconds* and at least
    DIGEST_OPS lookups, appending corrected latencies to *lat_ns* and the
    host's speed to *speed*. Returns the sha256 of the first DIGEST_OPS
    answers."""
    net, apex, resolve = topology.net, topology.apex, es.resolve
    digest = hashlib.sha256()
    i = 0
    deadline = perf_counter() + seconds
    watch = Stopwatch()
    while True:
        batch = []
        for _ in range(CHUNK):
            lookup = lookups[i % len(lookups)]
            t0 = perf_counter_ns()
            try:
                got = resolve(lookup.raw, net, apex=apex, service=lookup.service,
                              client_id=lookup.client).uris
            except Exception as exc:  # compared with the expected miss below
                got = exc
            batch.append(perf_counter_ns() - t0)
            i += 1
            out.attempted += 1
            answer = " ".join(got) if isinstance(got, list) else type(got).__name__
            if i <= DIGEST_OPS:
                digest.update(f"{answer}\n".encode())
            if lookup.uris is None:
                if type(got).__name__ != lookup.miss_error:
                    out.fail(f"{lookup.raw!r}: expected {lookup.miss_error}, got {got!r}")
            elif got != list(lookup.uris):
                out.fail(f"{lookup.raw!r} {lookup.service}: expected {list(lookup.uris)},"
                         f" got {got!r}")
        factor = watch.split()
        lat_ns.extend(t * factor for t in batch)
        if rss_at is not None and not rss_at and i >= RSS_PROBE_OPS:
            rss_at.append(peak_rss_mb())
        if perf_counter() >= deadline and i >= DIGEST_OPS:
            speed.append(watch.speed())
            return digest.hexdigest()


def resolve_mix(p: Params) -> Outcome:
    out = Outcome()
    pop = inputs.make_population(p.seed, p.n)
    lookups = inputs.make_lookups(p.seed, pop, LOOKUP_POOL)
    setup: list[float] = []
    audit: list[float] = []
    lat_ns: list[float] = []
    traced_ns: list[float] = []
    speed: list[float] = []
    rss_at: list[float] = []
    shas: set[str] = set()
    tracer = tracing.Tracer() if p.trace else None
    ops_agg: dict = {}
    share = p.seconds / SEGMENTS
    topology = None
    # Each segment builds the state afresh, audits it and resolves on it,
    # so the frame log (which keeps every frame) is as long in every
    # segment. A traced run splits each segment's lookups between an
    # untraced and a traced half, in alternating order, so host speed
    # drift hits both sides alike.
    for k in range(SEGMENTS):
        topology = None
        gc.collect()
        watch = Stopwatch()
        topology = populate_model4(pop, p.seed, watch)
        setup.append(watch.s)
        speed.append(watch.speed())
        for _ in range(AUDITS):
            report = audit_once(topology, audit)
        if k == 0:
            state_sha = topology.state_hash()
        if tracer is None:
            shas.add(_lookup_loop(topology, lookups, share, out, lat_ns, speed, rss_at))
            continue
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced:
                shas.add(_lookup_loop(topology, lookups, share / 2, out, lat_ns, speed,
                                      rss_at))
                continue
            undo = tracing.install(tracer)
            _reregister(topology)
            before = tracer.snapshot()
            tracer.enabled = True
            shas.add(_lookup_loop(topology, lookups, share / 2, out, traced_ns, speed))
            tracer.enabled = False
            tracing.merge(ops_agg, tracing.diff(tracer.snapshot(), before))
            tracing.uninstall(undo)
            _reregister(topology)
    if len(shas) != 1:
        out.problems.append("the first answers differ between segments"
                            + (" or with tracing" if tracer else ""))

    rss = rss_at[0] if rss_at else peak_rss_mb()
    per_s = len(lat_ns) / (sum(lat_ns) / 1e9)
    _common(out, setup, per_s, lat_ns, audit, rss)
    out.line("setup_s", out.metrics["setup_s"][0], "s", len(setup))
    out.line("resolve_per_s", per_s, "1/s", len(lat_ns))
    out.line("resolve_p50_us", out.metrics["op_p50_us"][0], "us", len(lat_ns))
    out.line("resolve_p99_us", out.metrics["op_p99_us"][0], "us", len(lat_ns))
    out.line("audit_s", out.metrics["audit_s"][0], "s", len(audit))
    out.line("rss_mb", rss, "MB")
    out.line("host_speed", statistics.median(speed), "1", len(speed))
    out.line("failed_frac", out.failed / max(1, out.attempted), "1", out.attempted)
    out.report.append(f"  resolve_state_sha256 {state_sha}")
    out.report.append(f"  resolve_answers_sha256 {min(shas)}")

    if tracer is not None:
        undo = tracing.install(tracer)
        tracer.enabled = True
        es.assert_invariants(topology)
        tracer.enabled = False
        tracing.uninstall(undo)
        layers = tracing.layer_metrics(ops_agg, tracer.snapshot(), len(traced_ns), steps=0)
        layers["registrar.warnings"] = (
            float(sum(len(a.warnings) for a in topology.registrars.values())), "count")
        layers["scenarios.invariants_red"] = (
            float(sum(not r.passed for r in report.results)), "count")
        out.layers.update(layers)
        _overhead(out, statistics.fmean(lat_ns), statistics.fmean(traced_ns))
        tracer.write_spans(p.out_dir / f"spans-resolve_mix-s{p.seed}.jsonl")
    return out


# ---------------------------------------------------------------- provision_churn

# The Topology methods run_events calls, one per script step.
STEP_METHODS = ("assign", "confirm", "subscribe", "provision", "grant", "revoke", "get",
                "transfer", "begin_transfer", "step_transfer", "dispute_transfer",
                "disconnect", "resolve", "cooperate", "advance", "offline", "online")


class _StepClock:
    """Times the ``provision`` steps of a script, and the script as a whole.

    ``run_events`` looks the step methods up on the instance, so instance
    attributes catch every step; a method one of them calls in turn is not
    a step of its own. Reference readings are taken between steps, every
    CHUNK steps, so ``watch`` holds the corrected time of everything but
    the readings from the clock's creation to the last :meth:`flush`.
    """

    def __init__(self, topology) -> None:
        self.write_ns: list[float] = []  # corrected, the provision steps
        self._batch: list[int] = []  # provision wall times since the last reading
        self._steps = 0
        self._busy = False
        self.watch = Stopwatch()
        for name in STEP_METHODS:
            setattr(topology, name, self._clocked(name == "provision", getattr(topology, name)))

    def _clocked(self, timed: bool, method):
        def call(*args, **kwargs):
            if self._busy:
                return method(*args, **kwargs)
            self._steps += 1
            if self._steps % CHUNK == 0:
                self.flush()
            self._busy = True
            t0 = perf_counter_ns()
            try:
                return method(*args, **kwargs)
            finally:
                if timed:
                    self._batch.append(perf_counter_ns() - t0)
                self._busy = False

        return call

    def flush(self) -> None:
        factor = self.watch.split()
        self.write_ns.extend(ns * factor for ns in self._batch)
        self._batch.clear()


@dataclass
class _Cycle:
    setup_s: float
    script_s: float  # wall time of parse_events + run_events
    timed_s: float  # their corrected time
    steps: int
    aborted: int
    audit_s: list[float]
    log_sha: str
    state_sha: str
    write_ns: list[float]
    speed: float
    rejected: int
    red: list[str]
    warnings: int
    ops_agg: dict | None = None  # traced: aggregates of the script alone


def _churn_cycle(cfg, seed: int, owners: dict, serving: dict, script: str,
                 tracer: tracing.Tracer | None) -> _Cycle:
    gc.collect()
    # Wrappers go on before the build: Topology registers bound handlers.
    undo = None if tracer is None else tracing.install(tracer)
    watch = Stopwatch()
    topology = es.build_topology(cfg, seed=seed)
    for k, (digits, user) in enumerate(owners.items(), 1):
        topology.assign("+" + digits, user, "tsp1")
        topology.subscribe("+" + digits, user, serving[digits], token="auto")
        if k % CHUNK == 0:
            watch.split()
    watch.split()
    setup_len = len(topology.log)

    if tracer is not None:
        before = tracer.snapshot()
        tracer.enabled = True
    t0 = perf_counter()
    clock = _StepClock(topology)
    events = es.parse_events(script)
    aborted = 0
    try:
        log = es.run_events(topology, events)
    except Exception:  # aborts the run: every step not yet logged fails
        aborted = len(events) - (len(topology.log) - setup_len)
        log = es.scenarios.EventLog(records=list(topology.log))
    clock.flush()
    script_s = perf_counter() - t0
    ops_agg = None if tracer is None else tracing.diff(tracer.snapshot(), before)
    audit_s: list[float] = []
    for _ in range(AUDITS):
        report = audit_once(topology, audit_s)
    if tracer is not None:
        tracer.enabled = False
        tracing.uninstall(undo)
    return _Cycle(
        setup_s=watch.s,
        script_s=script_s,
        timed_s=clock.watch.s,
        steps=len(events),
        aborted=aborted,
        audit_s=audit_s,
        log_sha=hashlib.sha256(log.render_bytes()).hexdigest(),
        state_sha=topology.state_hash(),
        write_ns=clock.write_ns,
        speed=clock.watch.speed(),
        rejected=sum(not rec.ok for rec in topology.log[setup_len:]),
        red=[r.name for r in report.results if not r.passed],
        warnings=sum(len(a.warnings) for a in topology.registrars.values()),
        ops_agg=ops_agg,
    )


def provision_churn(p: Params) -> Outcome:
    out = Outcome()
    cfg = es.builtin_config(6)
    rng = random.Random(f"churn-setup-{p.seed}")
    owners = {d: rng.choice(inputs.USERS) for d in inputs.draw_numbers(rng, p.n)}
    serving = {d: rng.choice(inputs.REGISTRARS) for d in owners}
    script = inputs.ChurnScript(p.seed, owners, serving).generate(max(50, 4 * p.n))

    # Whole passes (set-up, script, audits) repeat until the scripts have
    # run for --seconds. A traced run alternates untraced and traced
    # passes, each side running for half of it, so host speed drift hits
    # both sides of the overhead alike.
    cycles: list[_Cycle] = []
    traced: list[_Cycle] = []
    tracer = tracing.Tracer() if p.trace else None
    goal = p.seconds / 2 if tracer else p.seconds
    while not cycles or sum(c.script_s for c in cycles) < goal:
        cycles.append(_churn_cycle(cfg, p.seed, owners, serving, script, None))
        if tracer is not None and (not traced or sum(c.script_s for c in traced) < goal):
            traced.append(_churn_cycle(cfg, p.seed, owners, serving, script, tracer))

    first = cycles[0]
    for i, c in enumerate(cycles + traced):
        out.attempted += c.steps
        if c.aborted:
            out.fail(f"cycle {i}: run_events aborted, {c.aborted} steps not run", c.aborted)
        if (c.log_sha, c.state_sha) != (first.log_sha, first.state_sha):
            out.problems.append(f"cycle {i}{' (traced)' if i >= len(cycles) else ''}:"
                                " log or state digest differs from cycle 0")

    steps = sum(c.steps for c in cycles)
    write_ns = [t for c in cycles for t in c.write_ns]
    per_s = steps / sum(c.timed_s for c in cycles)
    audits = [t for c in cycles for t in c.audit_s]
    _common(out, [c.setup_s for c in cycles], per_s, write_ns, audits, peak_rss_mb())
    out.line("setup_s", out.metrics["setup_s"][0], "s", len(cycles))
    out.line("churn_steps_per_s", per_s, "1/s", steps)
    out.line("write_p50_us", out.metrics["op_p50_us"][0], "us", len(write_ns))
    out.line("write_p99_us", out.metrics["op_p99_us"][0], "us", len(write_ns))
    out.line("audit_s", out.metrics["audit_s"][0], "s", len(audits))
    out.line("rss_mb", out.metrics["rss_mb"][0], "MB")
    out.line("host_speed", statistics.median(c.speed for c in cycles), "1", len(cycles))
    out.line("failed_frac", out.failed / max(1, out.attempted), "1", out.attempted)
    out.report.append(f"  churn_log_sha256 {first.log_sha}")
    out.report.append(f"  churn_state_sha256 {first.state_sha}")
    out.report.append(f"  invariants_red {','.join(first.red) or '-'}")
    out.report.append(f"  registrar_warnings {first.warnings}")
    out.report.append(f"  rejected_steps {first.rejected} of {first.steps}")

    if tracer is not None:
        ops_agg: dict = {}
        for c in traced:
            tracing.merge(ops_agg, c.ops_agg)
        traced_steps = sum(c.steps for c in traced)
        layers = tracing.layer_metrics(ops_agg, tracer.snapshot(), traced_steps,
                                       steps=traced_steps)
        last = traced[-1]
        layers["registrar.warnings"] = (float(last.warnings), "count")
        layers["scenarios.rejected_steps"] = (float(last.rejected), "count")
        layers["scenarios.invariants_red"] = (float(len(last.red)), "count")
        out.layers.update(layers)
        _overhead(out, 1e9 / per_s, 1e9 * sum(c.timed_s for c in traced) / traced_steps)
        tracer.write_spans(p.out_dir / f"spans-provision_churn-s{p.seed}.jsonl")
    return out


# ---------------------------------------------------------------- cli_state


@dataclass(frozen=True)
class Call:
    args: tuple[str, ...]
    code: int = 0
    stdout: tuple[str, ...] | None = None  # exact lines expected, if checked
    min_lines: int = 0


def cli_sequence(seed: int, pop: inputs.Population) -> list[Call]:
    """A fixed mix of persisting writes, reads and reports on one state dir."""
    rng = random.Random(f"cli-{seed}")
    picks = rng.sample(pop.numbers, 5)
    prov, moved, gone = picks[:3], picks[3], picks[4]

    def num(d: str) -> str:
        return inputs.spell(d, rng)

    def public(d: str, service: str, records=None) -> tuple[str, ...]:
        recs = pop.records[d] if records is None else records
        return tuple(inputs.expected_uris(recs, service, sees_restricted=False))

    new_recs = {}
    provisions = []
    for d in prov:
        rec = inputs.make_record(rng, d, rng.choice(inputs.SERVICES), 120, 5)
        body = rec.line.split(" ", 1)[1]
        new_recs[d] = [r for r in pop.records[d]] + [
            inputs.Record(rec.order, rec.preference, rec.service, rec.line, rec.uri, False)]
        provisions.append(Call(("provision", num(d), "--actor", pop.users[d],
                                "--record", body, "--visibility", "public")))

    def resolve(d: str, service: str, records=None) -> Call:
        return Call(("resolve", num(d), "--service", service),
                    stdout=public(d, service, records))

    to = "reg2" if pop.registrar[moved] == "reg1" else "reg1"
    svc1 = new_recs[prov[1]][-1].service
    return [
        provisions[0],
        Call(("transfer", num(moved), "--user", pop.users[moved], "--to", to)),
        provisions[1],
        resolve(prov[1], svc1, new_recs[prov[1]]),
        Call(("disconnect", num(gone), "--user", pop.users[gone])),
        provisions[2],
        Call(("scenario", "report"), min_lines=len(pop.numbers)),
        resolve(moved, "*"),
        Call(("resolve", num(gone)), code=1, stdout=()),
        Call(("market", "report"), min_lines=5),
    ]


def _argv(call: Call, state_dir: Path) -> list[str]:
    args = list(call.args)
    if args[0] != "market":
        args += ["--state-dir", str(state_dir)]
    return args


def _run_cli(call: Call, state_dir: Path, env: dict, agg_path: Path | None,
             out: Outcome) -> float:
    """Run one call in a fresh interpreter and check it; returns its
    corrected wall time, from the readings the child took."""
    cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"),
           "-" if agg_path is None else str(agg_path), *_argv(call, state_dir)]
    t0 = perf_counter_ns()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    wall_ns = perf_counter_ns() - t0
    out.attempted += 1
    err = proc.stderr.splitlines()
    reading = err.pop().split() if err else []
    lines = proc.stdout.splitlines()
    if len(reading) != 4 or reading[0] != "hostclock":
        out.fail(f"{' '.join(call.args)}: no host-speed reading: {proc.stderr.strip()[-300:]}")
        return wall_ns
    if proc.returncode != call.code:
        out.fail(f"{' '.join(call.args)}: exit {proc.returncode}, expected {call.code}:"
                 f" {chr(10).join(err)[-300:]}")
    elif call.stdout is not None and tuple(lines) != call.stdout:
        out.fail(f"{' '.join(call.args)}: printed {lines!r}, expected {list(call.stdout)!r}")
    elif len(lines) < call.min_lines:
        out.fail(f"{' '.join(call.args)}: {len(lines)} lines, expected >= {call.min_lines}")
    first, second, spent_ns = map(int, reading[1:])
    return (wall_ns - spent_ns) * hostclock.factor(first, second)


def _cli_pass(seq: list[Call], pristine: Path, work: Path, env: dict, out: Outcome,
              agg_dir: Path | None = None, tag: str = "") -> list[float]:
    """One pass of *seq* on a fresh copy of *pristine*; returns each call's
    corrected wall time."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    lat_ns = []
    for k, call in enumerate(seq):
        agg = None if agg_dir is None else agg_dir / f"{tag}-{k}.json"
        lat_ns.append(_run_cli(call, work, env, agg, out))
    return lat_ns


def _audit_state_dir(state_dir: Path, times: list[float]) -> None:
    """Audit the state the CLI left in *state_dir*, loaded as the CLI loads
    it, AUDITS times. Snapshots carry no billing ledger, so
    ``billing_conservation`` reads red on a loaded state; the figure is
    the audit's time."""
    cfg = es.parse_config((state_dir / snapshots.SCENARIO_FILE).read_text(encoding="utf-8"))
    topology = es.build_topology(cfg, seed=0)
    snapshots.load_state(topology, state_dir)
    topology.log = snapshots.read_log(state_dir)
    for _ in range(AUDITS):
        audit_once(topology, times)


def cli_state(p: Params) -> Outcome:
    out = Outcome()
    pop = inputs.make_population(p.seed, p.n)
    seq = cli_sequence(p.seed, pop)
    scenario_text = (resource_files("enumstack")
                     .joinpath("fixtures/scenarios/model4.cfg").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ENUM_APEX", None)
    # Children keep a bytecode cache under src/, as an installed package
    # would, whatever the caller's environment; it is filled before timing.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import enumstack.cli, hostclock, tracing"],
                   env=env, cwd=BENCH_DIR, check=True, timeout=CLI_TIMEOUT_S)

    tmp = Path(tempfile.mkdtemp(prefix="cli_state-", dir=p.out_dir))
    try:
        setup: list[float] = []
        audit: list[float] = []
        passes: list[list[float]] = []
        traced: list[list[float]] = []
        pristine = tmp / "pristine"
        work = tmp / "work"
        agg_dir = tmp / "agg"
        agg_dir.mkdir()
        # Rounds of set-up and one pass (and, traced, a traced pass, in
        # alternating order, so host speed drift hits both sides of the
        # overhead alike) repeat until the untraced passes have run for
        # --seconds, or half of it in a traced run.
        goal = p.seconds / 2 if p.trace else p.seconds
        spent = 0.0
        while len(setup) < CLI_ROUNDS or spent < goal:
            shutil.rmtree(pristine, ignore_errors=True)
            topology = None
            gc.collect()
            watch = Stopwatch()
            topology = populate_model4(pop, p.seed, watch)
            snapshots.save_state(topology, pristine, scenario_text=scenario_text)
            snapshots.append_log(pristine, topology.log)
            watch.split()
            setup.append(watch.s)
            topology = None
            order = (False, True) if len(setup) % 2 else (True, False)
            for traced_pass in order if p.trace else (False,):
                if traced_pass:
                    traced.append(_cli_pass(seq, pristine, work, env, out, agg_dir,
                                            str(len(traced))))
                else:
                    t0 = perf_counter()
                    passes.append(_cli_pass(seq, pristine, work, env, out))
                    spent += perf_counter() - t0
                    _audit_state_dir(work, audit)

        lat_ns = [t for one in passes for t in one]
        sessions = [sum(one) / 1e9 for one in passes]
        per_s = len(lat_ns) / sum(sessions)
        _common(out, setup, per_s, lat_ns, audit, peak_rss_mb(resource.RUSAGE_CHILDREN))
        out.line("setup_s", out.metrics["setup_s"][0], "s", len(setup))
        out.line("cli_p50_ms", statistics.median(lat_ns) / 1e6, "ms", len(lat_ns))
        out.line("cli_session_s", statistics.median(sessions), "s", len(sessions))
        out.line("audit_s", out.metrics["audit_s"][0], "s", len(audit))
        out.line("rss_mb", out.metrics["rss_mb"][0], "MB")
        out.line("failed_frac", out.failed / max(1, out.attempted), "1", out.attempted)

        if p.trace:
            traced_ns = [t for one in traced for t in one]
            total: dict = {}
            for path in sorted(agg_dir.iterdir()):
                tracing.merge(total, json.loads(path.read_text(encoding="utf-8")))
            layers = tracing.layer_metrics(total, total, len(traced_ns), steps=0)
            floor = []
            for _ in range(5):
                t0 = perf_counter_ns()
                subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                               timeout=CLI_TIMEOUT_S)
                floor.append(perf_counter_ns() - t0)
            layers["cli.interpreter_ms"] = (statistics.median(floor) / 1e6, "ms")
            imports = total["counters"].get("cli.import_ns", 0)
            layers["cli.import_ms"] = (imports / len(traced_ns) / 1e6, "ms")
            layers["snapshots.state_bytes"] = (
                float(sum(f.stat().st_size for f in pristine.iterdir())), "B")
            out.layers.update(layers)
            _overhead(out, statistics.fmean(lat_ns), statistics.fmean(traced_ns))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


WORKLOADS = {
    "resolve_mix": resolve_mix,
    "provision_churn": provision_churn,
    "cli_state": cli_state,
}

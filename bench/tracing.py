"""Span tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own files around the public
functions and methods of each package module. A wrapper records a span
(name, start, end, parent, operation id) and folds it into per-name
aggregates: calls and self time. Self time is a span's
duration minus the time covered by its direct children; calls nest
strictly because the package is single-threaded, so children never
overlap.

Aggregates cover every span. Full span records are kept in memory only
for the first ``max_spans`` spans, so trace memory stays bounded on long
runs, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

LAYERS = ("e164", "naptr", "wire", "simulator", "resolver", "registry", "registrar",
          "scenarios", "snapshots", "cli", "market")

# (module, attribute, span name). A function is wrapped wherever a
# package module holds a reference to it, because ``from .wire import
# encode_frame`` binds the name in the importing module too.
FUNCTIONS = (
    ("wire", "encode_frame", "wire.encode_frame"),
    ("wire", "decode_frame", "wire.decode_frame"),
    ("e164", "parse_number", "e164.parse_number"),
    ("e164", "to_domain", "e164.to_domain"),
    ("naptr", "parse_record", "naptr.parse_record"),
    ("naptr", "apply_regexp", "naptr.apply_regexp"),
    ("naptr", "select", "naptr.select"),
    ("naptr", "resolve_record_set", "naptr.resolve_record_set"),
    ("resolver", "resolve", "resolver.resolve"),
    ("registrar", "parse_store_lines", "registrar.parse_store_lines"),
    ("scenarios", "parse_events", "scenarios.parse_events"),
    ("scenarios", "run_events", "scenarios.run_events"),
    ("scenarios", "assert_invariants", "scenarios.assert_invariants"),
    ("snapshots", "load_state", "snapshots.load_state"),
    ("snapshots", "save_state", "snapshots.save_state"),
    ("snapshots", "read_log", "snapshots.read_log"),
    ("market", "market_report", "market.market_report"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name). Actor handlers must be patched
# before a topology is built, because ``Topology`` registers bound
# methods with the network at construction.
METHODS = (
    ("simulator", "Network", "step", "simulator.step"),
    ("simulator", "Network", "request", "simulator.request"),
    ("registry", "Tier0Actor", "handle_frame", "registry.handle_frame"),
    ("registry", "RegistryActor", "handle_frame", "registry.handle_frame"),
    ("registry", "RegistryState", "peer_sync", "registry.peer_sync"),
    ("registrar", "RegistrarActor", "handle_frame", "registrar.handle_frame"),
    ("registrar", "RegistrarActor", "get_records", "registrar.get_records"),
    ("registrar", "RegistrarActor", "provision_records", "registrar.provision_records"),
    ("scenarios", "AccessOracle", "check", "scenarios.access_oracle"),
)

# Spans directly inside one of these start a new operation each: one
# script step is one operation, not the whole script.
CONTAINERS = frozenset({"scenarios.run_events"})


class Tracer:
    """In-memory span store with per-name aggregates and counters."""

    def __init__(self, max_spans: int = 200_000):
        self.enabled = False
        self.max_spans = max_spans
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self._next_id = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child_ns, span id, op]
        self._op = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def high_water(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def enter(self, name: str) -> None:
        stack = self._stack
        if not stack or stack[-1][0] in CONTAINERS:
            self._op += 1
        self._next_id += 1
        stack.append([name, perf_counter_ns(), 0, self._next_id, self._op])

    def leave(self) -> None:
        end = perf_counter_ns()
        name, start, child_ns, span_id, op = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent = outer[3]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start, end, span_id, parent, op))

    def snapshot(self) -> dict:
        """Aggregates as plain data, to diff phases or ship across processes."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
        }

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, in order of completion.

        Span ids count from 1 in order of start; ``parent`` 0 marks a root.
        """
        keys = ("name", "start_ns", "end_ns", "id", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def merge(total: dict, part: dict) -> None:
    """Add one aggregate snapshot into another; ``*_hwm`` counters take the max."""
    for section, values in part.items():
        dst = total.setdefault(section, {})
        for key, value in values.items():
            old = dst.get(key, 0)
            dst[key] = max(old, value) if key.endswith("_hwm") else old + value


def diff(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots; ``*_hwm`` counters as of *after*."""
    return {
        section: {
            key: value if key.endswith("_hwm") else value - before[section].get(key, 0)
            for key, value in values.items()
        }
        for section, values in after.items()
    }


def _observe(name: str, tracer: Tracer, args: tuple, result) -> None:
    """Counters read at the layer boundary where the work happens."""
    if name == "wire.encode_frame":
        tracer.count("wire.bytes", len(result))
        if not args[0].is_response:
            tracer.count("wire.requests." + args[0].kind)
    elif name == "simulator.request" and result is None:
        tracer.count("simulator.timeouts")
    elif name == "resolver.resolve":
        tracer.count("resolver.hops", len(result.trace.hops))


def _wrap(fn, name: str, tracer: Tracer):
    if name == "simulator.step":

        @functools.wraps(fn)
        def step_wrapper(net, *args, **kwargs):
            if not tracer.enabled:
                return fn(net, *args, **kwargs)
            tracer.high_water("simulator.queue_hwm", net.pending())
            logged = len(net.frame_log)
            tracer.enter(name)
            try:
                result = fn(net, *args, **kwargs)
            finally:
                tracer.leave()
            if len(net.frame_log) > logged and net.frame_log[-1].status == "dropped":
                tracer.count("simulator.dropped_frames")
            tracer.high_water("simulator.frame_log_hwm", len(net.frame_log))
            return result

        return step_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        _observe(name, tracer, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function and method of the imported package.

    Imports the whole package first, so that every module that holds a
    reference to a traced function is patched. Returns what
    :func:`uninstall` needs to put the originals back.
    """
    modules = {short: importlib.import_module("enumstack." + short) for short in LAYERS}
    holders = [m for key, m in sys.modules.items()
               if key == "enumstack" or key.startswith("enumstack.")]
    undo: list[tuple] = []
    for short, attr, name in FUNCTIONS:
        original = getattr(modules[short], attr)
        wrapped = _wrap(original, name, tracer)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapped)
    for short, cls_name, attr, name in METHODS:
        cls = getattr(modules[short], cls_name)
        undo.append((cls, attr, vars(cls).get(attr)))
        setattr(cls, attr, _wrap(getattr(cls, attr), name, tracer))
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Put back what :func:`install` replaced."""
    for owner, attr, original in reversed(undo):
        if original is None:  # the method was inherited
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


# ---------------------------------------------------------------- per-layer metrics


def layer_metrics(ops_agg: dict, agg: dict, ops: int, steps: int) -> dict:
    """Per-layer metrics from aggregates: name -> (value, unit).

    *ops_agg* covers the operations only (resolves, script steps or CLI
    calls) and gives the per-operation counts; *agg* also covers the audit
    and gives mean self times per call. *steps* is the number of script
    steps, for the script runner's self time per step. A layer the
    workload does not run reports 0.
    """
    calls, self_ns = agg.get("calls", {}), agg.get("self_ns", {})
    op_calls, counters = ops_agg.get("calls", {}), ops_agg.get("counters", {})

    def self_time(name: str, scale: float) -> float:
        n = calls.get(name, 0)
        return self_ns.get(name, 0) / n / scale if n else 0.0

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def us(name: str) -> tuple[float, str]:
        return self_time(name, 1e3), "us"

    def ms(name: str) -> tuple[float, str]:
        return self_time(name, 1e6), "ms"

    requests = {k[len("wire.requests."):]: v for k, v in counters.items()
                if k.startswith("wire.requests.")}
    writes = requests.get("REGISTER", 0) + requests.get("CHANGE", 0)
    resolves = op_calls.get("resolver.resolve", 0)
    run_events_ns = self_ns.get("scenarios.run_events", 0)
    return {
        "wire.encode_frame.self_us": us("wire.encode_frame"),
        "wire.decode_frame.self_us": us("wire.decode_frame"),
        "wire.frames_per_op": (per_op(op_calls.get("wire.encode_frame", 0)), "1/op"),
        "wire.bytes_per_op": (per_op(counters.get("wire.bytes", 0)), "B/op"),
        "simulator.step.self_us": us("simulator.step"),
        "simulator.requests_per_op": (per_op(op_calls.get("simulator.request", 0)), "1/op"),
        "simulator.timeouts": (float(counters.get("simulator.timeouts", 0)), "count"),
        "simulator.dropped_frames": (float(counters.get("simulator.dropped_frames", 0)),
                                     "count"),
        "simulator.queue_hwm": (float(counters.get("simulator.queue_hwm", 0)), "count"),
        "simulator.frame_log_len": (float(counters.get("simulator.frame_log_hwm", 0)),
                                    "count"),
        "e164.parse_number.self_us": us("e164.parse_number"),
        "e164.parse_number.calls_per_op": (per_op(op_calls.get("e164.parse_number", 0)),
                                           "1/op"),
        "e164.to_domain.self_us": us("e164.to_domain"),
        "naptr.parse_record.self_us": us("naptr.parse_record"),
        "naptr.parse_record.calls_per_op": (per_op(op_calls.get("naptr.parse_record", 0)),
                                            "1/op"),
        "naptr.apply_regexp.self_us": us("naptr.apply_regexp"),
        "naptr.select.self_us": us("naptr.select"),
        "naptr.resolve_record_set.self_us": us("naptr.resolve_record_set"),
        "resolver.resolve.self_us": us("resolver.resolve"),
        "resolver.hops_per_resolve": (
            counters.get("resolver.hops", 0) / resolves if resolves else 0.0, "1/op"),
        "registry.handle_frame.self_us": us("registry.handle_frame"),
        "registry.peer_sync.self_us": us("registry.peer_sync"),
        "registry.peer_updates_per_write": (
            requests.get("PEER_UPDATE", 0) / writes if writes else 0.0, "1/op"),
        "registrar.handle_frame.self_us": us("registrar.handle_frame"),
        "registrar.get_records.self_us": us("registrar.get_records"),
        "registrar.provision_records.self_us": us("registrar.provision_records"),
        "registrar.parse_store_lines.calls_per_op": (
            per_op(op_calls.get("registrar.parse_store_lines", 0)), "1/op"),
        "registrar.warnings": (0.0, "count"),
        "scenarios.parse_events.self_us": us("scenarios.parse_events"),
        "scenarios.run_events.self_us_per_step": (
            run_events_ns / steps / 1e3 if steps else 0.0, "us"),
        "scenarios.access_oracle.self_ms": ms("scenarios.access_oracle"),
        "scenarios.assert_invariants.self_ms": ms("scenarios.assert_invariants"),
        "scenarios.rejected_steps": (0.0, "count"),
        "scenarios.invariants_red": (0.0, "count"),
        "snapshots.load_state.self_ms": ms("snapshots.load_state"),
        "snapshots.save_state.self_ms": ms("snapshots.save_state"),
        "snapshots.read_log.self_ms": ms("snapshots.read_log"),
        "snapshots.state_bytes": (0.0, "B"),
        "cli.interpreter_ms": (0.0, "ms"),
        "cli.import_ms": (0.0, "ms"),
        "cli.main.self_ms": ms("cli.main"),
        "market.market_report.self_ms": ms("market.market_report"),
    }

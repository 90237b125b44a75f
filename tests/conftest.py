"""Shared fixtures, and one pass/fail line per acceptance criterion.

Acceptance tests are named ``test_criterion_<n>_*``; every test sharing a
criterion number must pass for that criterion's line to read PASS.
"""

import re
from typing import NamedTuple

import pytest

from enumstack import simulator
from enumstack.wire import Frame


class PoppedFrame(NamedTuple):
    tick: int
    frame: Frame


@pytest.fixture
def popped_frames(monkeypatch):
    """Every frame any ``Network`` pops, in pop order, with the clock at the pop.

    The network keeps no delivered frames, so tests that read the traffic
    record it here, by wrapping ``Network.step``: the head of the queue is
    the entry the step pops, and the clock moves to its tick if that is later.
    """
    popped: list[PoppedFrame] = []
    step = simulator.Network.step

    def recording_step(net):
        if net._queue:
            at, _, frame = net._queue[0]
            popped.append(PoppedFrame(max(at, net.clock), frame))
        return step(net)

    monkeypatch.setattr(simulator.Network, "step", recording_step)
    return popped


_CRITERIA = {
    1: "worked-example exactness (+1-315-443-4473 domain form)",
    2: "potential-market table reproduction (8 cells, +/-0.01)",
    3: "adoption-table derived cells (growth +/-0.05, share +/-0.005)",
    4: "number/domain roundtrip, 10k random numbers under 5s",
    5: "record selection equals exhaustive stable-sort oracle (1k sets)",
    6: "canonical script resolves byte-identically across all 6 models",
    7: "value-flow role pairs match stated directions (models 1/2/3/6)",
    8: "transfer conservation, outage fault path, dispute rollback",
    9: "multi-registry replica convergence and fault detection",
    10: "access soundness vs independent matrix (1k sequences + planted)",
}

_NAME_RE = re.compile(r"test_criterion_(\d+)")
_outcomes: dict[int, list[bool]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _NAME_RE.search(report.nodeid)
    if match is None:
        return
    _outcomes.setdefault(int(match.group(1)), []).append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_CRITERIA):
        runs = _outcomes.get(number)
        if runs is None:
            continue
        verdict = "PASS" if all(runs) else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:>2}: {verdict}  {_CRITERIA[number]}"
        )

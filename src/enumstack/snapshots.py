"""Snapshot persistence for command-line runs.

A state directory holds the scenario config, one delegation snapshot
(``registry.snap``, one ``number|registrar|owner|serial`` line per owned
delegation), one ``registrar-<id>.snap`` per registrar (blocks of
``number|`` lines followed by that number's grants and record lines), a
``subscriptions.snap``, and an append-only ``events.log``.

All writes go through write-temp-then-rename, so a killed process never
leaves a half-written snapshot visible, and a lock file serializes
concurrent invocations against one directory. A load reads each file
once; ``events.log`` is only scanned for the largest event and transfer
ids, and :func:`read_log` parses it in full for reports and audits.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

from .errors import LockHeld, RegistrarError, SnapshotError
from .naptr import NaptrRecord, ServiceSelector
from .registrar import (
    AuthorizationGrant,
    RegistrarActor,
    Subscription,
    parse_stored_line,
    render_stored_line,
)
from .registry import Delegation, RegistryState
from .scenarios import LogRecord, Topology

REGISTRY_SNAP = "registry.snap"
SUBSCRIPTIONS_SNAP = "subscriptions.snap"
EVENTS_LOG = "events.log"
SCENARIO_FILE = "scenario.cfg"
LOCK_FILE = ".lock"

_ID_RE = re.compile(r"^[ex](\d+)$")
_GRANT_ID_RE = re.compile(r"^g(\d+)$")
# A log line that LogRecord.parse accepts as it stands: an event id (its
# number captured when it is an e<n> or x<n> id), an ASCII-digit tick, a
# kind, a status and a detail of key=value chunks.
_PLAIN_LOG_LINE = re.compile(
    r"(?:[ex](\d+)|[^|]*)\|t[0-9]+\|[^|]*\|[^|]*\|(?:[^;=]*=[^;]*(?:;[^;=]*=[^;]*)*)?"
)


def _atomic_write(path: Path, text: str) -> None:
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent,
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()
    os.replace(handle.name, path)


class StateLock:
    """Exclusive lock on a state directory (``with StateLock(dir): ...``)."""

    def __init__(self, state_dir: Path):
        self.path = Path(state_dir) / LOCK_FILE
        self._fd: int | None = None

    def __enter__(self) -> "StateLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise LockHeld(f"{self.path} exists; another invocation is active") from None
        os.write(self._fd, str(os.getpid()).encode("ascii"))
        return self

    def __exit__(self, *_exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def has_state(state_dir: Path) -> bool:
    return (Path(state_dir) / SUBSCRIPTIONS_SNAP).exists()


def save_state(topology: Topology, state_dir: Path, scenario_text: str | None = None) -> None:
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)

    lines = []
    for actor in topology.registries.values():
        for number in sorted(actor.state.delegations):
            d = actor.state.delegations[number]
            if d.owning_registry == actor.state.id:
                lines.append(f"{d.number}|{d.registrar}|{d.owning_registry}|{d.serial}")
    _atomic_write(state_dir / REGISTRY_SNAP, "\n".join(lines) + ("\n" if lines else ""))

    for registrar_id, actor in topology.registrars.items():
        blocks: list[str] = []
        for number in sorted(set(actor.store) | set(actor.grants)):
            blocks.append(f"number|{number}")
            for grant in actor.grants.get(number, ()):
                rights = ",".join(sorted(grant.rights))
                blocks.append(
                    f"grant|{grant.grant_id}|{grant.grantor}|{grant.grantee}|"
                    f"{rights}|{grant.scope.service}"
                )
            for rec in actor.store.get(number, ()):
                blocks.append(f"record|{render_stored_line(rec)}")
        _atomic_write(
            state_dir / f"registrar-{registrar_id}.snap",
            "\n".join(blocks) + ("\n" if blocks else ""),
        )

    lines = []
    for number in sorted(topology.directory.subscriptions):
        sub = topology.directory.subscriptions[number]
        lines.append(
            f"{number}|{sub.user}|{sub.tsp}|{int(sub.enum_active)}|"
            f"{int(sub.phone_active)}|{sub.serving_registrar or ''}|{sub.token}"
        )
    _atomic_write(
        state_dir / SUBSCRIPTIONS_SNAP, "\n".join(lines) + ("\n" if lines else "")
    )

    if scenario_text is not None:
        _atomic_write(state_dir / SCENARIO_FILE, scenario_text)


def append_log(state_dir: Path, records: list[LogRecord]) -> None:
    if not records:
        return
    path = Path(state_dir) / EVENTS_LOG
    with open(path, "a", encoding="utf-8") as handle:
        for rec in records:
            handle.write(rec.render() + "\n")


def read_state_text(path: Path) -> str:
    """The text of one state-directory file, read once.

    Line endings are translated as text-mode reads translate them. Bytes
    that are not UTF-8 are a :class:`SnapshotError` on the line holding
    the first bad byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Everything before the bad byte decodes; the marker stands in
        # for the bad byte so a line break just before it counts.
        lineno = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise SnapshotError(str(path), lineno, f"not UTF-8 text (byte {exc.start})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_log(state_dir: Path) -> list[LogRecord]:
    path = Path(state_dir) / EVENTS_LOG
    if not path.exists():
        return []
    records = []
    for lineno, line in enumerate(read_state_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(LogRecord.parse(line))
        except Exception as exc:
            raise SnapshotError(str(path), lineno, str(exc)) from exc
    return records


def _load_subscriptions(topology: Topology, path: Path) -> None:
    subscriptions = topology.directory.subscriptions
    for lineno, line in enumerate(read_state_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 7:
            raise SnapshotError(str(path), lineno, f"expected 7 fields, got {len(parts)}")
        number, user, tsp, enum_flag, phone_flag, serving, token = parts
        if enum_flag not in ("0", "1") or phone_flag not in ("0", "1"):
            raise SnapshotError(str(path), lineno, "flags must be 0 or 1")
        subscriptions[number] = Subscription(
            number, user, tsp, token, phone_flag == "1", enum_flag == "1", serving or None
        )


def _load_delegations(topology: Topology, path: Path) -> None:
    # Owner id -> the states of the owner and its peers, in that order.
    replicas: dict[str, list[RegistryState]] = {}
    for lineno, line in enumerate(read_state_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 4:
            raise SnapshotError(str(path), lineno, f"expected 4 fields, got {len(parts)}")
        number, registrar, owner, serial_text = parts
        try:
            serial = int(serial_text)
        except ValueError:
            raise SnapshotError(str(path), lineno, f"bad serial {serial_text!r}") from None
        states = replicas.get(owner)
        if states is None:
            if owner not in topology.registries:
                raise SnapshotError(str(path), lineno, f"unknown registry {owner!r}")
            owner_state = topology.registries[owner].state
            states = replicas[owner] = [owner_state] + [
                topology.registries[peer].state for peer in owner_state.peers
            ]
        delegation = Delegation(number, registrar, owner, serial)
        for state in states:
            state.delegations[number] = delegation
            state.observed_serials.setdefault(number, []).append(serial)


def _load_registrar(actor: RegistrarActor, path: Path) -> int:
    """Fill one registrar's store and grants; returns its largest grant number."""
    max_grant = 0
    current: str | None = None
    records: list[NaptrRecord] = []
    for lineno, line in enumerate(read_state_text(path).splitlines(), 1):
        tag, _, rest = line.partition("|")
        if tag == "record":
            if current is None:
                raise SnapshotError(str(path), lineno, "record before number line")
            try:
                records.append(parse_stored_line(rest))
            except Exception as exc:
                raise SnapshotError(str(path), lineno, str(exc)) from exc
        elif tag == "number":
            current = rest
            records = actor.store.setdefault(current, [])
        elif not line.strip():
            continue
        elif tag == "grant":
            if current is None:
                raise SnapshotError(str(path), lineno, "grant before number line")
            parts = rest.split("|")
            if len(parts) != 5:
                raise SnapshotError(str(path), lineno, "grant needs 5 fields")
            grant_id, grantor, grantee, rights, scope = parts
            try:
                grant = AuthorizationGrant(
                    grant_id=grant_id,
                    grantor=grantor,
                    grantee=grantee,
                    rights=frozenset(r for r in rights.split(",") if r),
                    scope=ServiceSelector(scope),
                    number=current,
                )
            except RegistrarError as exc:  # rights empty or unknown
                raise SnapshotError(str(path), lineno, str(exc)) from exc
            actor.grants.setdefault(current, []).append(grant)
            match = _GRANT_ID_RE.match(grant_id)
            if match:
                max_grant = max(max_grant, int(match.group(1)))
        else:
            raise SnapshotError(str(path), lineno, f"unknown tag {tag!r}")
    return max_grant


def _restore_id_counters(topology: Topology, path: Path) -> None:
    """Raise the event and transfer counters past every id in the log.

    A line in the plain shape gives its event id without being parsed;
    any other line, and any line that may name a transfer, goes through
    :meth:`LogRecord.parse`, so a bad line fails as :func:`read_log`
    fails on it.
    """
    event_n, transfer_n = topology._event_n, topology._transfer_n
    plain = _PLAIN_LOG_LINE.fullmatch
    for lineno, line in enumerate(read_state_text(path).splitlines(), 1):
        m = plain(line)
        if m is not None and "transfer=" not in line:
            digits = m.group(1)
        else:
            if not line.strip():
                continue
            try:
                rec = LogRecord.parse(line)
            except Exception as exc:
                raise SnapshotError(str(path), lineno, str(exc)) from exc
            match = _ID_RE.match(rec.detail.get("transfer", ""))
            if match:
                transfer_n = max(transfer_n, int(match.group(1)))
            match = _ID_RE.match(rec.event_id)
            digits = match.group(1) if match else None
        if digits is not None:
            event_n = max(event_n, int(digits))
    topology._event_n, topology._transfer_n = event_n, transfer_n


def load_state(topology: Topology, state_dir: Path) -> None:
    """Apply snapshots onto a freshly built topology."""
    state_dir = Path(state_dir)
    path = state_dir / SUBSCRIPTIONS_SNAP
    if path.exists():
        _load_subscriptions(topology, path)
    path = state_dir / REGISTRY_SNAP
    if path.exists():
        _load_delegations(topology, path)
    max_grant = 0
    for registrar_id, actor in topology.registrars.items():
        path = state_dir / f"registrar-{registrar_id}.snap"
        if path.exists():
            max_grant = max(max_grant, _load_registrar(actor, path))
    topology._grant_n = max(topology._grant_n, max_grant)
    path = state_dir / EVENTS_LOG
    if path.exists():
        _restore_id_counters(topology, path)
    topology.completed = True

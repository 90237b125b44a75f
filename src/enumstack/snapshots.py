"""Snapshot persistence for command-line runs.

A state directory holds the scenario config, one delegation snapshot
(``registry.snap``, one ``number|registrar|owner|serial`` line per owned
delegation), one ``registrar-<id>.snap`` per registrar (blocks of
``number|`` lines followed by that number's grants and record lines), a
``subscriptions.snap``, an append-only ``events.log`` and a
``checkpoint``.

The checkpoint lists each snapshot file and ``events.log`` with its
byte length and CRC-32, and for ``events.log`` also the largest event,
transfer and grant ids a scan of it gives; its last line is the CRC-32 of
the lines above it. A missing or corrupt checkpoint, or one from another
version, is ignored and never an error. It decides three things:

- when a snapshot file is walked. The three kinds of snapshot file each
  load into :class:`~enumstack.registrar.RecordStore` maps: the records
  and grants of each registrar, the delegations and observed serials of
  each registry (a ``registry.snap`` line goes to its owner's map and to
  each of the owner's peers') and the directory's subscriptions. Every
  file is read and checked against its entry at load. A file that fails
  its entry is walked then. The walk of a file that matches its entry
  waits in :class:`~enumstack.registrar.PendingStore` maps until the first
  use of anything the file fills: any method of one of its maps, and for
  a registrar file also the next grant id, which counts the ids every
  registrar file holds. A call that never uses a file never walks it;
- when the lines of a walked file are parsed. Each file is walked a line
  at a time, by rules that do not depend on the checkpoint. When the file
  matches its entry, each number keeps its stored text in its map until
  something reads the number; otherwise each line is parsed as it is
  read, and the first bad line is a :class:`SnapshotError` naming it.
  Either way, blank lines are skipped, and a line the walk cannot place
  (an untagged registrar line, a grant or record line before any number
  line, a ``registry.snap`` line without four fields or naming no
  configured owner) is a :class:`SnapshotError` naming it. A walk or a
  number's parse that fails after the load is a :class:`SnapshotError`
  (a walk names the line, a parse the file), after which the topology's
  saves write no entry for that file, so the next load walks it at once
  and names the bad line. So a hand-forged checkpoint entry over a bad
  line fails only the calls that use that file. Every registrar file is
  checkpointed: :class:`~enumstack.naptr.NaptrRecord` refuses a field its
  stored line could not hold, so every record parses back from the line
  it is saved as;
- which lines of ``events.log`` are scanned for the id counters, at load
  and at save. When the log opens with the prefix its entry describes,
  only the lines after that prefix are; otherwise the whole log is. A
  save to the directory the topology last loaded or saved takes the
  prefix that load or save checked as it stands, and reads none of it
  again: the log is only appended to under the lock.

A persisting call first appends its log lines, then :func:`save_state`
writes the snapshots and, last, the checkpoint, so that it describes the
log as the call leaves it. A file the call never walked stands as it was
loaded and keeps its entry: it is not rendered, read back or written.
Every other file is rendered, writing back the stored text of every
number nothing read, and rewritten when its bytes changed. Every file is
written to a temporary file and renamed into place, so a killed process
never leaves a half-written file visible; a file rewritten after the last
checkpoint no longer matches it, and the next load parses every line of
it. A lock on ``.lock`` that dies with its holder serializes concurrent
invocations against one directory.

:func:`read_log` parses the log for reports and audits: in full for the
audit and the log report, and only the records of the kinds that can pay
(:data:`~enumstack.audit.VALUE_FLOW_KINDS`) for the value-flow report.
Either read checks every line, so a bad line fails both alike.
"""

from __future__ import annotations

import os
import re
import tempfile
import zlib
from functools import partial
from itertools import chain
from sys import intern
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, TypeVar

try:
    import fcntl
except ImportError:  # not a POSIX host: the lock file's existence is the lock
    fcntl = None

from .errors import LockHeld, SnapshotError
from .naptr import NaptrRecord, ServiceSelector
from .registrar import (
    AuthorizationGrant,
    PendingStore,
    RecordStore,
    RegistrarActor,
    Subscription,
    parse_stored_line,
    render_stored_line,
    translate_newlines,
)
from .registry import Delegation
from .scenarios import LogRecord, Topology
from .wire import _is_decimal

V = TypeVar("V")

REGISTRY_SNAP = "registry.snap"
SUBSCRIPTIONS_SNAP = "subscriptions.snap"
EVENTS_LOG = "events.log"
SCENARIO_FILE = "scenario.cfg"
CHECKPOINT = "checkpoint"
LOCK_FILE = ".lock"

_CHECKPOINT_HEADER = "enumstack checkpoint 1"
_NUMBER_TAG = "number|"
_RECORD_TAG = "record|"
_GRANT_TAG = "grant|"
_CRC_CHUNK = 1 << 16
_SPLIT_CHARS = 1 << 16

_ID_RE = re.compile(r"^[ex]([0-9]+)$")
_GRANT_ID_RE = re.compile(r"^g([0-9]+)$")
# A log line that LogRecord.parse accepts as it stands: an event id (its
# number captured when it is an e<n> or x<n> id), a tick in the text str()
# writes, a kind, a status and a detail of key=value chunks.
_PLAIN_LOG_LINE = re.compile(
    r"(?:[ex]([0-9]+)|[^|]*)\|t(?:0|[1-9][0-9]*)\|[^|]*\|[^|]*\|"
    r"(?:[^;=]*=[^;]*(?:;[^;=]*=[^;]*)*)?"
)


def _atomic_write(path: Path, data: bytes) -> None:
    handle = tempfile.NamedTemporaryFile(
        "wb",
        dir=path.parent,
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _write_if_changed(path: Path, data: bytes) -> None:
    """Write *data* unless *path* already holds exactly these bytes."""
    try:
        if os.stat(path).st_size == len(data) and path.read_bytes() == data:
            return
    except OSError:
        pass
    _atomic_write(path, data)


class StateLock:
    """Exclusive lock on a state directory (``with StateLock(dir): ...``).

    Where :mod:`fcntl` exists, the lock is a ``flock`` on the lock file,
    which the kernel drops when its holder dies, so a killed process
    leaves a file that locks nothing. Elsewhere, creating the file is the
    lock, and a file left by a killed process must be removed by hand.
    The holder writes its pid into the file and removes the file on
    release; :class:`LockHeld` names the pid it finds there.
    """

    def __init__(self, state_dir: Path):
        self.path = Path(state_dir) / LOCK_FILE
        self._fd: int | None = None

    def __enter__(self) -> "StateLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = self._create() if fcntl is None else self._flock()
        os.write(self._fd, str(os.getpid()).encode("ascii"))
        return self

    def _create(self) -> int:
        try:
            return os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise LockHeld(str(self.path), self._holder()) from None

    def _flock(self) -> int:
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise LockHeld(str(self.path), self._holder()) from None
            except OSError:
                os.close(fd)
                raise
            try:
                current = os.stat(self.path).st_ino
            except FileNotFoundError:
                current = None
            if current == os.fstat(fd).st_ino:
                os.ftruncate(fd, 0)
                return fd
            # The last holder released between our open and our flock and
            # unlinked the file this fd holds: lock the path's file anew.
            os.close(fd)

    def _holder(self) -> int | None:
        """The pid in the lock file, if it holds one."""
        try:
            text = self.path.read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError):
            return None
        return int(text) if text.isdigit() else None

    def __exit__(self, *_exc) -> None:
        # Unlink before closing: once the lock is dropped, the path may
        # already name a newer holder's file.
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def has_state(state_dir: Path) -> bool:
    return (Path(state_dir) / SUBSCRIPTIONS_SNAP).exists()


def read_checkpoint(state_dir: Path) -> dict[str, tuple[int, ...]]:
    """The checkpoint's entries: file name -> (length, CRC-32), and for
    ``events.log`` -> (length, CRC-32, event, transfer, grant).

    A checkpoint that is missing, unreadable, or fails its own CRC-32 or
    its format gives no entries.
    """
    try:
        data = (Path(state_dir) / CHECKPOINT).read_bytes()
    except OSError:
        return {}
    cut = data.rfind(b"\n", 0, len(data) - 1) + 1
    body = data[:cut]
    if data[cut:] != b"crc|%d\n" % zlib.crc32(body):
        return {}
    try:
        header, *lines = body.decode("utf-8").split("\n")[:-1]
        if header != _CHECKPOINT_HEADER:
            return {}
        entries = {}
        for line in lines:
            name, *numbers = line.split("|")
            entries[name] = tuple(int(n) for n in numbers)
    except ValueError:  # not UTF-8, or a field that is not a number
        return {}
    return entries


def _checkpoint_bytes(entries: dict[str, tuple[int, ...]]) -> bytes:
    lines = [_CHECKPOINT_HEADER]
    for name in sorted(entries):
        if entries[name]:  # () marks a file whose stored text failed to parse
            lines.append("|".join([name, *map(str, entries[name])]))
    body = ("\n".join(lines) + "\n").encode("utf-8")
    return body + b"crc|%d\n" % zlib.crc32(body)


def _registry_lines(topology: Topology) -> Iterator[str]:
    """Each registry's own delegations, by number: those whose owner, the
    third field of a line nothing has read or the ``owning_registry`` of a
    parsed delegation, is the registry. A number nothing has read keeps
    its line."""
    for actor in topology.registries.values():
        reg_id = actor.state.id
        held = actor.state.delegations.held()
        for number in sorted(held):
            d = held[number]
            if d.__class__ is str:
                if d.split("|", 3)[2] == reg_id:
                    yield d
            elif d.owning_registry == reg_id:
                yield f"{d.number}|{d.registrar}|{d.owning_registry}|{d.serial}"


def _registrar_lines(actor: RegistrarActor) -> Iterator[str]:
    """One registrar's snapshot; a number nothing has read keeps its text."""
    held = actor.store.held()  # a walk fills the grants too
    grants = dict(actor.grants)
    for number in sorted(held.keys() | grants.keys()):
        yield f"{_NUMBER_TAG}{number}"
        for grant in grants.get(number, ()):
            rights = ",".join(sorted(grant.rights))
            yield (
                f"{_GRANT_TAG}{grant.grant_id}|{grant.grantor}|{grant.grantee}|"
                f"{rights}|{grant.scope.service}"
            )
        records = held.get(number, ())
        if records.__class__ is str:
            yield records
            continue
        for rec in records:
            yield _RECORD_TAG + render_stored_line(rec)


def _subscriptions_lines(topology: Topology) -> Iterator[str]:
    """Every subscription; a number nothing has read keeps its line."""
    held = topology.directory.subscriptions.held()
    for number in sorted(held):
        sub = held[number]
        if sub.__class__ is str:
            yield sub
            continue
        yield (
            f"{number}|{sub.user}|{sub.tsp}|{int(sub.enum_active)}|"
            f"{int(sub.phone_active)}|{sub.serving_registrar or ''}|{sub.token}"
        )


def save_state(topology: Topology, state_dir: Path, scenario_text: str | None = None) -> None:
    """Write every snapshot file whose content changed, then the checkpoint.

    Call it after :func:`append_log`, so that the checkpoint covers the
    log as it stands. The topology keeps the directory and the checkpoint
    entries it last read or wrote there: the ``events.log`` entry lets a
    later save read and scan only the log's new lines, a file loaded from
    this directory and never walked keeps its entry and is not rendered,
    and a file whose walk or stored text failed to parse gets no entry.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    where = state_dir.resolve()
    seen_dir, seen = topology.snapshot_seen or (None, {})
    if seen_dir != where:  # keep only the files no entry may vouch for
        seen = {name: () for name, mark in seen.items() if mark == ()}
    entries: dict[str, tuple[int, ...]] = {}

    def write(name: str, lines: Iterable[str], *stores: RecordStore) -> None:
        """Render *lines* into *name*, unless the file was loaded from
        this directory and the *stores* it fills are still pending: then
        it stands as it was read, and keeps its entry."""
        if seen_dir == where and any(store.__class__ is PendingStore for store in stores):
            entries[name] = seen[name]
            return
        data = "\n".join([*lines, ""]).encode("utf-8")
        entries[name] = () if seen.get(name) == () else (len(data), zlib.crc32(data))
        _write_if_changed(state_dir / name, data)

    write(
        REGISTRY_SNAP, _registry_lines(topology),
        *(actor.state.delegations for actor in topology.registries.values()),
    )
    for registrar_id, actor in topology.registrars.items():
        write(f"registrar-{registrar_id}.snap", _registrar_lines(actor), actor.store)
    write(SUBSCRIPTIONS_SNAP, _subscriptions_lines(topology), topology.directory.subscriptions)
    if scenario_text is not None:
        _write_if_changed(state_dir / SCENARIO_FILE, scenario_text.encode("utf-8"))
    try:
        log = _log_entry(state_dir / EVENTS_LOG, seen.get(EVENTS_LOG), vouched=True)
    except SnapshotError:  # a log this topology did not read, with a bad line
        log = None
    if log is not None:
        entries[EVENTS_LOG] = log
    _write_if_changed(state_dir / CHECKPOINT, _checkpoint_bytes(entries))
    topology.snapshot_seen = (where, entries)


def append_log(state_dir: Path, records: list[LogRecord]) -> None:
    if not records:
        return
    path = Path(state_dir) / EVENTS_LOG
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for rec in records:
            handle.write(rec.render() + "\n")


def _decode_state(path: Path, data: bytes) -> str:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Everything before the bad byte decodes.
        lineno = translate_newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise SnapshotError(str(path), lineno, f"not UTF-8 text (byte {exc.start})") from exc
    return translate_newlines(text)


def read_state_text(path: Path) -> str:
    """The text of one state-directory file, read once.

    Line endings are translated by :func:`translate_newlines`, and every
    reader splits the text at ``"\\n"``, never with
    :meth:`str.splitlines`. Bytes that are not UTF-8 are a
    :class:`SnapshotError` on the line holding the first bad byte.
    """
    return _decode_state(path, Path(path).read_bytes())


def read_log(state_dir: Path, kinds: Collection[str] | None = None) -> list[LogRecord]:
    """The records of ``events.log``, parsed: every record, or with
    *kinds* only the records of those kinds.

    Every line is checked either way, so both reads fail alike: a line of
    another kind is skipped only when it is in the shape
    :meth:`LogRecord.parse` accepts as it stands (``_PLAIN_LOG_LINE``, the
    test :func:`_scan_id_counters` uses), and any other line is parsed,
    so a bad line of any kind is the same :class:`SnapshotError`, with
    the same line number and message.

    The log is read a line at a time, its line breaks translated as
    :func:`read_state_text` translates them, so no copy of the whole file
    is held beside the records. Bytes that are not UTF-8 are the
    :class:`SnapshotError` :func:`read_state_text` raises.
    """
    path = Path(state_dir) / EVENTS_LOG
    if not path.exists():
        return []
    records = []
    plain = _PLAIN_LOG_LINE.fullmatch
    try:
        with open(path, encoding="utf-8", newline=None) as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                if line[-1] == "\n":
                    line = line[:-1]
                if kinds is not None:
                    fields = line.split("|", 3)  # event id, tick, kind, rest
                    if len(fields) == 4 and fields[2] not in kinds and plain(line):
                        continue
                try:
                    rec = LogRecord.parse(line)
                except Exception as exc:
                    raise SnapshotError(str(path), lineno, str(exc)) from exc
                if kinds is None or rec.kind in kinds:
                    records.append(rec)
    except UnicodeDecodeError:
        read_state_text(path)  # raises, naming the line of the bad byte
        raise
    return records


def _fields(line: str, count: int) -> list[str]:
    """*line* split at ``|``; ValueError unless it has *count* fields."""
    parts = line.split("|")
    if len(parts) != count:
        raise ValueError(f"expected {count} fields, got {len(parts)}")
    return parts


# The actor ids in a parsed line are interned: a few ids recur on every
# line, and each replica of a registry parses its own copy of a line.


def _subscription(line: str) -> Subscription:
    """The subscription of one ``subscriptions.snap`` line; ValueError
    naming the fault when the line holds none."""
    number, user, tsp, enum_flag, phone_flag, serving, token = _fields(line, 7)
    if enum_flag not in ("0", "1") or phone_flag not in ("0", "1"):
        raise ValueError("flags must be 0 or 1")
    return Subscription(
        number, intern(user), intern(tsp), token, phone_flag == "1", enum_flag == "1",
        intern(serving) or None,
    )


def _delegation(line: str) -> Delegation:
    """The delegation of one ``registry.snap`` line; ValueError naming the
    fault when the line holds none."""
    number, registrar, owner, serial = _fields(line, 4)
    if not _is_decimal(serial):
        raise ValueError(f"bad serial {serial!r}")
    return Delegation(number, intern(registrar), intern(owner), int(serial))


def _deferred(topology: Topology, path: Path, parse: Callable[[str], V]) -> Callable[[str], V]:
    """*parse* as the parse function of a store holding text from *path*:
    any failure is a :class:`SnapshotError` naming the file, and from then
    on the topology's saves write no checkpoint entry for the file, so
    the next load parses every line and names the bad one."""

    def read(text: str) -> V:
        try:
            return parse(text)
        except Exception as exc:
            topology.snapshot_seen[1][path.name] = ()
            raise SnapshotError(str(path), None, str(exc)) from exc

    return read


def _settled(
    store: object, values: dict[str, V | str], parse: Callable[[str], V] | None = None
) -> RecordStore[V] | dict[str, V]:
    """The map of *values*, stored text for *parse*: *store* itself when a
    load left it pending, so that whatever holds it sees the values; else
    a new store, or, with no *parse*, the dict *values*."""
    if store.__class__ is PendingStore:
        store.settle(values, parse)
        return store
    return values if parse is None else RecordStore(values, parse)


def _load_subscriptions(topology: Topology, path: Path, text: str, trusted: bool) -> None:
    """Fill the directory's subscriptions from ``subscriptions.snap``.

    Blank lines are skipped. When *trusted*, each line is kept as its
    number's text; otherwise each is parsed now, and a bad line is a
    :class:`SnapshotError` naming it.
    """
    values: dict[str, Subscription | str] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                values[line.partition("|")[0]] = line if trusted else _subscription(line)
            except ValueError as exc:
                raise SnapshotError(str(path), lineno, str(exc)) from None
    directory = topology.directory
    directory.subscriptions = _settled(
        directory.subscriptions, values, _deferred(topology, path, _subscription)
    )


def _load_delegations(topology: Topology, path: Path, text: str, trusted: bool) -> None:
    """Fill every registry's delegations from ``registry.snap``, whose
    lines are each owner's own delegations: a line goes to the states of
    its owner and of the owner's peers.

    Blank lines are skipped, and a line without four fields or naming no
    configured owner is a :class:`SnapshotError` naming it. When
    *trusted*, each state keeps the line as its number's text; otherwise
    the line is parsed now, and a bad serial is such an error too. A
    number that reaches one state twice (two owners claim it) is parsed
    there, both lines, and the state observes each line's serial in turn,
    as if it had applied the lines. The states are filled once the last
    line is read, so a walk that fails changes none of them.
    """
    registries = topology.registries
    values: dict[str, dict[str, Delegation | str]] = {reg_id: {} for reg_id in registries}
    observed: dict[str, dict[str, list[int]]] = {reg_id: {} for reg_id in registries}
    # Owner id -> what the states its lines go to hold.
    replicas = {
        reg_id: [(values[r], observed[r]) for r in (reg_id, *actor.state.peers)]
        for reg_id, actor in registries.items()
    }
    for lineno, line in enumerate(text.split("\n"), 1):
        try:
            number, _, owner, _ = line.split("|")
            value = line if trusted else _delegation(line)
            for held, serials in replicas[owner]:
                if number in held:  # two owners claim the number
                    previous = held[number]
                    if isinstance(previous, str):
                        previous = _earlier_delegation(path, text, previous)
                    value = _delegation(line)
                    serials.setdefault(number, [previous.serial]).append(value.serial)
                held[number] = value
        except ValueError as exc:  # not four fields, or a bad serial
            if not line.strip():
                continue
            count = line.count("|") + 1
            message = str(exc) if count == 4 else f"expected 4 fields, got {count}"
            raise SnapshotError(str(path), lineno, message) from None
        except KeyError:
            raise SnapshotError(str(path), lineno, f"unknown registry {owner!r}") from None
    read = _deferred(topology, path, _delegation)
    for reg_id, actor in registries.items():
        state = actor.state
        state.observed_serials = _settled(state.observed_serials, observed[reg_id])
        state.delegations = _settled(state.delegations, values[reg_id], read)


def _earlier_delegation(path: Path, text: str, line: str) -> Delegation:
    """Parse a kept line that a later line claims again; errors name it."""
    try:
        return _delegation(line)
    except ValueError as exc:
        raise SnapshotError(str(path), text.split("\n").index(line) + 1, str(exc)) from None


def _parse_grant(rest: str) -> AuthorizationGrant:
    """The grant of a ``grant|`` line's *rest*; ValueError or RegistrarError
    (rights empty or unknown) when it is not one."""
    parts = rest.split("|")
    if len(parts) != 5:
        raise ValueError("grant needs 5 fields")
    grant_id, grantor, grantee, rights, scope = parts
    return AuthorizationGrant(
        grant_id=grant_id,
        grantor=grantor,
        grantee=grantee,
        rights=frozenset(r for r in rights.split(",") if r),
        scope=ServiceSelector(scope),
    )


def _grant_number(grant: AuthorizationGrant) -> int:
    match = _GRANT_ID_RE.match(grant.grant_id)
    return int(match.group(1)) if match else 0


def _parse_records(text: str) -> list[NaptrRecord]:
    """The records of one number's ``record|`` lines."""
    return [parse_stored_line(line[len(_RECORD_TAG):]) for line in text.split("\n")]


def _load_registrar(
    topology: Topology, actor: RegistrarActor, path: Path, text: str, trusted: bool
) -> None:
    """Fill one registrar's store and grants from its snapshot *text*, and
    raise the topology's grant counter to its largest grant number.

    The file is read a line at a time (:func:`_lines`), each line freed
    once it is read. Blank lines are skipped; a number line opens that
    number, even one that opened before, and each grant or record line
    that follows belongs to it. Grant lines are parsed as they are read.
    When *trusted*, each number's ``record|`` lines are joined, in file
    order, as its text; otherwise each is parsed as it is read. An
    untagged line, a grant or record line before any number line, and
    (parsed) a bad line are a :class:`SnapshotError` naming the line.
    """
    values: dict[str, list | str] = {}
    grants: dict[str, list[AuthorizationGrant]] = {}
    grant_n = 0
    number: str | None = None
    held: list = []  # the open number's records, or its record lines when trusted
    for lineno, line in enumerate(_lines(text), 1):
        if trusted and line.startswith(_RECORD_TAG) and number is not None:
            held.append(line)
            continue
        tag, _, rest = line.partition("|")
        try:
            if tag == "number":
                if trusted and held:
                    values[number] = "\n".join(held)
                held = values.setdefault(rest, [])
                if isinstance(held, str):  # trusted, a number in two blocks
                    held = [held]
                number = rest
            elif tag not in ("record", "grant"):
                if line.strip():
                    raise ValueError(f"unknown tag {tag!r}")
            elif number is None:
                raise ValueError(f"{tag} before number line")
            elif tag == "grant":
                grant = _parse_grant(rest)
                grants.setdefault(number, []).append(grant)
                grant_n = max(grant_n, _grant_number(grant))
            else:
                held.append(line if trusted else parse_stored_line(rest))
        except Exception as exc:
            raise SnapshotError(str(path), lineno, str(exc)) from exc
    if trusted and held:
        values[number] = "\n".join(held)
    actor.store = _settled(actor.store, values, _deferred(topology, path, _parse_records))
    actor.grants = _settled(actor.grants, grants)
    topology._grant_n = max(topology._grant_n, grant_n)


def _lines(text: str) -> Iterator[str]:
    """The lines ``text.split("\\n")`` gives, split a piece of about
    _SPLIT_CHARS characters at a time, so that no list of every line is
    held beside the text."""

    def pieces() -> Iterator[list[str]]:
        start = 0
        while (end := text.find("\n", start + _SPLIT_CHARS)) >= 0:
            yield text[start:end].split("\n")
            start = end + 1
        yield text[start:].split("\n")

    return chain.from_iterable(pieces())


def _scan_id_counters(
    text: str, path: Path, counters: tuple[int, ...]
) -> tuple[int, int, int]:
    """The largest event, transfer and grant numbers in the log *text*, or
    in *counters* where those are larger.

    A line in the plain shape gives its event id without being parsed;
    any other line, and any line that may name a transfer or a grant,
    goes through :meth:`LogRecord.parse`, so a bad line fails as
    :func:`read_log` fails on it. Grant ids count from ``grant`` records
    only, failed ones included, since a failed grant step has used its id.
    """
    event_n, transfer_n, grant_n = counters
    plain = _PLAIN_LOG_LINE.fullmatch
    for lineno, line in enumerate(text.split("\n"), 1):
        m = plain(line)
        if m is not None and "transfer=" not in line and "grant=" not in line:
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
            if rec.kind == "grant":
                match = _GRANT_ID_RE.match(rec.detail.get("grant", ""))
                if match:
                    grant_n = max(grant_n, int(match.group(1)))
            match = _ID_RE.match(rec.event_id)
            digits = match.group(1) if match else None
        if digits is not None:
            event_n = max(event_n, int(digits))
    return event_n, transfer_n, grant_n


def _log_entry(
    path: Path, known: tuple[int, ...] | None, vouched: bool = False
) -> tuple[int, ...] | None:
    """The checkpoint entry of ``events.log`` as it is now: its length,
    CRC-32 and id counters (see :func:`read_checkpoint`), or None when
    there is no log. A line that does not parse is a :class:`SnapshotError`
    numbered from the start of the file.

    When the log opens with the prefix *known*, an earlier entry,
    describes (its CRC-32 taken in chunks), and that prefix ends at a line
    break, only the lines after it are read and scanned; otherwise the
    whole log is. A *vouched* prefix was checked by this process's load
    or save, and the log has only been appended to since: its CRC-32 is
    taken as the entry's, and only its last byte is read. A log shorter
    than it is scanned whole.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    with handle:
        length = crc = 0
        counters: tuple[int, ...] = (0, 0, 0)
        if known and len(known) == 5:
            # chunk ends up as the prefix's last piece, or b"" when the log
            # is shorter than the prefix.
            if vouched:
                handle.seek(max(known[0] - 1, 0))
                chunk, crc = handle.read(1), known[1]
            else:
                left, chunk = known[0], b""
                while left > 0 and (chunk := handle.read(min(_CRC_CHUNK, left))):
                    crc = zlib.crc32(chunk, crc)
                    left -= len(chunk)
            if crc == known[1] and chunk[-1:] in (b"\n", b"\r"):
                length, counters = known[0], known[2:]
            else:
                crc = 0
        handle.seek(length)
        tail = handle.read()
    try:
        counters = _scan_id_counters(_decode_state(path, tail), path, counters)
    except SnapshotError:
        if not length:
            raise
        return _log_entry(path, None)  # the same error, its line counted from the start
    return (length + len(tail), zlib.crc32(tail, crc), *counters)


def load_state(topology: Topology, state_dir: Path) -> None:
    """Apply snapshots onto a freshly built topology.

    Each snapshot file is read and checked against its checkpoint entry
    here. A file that fails its entry is walked here; the walk of one
    that matches waits in :class:`~enumstack.registrar.PendingStore`
    stores for the first use of anything it fills.
    """
    state_dir = Path(state_dir)
    checkpoint = read_checkpoint(state_dir)
    seen: dict[str, tuple[int, ...]] = {}

    def read(path: Path, walk: Callable[[Path, str, bool], None]) -> Callable[[], None] | None:
        """Walk the file at *path* now, unless it matches its checkpoint
        entry: then return its walk, for the first use of what it fills."""
        data = path.read_bytes()
        text = _decode_state(path, data)
        if checkpoint.get(path.name) != (len(data), zlib.crc32(data)):
            walk(path, text, False)
            return None
        seen[path.name] = checkpoint[path.name]

        def first_use() -> None:
            try:
                walk(path, text, True)
            except SnapshotError:  # as a number's failed parse (_deferred)
                topology.snapshot_seen[1][path.name] = ()
                raise

        return first_use

    path = state_dir / SUBSCRIPTIONS_SNAP
    if path.exists():
        walk = read(path, partial(_load_subscriptions, topology))
        if walk:
            topology.directory.subscriptions = PendingStore(walk)
    path = state_dir / REGISTRY_SNAP
    if path.exists():
        walk = read(path, partial(_load_delegations, topology))
        if walk:
            for actor in topology.registries.values():
                actor.state.delegations = PendingStore(walk)
                actor.state.observed_serials = PendingStore(walk)
    for registrar_id, actor in topology.registrars.items():
        path = state_dir / f"registrar-{registrar_id}.snap"
        if path.exists():
            walk = read(path, partial(_load_registrar, topology, actor))
            if walk:
                actor.store = PendingStore(walk)
                actor.grants = PendingStore(walk)
    log = _log_entry(state_dir / EVENTS_LOG, checkpoint.get(EVENTS_LOG))
    if log is not None:
        topology._event_n = max(topology._event_n, log[2])
        topology._transfer_n = max(topology._transfer_n, log[3])
        topology._grant_n = max(topology._grant_n, log[4])
        seen[EVENTS_LOG] = log
    topology.completed = True
    topology.snapshot_seen = (state_dir.resolve(), seen)

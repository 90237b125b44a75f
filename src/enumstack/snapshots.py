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
the lines above it. A load trusts a file whose bytes match its entry and
validates any other file in full, as if there were no checkpoint:

- a trusted ``registrar-<id>.snap`` keeps each number's record lines as
  unparsed text in a :class:`~enumstack.registrar.LazyRecordStore` until
  something reads that number (the save wrote them from records that had
  passed every check, so they are not checked again), and a trusted
  ``events.log`` gives the id counters without a line scan;
- ``registry.snap`` and ``subscriptions.snap`` are parsed the same way
  either way;
- a hand-edited file no longer matches, so the next load validates it
  in full, and the next save checkpoints it again;
- a missing or corrupt checkpoint, or one from another version, is
  ignored and never an error: every file is then validated.

A persisting call first appends its log lines, then :func:`save_state`
rewrites each snapshot file whose content changed, reusing the text of
every number nothing read, and writes the checkpoint last. The log comes
first so that the checkpoint describes it as the call leaves it. Every
file is written to a temporary file and renamed into place, so a killed
process never leaves a half-written file visible; a file rewritten after
the last checkpoint no longer matches it and is validated on the next
load. A lock on ``.lock`` that dies with its holder serializes concurrent
invocations against one directory. :func:`read_log` parses the log in
full for reports and audits.
"""

from __future__ import annotations

import os
import re
import tempfile
import zlib
from pathlib import Path
from typing import Iterable, Iterator

try:
    import fcntl
except ImportError:  # not a POSIX host: the lock file's existence is the lock
    fcntl = None

from .errors import LockHeld, RegistrarError, SnapshotError
from .naptr import NaptrRecord, ServiceSelector, in_stored_shape, parse_verified_line
from .registrar import (
    AuthorizationGrant,
    LazyRecordStore,
    RegistrarActor,
    Subscription,
    parse_stored_line,
    render_stored_line,
    translate_newlines,
)
from .registry import Delegation, RegistryState
from .scenarios import LogRecord, Topology

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
_PIECE_LINES = 256

_ID_RE = re.compile(r"^[ex](\d+)$")
_GRANT_ID_RE = re.compile(r"^g(\d+)$")
# A log line that LogRecord.parse accepts as it stands: an event id (its
# number captured when it is an e<n> or x<n> id), an ASCII-digit tick, a
# kind, a status and a detail of key=value chunks.
_PLAIN_LOG_LINE = re.compile(
    r"(?:[ex](\d+)|[^|]*)\|t[0-9]+\|[^|]*\|[^|]*\|(?:[^;=]*=[^;]*(?:;[^;=]*=[^;]*)*)?"
)


def _atomic_write(path: Path, pieces: list[bytes]) -> None:
    handle = tempfile.NamedTemporaryFile(
        "wb",
        dir=path.parent,
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        handle.writelines(pieces)
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()
    os.replace(handle.name, path)


def _write_if_changed(
    path: Path, pieces: list[bytes], length: int, changed: bool = False
) -> None:
    """Write *pieces*, *length* bytes in all, unless *path* already holds
    exactly these bytes; with *changed*, the caller knows it does not."""
    if not changed:
        try:
            if os.stat(path).st_size == length and path.read_bytes() == b"".join(pieces):
                return
        except OSError:
            pass
    _atomic_write(path, pieces)


def _encode_lines(lines: Iterable[str]) -> list[bytes]:
    """*lines*, each ended by a line break, as UTF-8 in pieces of at most
    _PIECE_LINES lines, so a file is rendered without one copy of all of
    it as text and another as bytes."""
    pieces: list[bytes] = []
    batch: list[str] = []
    for line in lines:
        batch.append(line)
        if len(batch) == _PIECE_LINES:
            batch.append("")
            pieces.append("\n".join(batch).encode("utf-8"))
            batch.clear()
    if batch:
        batch.append("")
        pieces.append("\n".join(batch).encode("utf-8"))
    return pieces


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


class _Seen:
    """What one topology last read from or wrote to one state directory:
    each file's (length, CRC-32), and the checkpoint entry of
    ``events.log`` (see :func:`read_checkpoint`)."""

    __slots__ = ("state_dir", "files", "log")

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = state_dir
        self.files: dict[str, tuple[int, int]] = {}
        self.log: tuple[int, ...] | None = None


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
        lines.append("|".join([name, *map(str, entries[name])]))
    body = ("\n".join(lines) + "\n").encode("utf-8")
    return body + b"crc|%d\n" % zlib.crc32(body)


def _registry_lines(topology: Topology) -> Iterator[str]:
    for actor in topology.registries.values():
        for number in sorted(actor.state.delegations):
            d = actor.state.delegations[number]
            if d.owning_registry == actor.state.id:
                yield f"{d.number}|{d.registrar}|{d.owning_registry}|{d.serial}"


def _registrar_pieces(actor: RegistrarActor) -> tuple[list[bytes], bool]:
    """One registrar's snapshot (see :func:`_encode_lines`), and whether
    every record line in it is in the shape :func:`parse_verified_line`
    takes (only then may the file be checkpointed). A number nothing has
    read keeps its text."""
    store = actor.store
    verifiable = True

    def lines() -> Iterator[str]:
        nonlocal verifiable
        for number in sorted(set(store) | set(actor.grants)):
            yield f"{_NUMBER_TAG}{number}"
            for grant in actor.grants.get(number, ()):
                rights = ",".join(sorted(grant.rights))
                yield (
                    f"{_GRANT_TAG}{grant.grant_id}|{grant.grantor}|{grant.grantee}|"
                    f"{rights}|{grant.scope.service}"
                )
            text = store.unread_text(number)
            if text is not None:
                yield text
                continue
            for rec in store.get(number, ()):
                line = render_stored_line(rec)
                verifiable = verifiable and in_stored_shape(line)
                yield _RECORD_TAG + line

    pieces = _encode_lines(lines())
    return pieces, verifiable


def _subscriptions_lines(topology: Topology) -> Iterator[str]:
    for number in sorted(topology.directory.subscriptions):
        sub = topology.directory.subscriptions[number]
        yield (
            f"{number}|{sub.user}|{sub.tsp}|{int(sub.enum_active)}|"
            f"{int(sub.phone_active)}|{sub.serving_registrar or ''}|{sub.token}"
        )


def _log_entry(path: Path, seen: tuple[int, ...] | None) -> tuple[int, ...] | None:
    """The checkpoint entry of ``events.log`` as it is now, or None when it
    is missing or a line in it does not parse.

    When *seen* describes a prefix of the log that ends at a line break,
    only the lines appended after it are read and scanned; otherwise the
    whole log is.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    with handle:
        length, crc, counters = 0, 0, (0, 0, 0)
        if seen is not None and 0 < seen[0] <= os.fstat(handle.fileno()).st_size:
            handle.seek(seen[0] - 1)
            if handle.read(1) in (b"\n", b"\r"):
                length, crc, counters = seen[0], seen[1], seen[2:]
        handle.seek(length)
        tail = handle.read()
    try:
        counters = _scan_id_counters(_decode_state(path, tail), path, counters)
    except SnapshotError:
        return None
    return (length + len(tail), zlib.crc32(tail, crc), *counters)


def save_state(topology: Topology, state_dir: Path, scenario_text: str | None = None) -> None:
    """Write every snapshot file whose content changed, then the checkpoint.

    Call it after :func:`append_log`, so that the checkpoint covers the
    log as it stands.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    where = state_dir.resolve()
    seen = topology.snapshot_seen
    if seen is None or seen.state_dir != where:
        seen = _Seen(where)
    written = _Seen(where)
    entries: dict[str, tuple[int, ...]] = {}

    def write(name: str, pieces: list[bytes], verifiable: bool = True) -> None:
        crc = 0
        for piece in pieces:
            crc = zlib.crc32(piece, crc)
        mark = (sum(map(len, pieces)), crc)
        changed = seen.files.get(name) not in (None, mark)
        _write_if_changed(state_dir / name, pieces, mark[0], changed)
        written.files[name] = mark
        if verifiable:
            entries[name] = mark

    write(REGISTRY_SNAP, _encode_lines(_registry_lines(topology)))
    for registrar_id, actor in topology.registrars.items():
        write(f"registrar-{registrar_id}.snap", *_registrar_pieces(actor))
    write(SUBSCRIPTIONS_SNAP, _encode_lines(_subscriptions_lines(topology)))
    if scenario_text is not None:
        write(SCENARIO_FILE, [scenario_text.encode("utf-8")], verifiable=False)
    written.log = _log_entry(state_dir / EVENTS_LOG, seen.log)
    if written.log is not None:
        entries[EVENTS_LOG] = written.log
    checkpoint = _checkpoint_bytes(entries)
    _write_if_changed(state_dir / CHECKPOINT, [checkpoint], len(checkpoint))
    topology.snapshot_seen = written


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


def read_log(state_dir: Path) -> list[LogRecord]:
    """Every record of ``events.log``, parsed.

    The log is read a line at a time, its line breaks translated as
    :func:`read_state_text` translates them, so no copy of the whole file
    is held beside the records. Bytes that are not UTF-8 are the
    :class:`SnapshotError` :func:`read_state_text` raises.
    """
    path = Path(state_dir) / EVENTS_LOG
    if not path.exists():
        return []
    records = []
    try:
        with open(path, encoding="utf-8", newline=None) as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                if line[-1] == "\n":
                    line = line[:-1]
                try:
                    records.append(LogRecord.parse(line))
                except Exception as exc:
                    raise SnapshotError(str(path), lineno, str(exc)) from exc
    except UnicodeDecodeError:
        read_state_text(path)  # raises, naming the line of the bad byte
        raise
    return records


def _load_subscriptions(topology: Topology, path: Path, text: str) -> None:
    subscriptions = topology.directory.subscriptions
    for lineno, line in enumerate(text.split("\n"), 1):
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


def _load_delegations(topology: Topology, path: Path, text: str) -> None:
    # Owner id -> the states of the owner and its peers, in that order.
    replicas: dict[str, list[RegistryState]] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
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


def _parse_grant(rest: str, number: str) -> AuthorizationGrant:
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
        number=number,
    )


def _grant_number(grant: AuthorizationGrant) -> int:
    match = _GRANT_ID_RE.match(grant.grant_id)
    return int(match.group(1)) if match else 0


def _load_registrar(actor: RegistrarActor, path: Path, text: str) -> int:
    """Fill one registrar's store and grants, checking every line; returns
    its largest grant number."""
    max_grant = 0
    current: str | None = None
    records: list[NaptrRecord] = []
    for lineno, line in enumerate(text.split("\n"), 1):
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
            try:
                grant = _parse_grant(rest, current)
            except (ValueError, RegistrarError) as exc:
                raise SnapshotError(str(path), lineno, str(exc)) from exc
            actor.grants.setdefault(current, []).append(grant)
            max_grant = max(max_grant, _grant_number(grant))
        else:
            raise SnapshotError(str(path), lineno, f"unknown tag {tag!r}")
    return max_grant


def _parse_unread(text: str) -> list[NaptrRecord]:
    """The records of one number's ``record|`` lines in a trusted file."""
    return [parse_verified_line(line[len(_RECORD_TAG):]) for line in text.split("\n")]


def _load_unread_registrar(actor: RegistrarActor, text: str) -> int | None:
    """Fill one registrar from a file that matched the checkpoint, leaving
    each number's record lines unread; returns its largest grant number.

    Returns None, having changed nothing, when the text is not laid out
    as :func:`save_state` writes it; the caller then validates it.
    """
    unread: dict[str, str] = {}
    empty: list[str] = []
    grants: list[AuthorizationGrant] = []
    if text:
        if not text.startswith(_NUMBER_TAG) or not text.endswith("\n"):
            return None
        blocks = text.split("\n" + _NUMBER_TAG)
        blocks[0] = blocks[0][len(_NUMBER_TAG):]
        blocks[-1] = blocks[-1][:-1]
        # Taken from the end, each block is freed as its body is copied
        # out, so the blocks and the bodies are not all held at once.
        blocks.reverse()
        while blocks:
            number, _, body = blocks.pop().partition("\n")
            while body.startswith(_GRANT_TAG):
                line, _, body = body.partition("\n")
                try:
                    grants.append(_parse_grant(line[len(_GRANT_TAG):], number))
                except (ValueError, RegistrarError):
                    return None
            if not body:
                empty.append(number)
            elif body.startswith(_RECORD_TAG) and body.count("\n") == body.count(
                "\n" + _RECORD_TAG
            ):
                unread[number] = body
            else:
                return None
    actor.store = LazyRecordStore(unread, _parse_unread)
    for number in empty:
        actor.store[number] = []
    for grant in grants:
        actor.grants.setdefault(grant.number, []).append(grant)
    return max(map(_grant_number, grants), default=0)


def _scan_id_counters(
    text: str, path: Path, counters: tuple[int, ...] = (0, 0, 0)
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


def _raise_counters(topology: Topology, counters: tuple[int, ...]) -> None:
    event_n, transfer_n, grant_n = counters
    topology._event_n = max(topology._event_n, event_n)
    topology._transfer_n = max(topology._transfer_n, transfer_n)
    topology._grant_n = max(topology._grant_n, grant_n)


def _restore_id_counters(topology: Topology, path: Path) -> tuple[int, ...]:
    """Raise the event, transfer and grant counters past every id in the
    log, scanning all of it; returns the log's checkpoint entry."""
    data = path.read_bytes()
    counters = _scan_id_counters(_decode_state(path, data), path)
    _raise_counters(topology, counters)
    return (len(data), zlib.crc32(data), *counters)


def _log_matches(path: Path, entry: tuple[int, ...] | None) -> bool:
    """Whether the log's length and CRC-32 are those of *entry*; the log
    is read in chunks, never whole."""
    if entry is None or len(entry) != 5:
        return False
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size != entry[0]:
            return False
        crc = 0
        while chunk := handle.read(_CRC_CHUNK):
            crc = zlib.crc32(chunk, crc)
    return crc == entry[1]


def load_state(topology: Topology, state_dir: Path) -> None:
    """Apply snapshots onto a freshly built topology."""
    state_dir = Path(state_dir)
    checkpoint = read_checkpoint(state_dir)
    seen = _Seen(state_dir.resolve())

    def read(path: Path) -> tuple[str, bool]:
        """The file's text, and whether it matches its checkpoint entry."""
        data = path.read_bytes()
        mark = seen.files[path.name] = (len(data), zlib.crc32(data))
        return _decode_state(path, data), checkpoint.get(path.name) == mark

    path = state_dir / SUBSCRIPTIONS_SNAP
    if path.exists():
        _load_subscriptions(topology, path, read(path)[0])
    path = state_dir / REGISTRY_SNAP
    if path.exists():
        _load_delegations(topology, path, read(path)[0])
    max_grant = 0
    for registrar_id, actor in topology.registrars.items():
        path = state_dir / f"registrar-{registrar_id}.snap"
        if path.exists():
            text, trusted = read(path)
            grant_n = _load_unread_registrar(actor, text) if trusted and not actor.store else None
            if grant_n is None:
                grant_n = _load_registrar(actor, path, text)
            max_grant = max(max_grant, grant_n)
    topology._grant_n = max(topology._grant_n, max_grant)
    path = state_dir / EVENTS_LOG
    if path.exists():
        entry = checkpoint.get(EVENTS_LOG)
        if _log_matches(path, entry):
            _raise_counters(topology, entry[2:])
            seen.log = entry
        else:
            seen.log = _restore_id_counters(topology, path)
    topology.completed = True
    topology.snapshot_seen = seen

"""Seeded input generators.

Everything the package receives is made here from the workload seed. The
generators also keep their own model of what they provisioned, so the
workloads can check answers without asking the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

USERS = ("alice", "bob", "carol")
REGISTRARS = ("reg1", "reg2")
SERVICES = ("E2U+sip", "E2U+tel", "E2U+mailto", "E2U+web:http", "E2U+h323", "E2U+pres")
RESTRICTED_SHARE = 0.2


def spell(digits: str, rng: random.Random, spaces: bool = True) -> str:
    """A free-form spelling of ``+<digits>`` (a ``+1`` NANP or ``+44`` number)."""
    cc = "44" if digits.startswith("44") else "1"
    rest = digits[len(cc):]
    area, mid, tail = rest[:3], rest[3:6], rest[6:]
    forms = [
        f"+{cc}{rest}",
        f"+{cc}-{area}-{mid}-{tail}",
        f"+{cc}.{area}.{mid}.{tail}",
        f"+{cc}({area}){mid}-{tail}",
    ]
    if spaces:
        forms += [f"+{cc} ({area}) {mid}-{tail}", f" +{cc} {area} {mid} {tail} "]
    return rng.choice(forms)


@dataclass(frozen=True)
class Record:
    """One provisioned record and the URI it must rewrite to (None if non-terminal)."""

    order: int
    preference: int
    service: str
    line: str
    uri: str | None
    restricted: bool


def make_record(rng: random.Random, digits: str, service: str, order: int, pref: int) -> Record:
    restricted = rng.random() < RESTRICTED_SHARE
    host = f"h{rng.randrange(100)}.example.net"
    kind = rng.randrange(20)
    if kind == 0:
        # Non-terminal: a replacement domain that is never followed.
        body = f'{order} {pref} "" "{service}" "" next.{host}'
        uri = None
    elif kind <= 5:
        body = f'{order} {pref} "u" "{service}" "!^\\+1(\\d{{3}})(\\d+)$!tel:+1-\\1-\\2!" .'
        uri = f"tel:+1-{digits[1:4]}-{digits[4:]}"
    elif kind <= 9:
        # ';' and '=' exercise the wire format's escaping.
        body = f'{order} {pref} "u" "{service}" "!^.*$!sip:u{digits[-4:]}@{host};transport=tcp!" .'
        uri = f"sip:u{digits[-4:]}@{host};transport=tcp"
    elif kind <= 12:
        body = f'{order} {pref} "u" "{service}" "!^(.*)$!mailto:\\1@{host}!" .'
        uri = f"mailto:+{digits}@{host}"
    else:
        body = f'{order} {pref} "u" "{service}" "!^.*$!https://{host}/u/{digits}!" .'
        uri = f"https://{host}/u/{digits}"
    line = ("restricted " if restricted else "public ") + body
    return Record(order, pref, service, line, uri, restricted)


def make_record_set(rng: random.Random, digits: str) -> list[Record]:
    """1-6 records over the service list, with unique merge keys so the
    registrar keeps them in provisioning order."""
    records: list[Record] = []
    keys: set[tuple[str, int, int]] = set()
    for _ in range(rng.randint(1, 6)):
        while True:
            service = rng.choice(SERVICES)
            order = rng.choice((100, 100, 101, 102, 110))
            pref = rng.choice((10, 10, 20))
            key = (service.lower(), order, pref)
            if key not in keys:
                keys.add(key)
                break
        records.append(make_record(rng, digits, service, order, pref))
    return records


def expected_uris(records: list[Record], service: str, sees_restricted: bool) -> list[str]:
    """Service filter, visibility, stable (order, preference) sort, rewrite."""
    chosen = [
        r for r in records
        if (service == "*" or r.service.lower() == service.lower())
        and (sees_restricted or not r.restricted)
    ]
    chosen.sort(key=lambda r: (r.order, r.preference))
    return [r.uri for r in chosen if r.uri is not None]


def draw_numbers(rng: random.Random, n: int, prefix: str = "1") -> list[str]:
    """Distinct ten-digit national numbers under *prefix* (no leading 0/1)."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        digits = prefix + str(rng.randrange(2_000_000_000, 10_000_000_000))
        if digits not in seen:
            seen.add(digits)
            out.append(digits)
    return out


@dataclass
class Population:
    """Numbers for a model-4 read-path state: who owns them, where they are
    served and what they hold."""

    numbers: list[str]
    users: dict[str, str]
    registrar: dict[str, str]
    records: dict[str, list[Record]]
    unsubscribed: list[str]
    foreign: list[str]


def make_population(seed: int, n: int) -> Population:
    rng = random.Random(f"population-{seed}")
    numbers = draw_numbers(rng, n + max(1, n // 20))
    subscribed, unsubscribed = numbers[:n], numbers[n:]
    return Population(
        numbers=subscribed,
        users={d: rng.choice(USERS) for d in numbers},
        registrar={d: rng.choice(REGISTRARS) for d in subscribed},
        records={d: make_record_set(rng, d) for d in subscribed},
        unsubscribed=unsubscribed,
        foreign=draw_numbers(rng, max(1, n // 20), prefix="44"),
    )


@dataclass(frozen=True)
class Lookup:
    raw: str
    service: str
    client: str
    uris: tuple[str, ...] | None  # None: a miss
    miss_error: str = ""


def make_lookups(seed: int, pop: Population, count: int) -> list[Lookup]:
    """Uniformly drawn lookups: ~5% misses, mostly single-service queries."""
    rng = random.Random(f"lookups-{seed}")
    out: list[Lookup] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.025:
            digits = rng.choice(pop.unsubscribed)
            out.append(Lookup(spell(digits, rng), "*", "resolver", None, "NoDelegation"))
            continue
        if roll < 0.05:
            digits = rng.choice(pop.foreign)
            out.append(Lookup(spell(digits, rng), "E2U+sip", "resolver", None,
                              "UnknownCountryCode"))
            continue
        digits = rng.choice(pop.numbers)
        records = pop.records[digits]
        pick = rng.random()
        if pick < 0.15:
            service = "*"
        elif pick < 0.30:
            service = rng.choice(SERVICES)
        else:
            service = rng.choice(records).service
        if rng.random() < 0.1:
            service = service.lower()  # service matching ignores case
        who = rng.random()
        owner = pop.users[digits]
        if who < 0.15:
            client = owner
        elif who < 0.25:
            client = rng.choice([u for u in USERS if u != owner])
        else:
            client = "resolver"
        uris = expected_uris(records, service, sees_restricted=client == owner)
        out.append(Lookup(spell(digits, rng), service, client, tuple(uris)))
    return out


# ---------------------------------------------------------------- churn script


@dataclass
class _NumberState:
    user: str
    serving: str | None
    phone: bool = True
    grants: list[str] = field(default_factory=list)
    busy: bool = False  # a paced transfer or a disconnect is pending


@dataclass
class _Paced:
    transfer_id: str
    digits: str
    old: str
    to: str
    steps_left: int = 4
    dispute_after: int | None = None  # steps done before a dispute


_STEP_WEIGHTS = (
    ("provision", 40),
    ("grant", 10),
    ("revoke", 5),
    ("get", 15),
    ("resolve", 10),
    ("transfer", 5),
    ("transfer_begin", 5),
    ("disconnect", 5),
    ("offline", 2),
    ("advance", 3),
)


class ChurnScript:
    """Generate a provision/transfer/disconnect churn script for a model-6
    topology whose numbers are assigned and subscribed.

    Transfer ids are numbered the way ``Topology`` numbers them: every
    ``transfer`` and ``transfer_begin`` step whose number parses takes the
    next ``x<n>``, including steps the stack then rejects (for example
    with ``SameRegistrar``). Every generated number parses, so the count
    is simply the number of such steps.
    """

    def __init__(self, seed: int, owners: dict[str, str], serving: dict[str, str]):
        self.rng = random.Random(f"churn-{seed}")
        self.state = {d: _NumberState(owners[d], serving[d]) for d in owners}
        self.digits = list(owners)
        self.transfer_n = 0
        self.grant_n = 0
        self.paced: list[_Paced] = []
        self.resubscribe: list[tuple[int, str, bool]] = []  # (due step, digits, reassign)
        self.lines: list[str] = []
        kinds, weights = zip(*_STEP_WEIGHTS)
        self._kinds, self._weights = list(kinds), list(weights)

    # ------------------------------------------------------------ helpers

    def _num(self, digits: str) -> str:
        return spell(digits, self.rng, spaces=False)

    def _idle_number(self) -> str:
        for _ in range(50):
            digits = self.rng.choice(self.digits)
            if not self.state[digits].busy:
                return digits
        return self.rng.choice(self.digits)

    def _active_number(self) -> str:
        for _ in range(50):
            digits = self._idle_number()
            st = self.state[digits]
            if st.serving and st.phone:
                return digits
        return self._idle_number()

    def _record(self, digits: str) -> str:
        rng = self.rng
        rec = make_record(rng, digits, rng.choice(SERVICES), rng.choice((100, 101, 102, 110)),
                          rng.choice((10, 20)))
        return rec.line

    def _emit(self, line: str) -> None:
        self.lines.append(line)

    # ------------------------------------------------------------ steps

    def _provision(self, digits: str) -> None:
        st = self.state[digits]
        roll = self.rng.random()
        actor = st.user if roll < 0.8 else ("asp1" if roll < 0.92 else "tsp1")
        self._emit(f"step provision number={self._num(digits)} actor={actor} "
                   f"record={self._record(digits)}")

    def _get(self, digits: str) -> None:
        st = self.state[digits]
        actor = self.rng.choice((st.user, "asp1", "tsp1"))
        service = self.rng.choice(SERVICES + ("*",))
        self._emit(f"step get number={self._num(digits)} actor={actor} service={service}")

    def _resolve(self, digits: str) -> None:
        service = self.rng.choice(SERVICES + ("*",))
        self._emit(f"step resolve number={self._num(digits)} service={service}")

    def _plain(self, kind: str) -> None:
        rng = self.rng
        if kind == "provision":
            self._provision(self._active_number())
        elif kind == "get":
            self._get(self._active_number())
        elif kind == "resolve":
            self._resolve(self._active_number())
        elif kind == "grant":
            digits = self._active_number()
            st = self.state[digits]
            self.grant_n += 1
            rights = rng.choice(("provision", "access", "provision,access"))
            scope = rng.choice(SERVICES + ("*",))
            self._emit(f"step grant number={self._num(digits)} user={st.user} "
                       f"grantee=asp1 rights={rights} scope={scope}")
            st.grants.append(f"g{self.grant_n}")
        elif kind == "revoke":
            holders = [d for d in self.rng.sample(self.digits, min(40, len(self.digits)))
                       if self.state[d].grants and not self.state[d].busy]
            if not holders:
                self._provision(self._active_number())
                return
            digits = holders[0]
            st = self.state[digits]
            grant = st.grants.pop(rng.randrange(len(st.grants)))
            self._emit(f"step revoke number={self._num(digits)} user={st.user} grant={grant}")
        elif kind == "transfer":
            digits = self._active_number()
            st = self.state[digits]
            self.transfer_n += 1
            same = rng.random() < 0.05
            to = st.serving if same else _other(st.serving)
            self._emit(f"step transfer number={self._num(digits)} user={st.user} to={to}")
            if not same:
                st.serving = to
                st.grants.clear()
        elif kind == "transfer_begin":
            digits = self._active_number()
            st = self.state[digits]
            self.transfer_n += 1
            to = _other(st.serving)
            paced = _Paced(f"x{self.transfer_n}", digits, st.serving, to)
            if rng.random() < 0.3:
                paced.dispute_after = rng.randint(0, 3)
            self._emit(f"step transfer_begin number={self._num(digits)} user={st.user} to={to}")
            st.busy = True
            self.paced.append(paced)
        elif kind == "disconnect":
            digits = self._active_number()
            st = self.state[digits]
            telephone = rng.random() < 0.15
            kind_arg = "telephone" if telephone else "enum_only"
            self._emit(f"step disconnect number={self._num(digits)} user={st.user} "
                       f"kind={kind_arg}")
            st.serving = None
            st.grants.clear()
            st.phone = not telephone
            st.busy = True
            self.resubscribe.append((len(self.lines) + rng.randint(3, 40), digits, telephone))
        elif kind == "offline":
            # A short outage around one step, so retries and timeouts happen.
            actor = rng.choice(("reg1", "reg2", "reg1", "reg2", "R1", "R2"))
            self._emit(f"step offline actor={actor}")
            self._plain(rng.choice(("get", "provision", "resolve")))
            self._emit(f"step online actor={actor}")
        elif kind == "advance":
            self._emit(f"step advance ticks={rng.randint(1, 20)}")

    def _advance_paced(self) -> None:
        paced = self.paced[self.rng.randrange(len(self.paced))]
        done = 4 - paced.steps_left
        st = self.state[paced.digits]
        if paced.dispute_after == done:
            self._emit(f"step dispute transfer={paced.transfer_id} by={paced.old} "
                       f"reason=subscriber did not ask for this")
            st.busy = False
            self.paced.remove(paced)
            return
        self._emit(f"step transfer_step transfer={paced.transfer_id}")
        paced.steps_left -= 1
        if paced.steps_left == 0:
            st.serving = paced.to
            st.grants.clear()
            st.busy = False
            self.paced.remove(paced)

    def _resubscribe(self, digits: str, reassign: bool) -> None:
        st = self.state[digits]
        num = self._num(digits)
        if reassign:
            self._emit(f"step assign number={num} user={st.user} tsp=tsp1")
            st.phone = True
        registrar = self.rng.choice(REGISTRARS)
        self._emit(f"step subscribe number={num} user={st.user} "
                   f"registrar={registrar} token=auto")
        st.serving = registrar
        st.busy = False

    def _due_resubscribe(self) -> bool:
        for i, (due, digits, reassign) in enumerate(self.resubscribe):
            if due <= len(self.lines):
                del self.resubscribe[i]
                self._resubscribe(digits, reassign)
                return True
        return False

    def generate(self, steps: int) -> str:
        rng = self.rng
        while len(self.lines) < steps:
            if self._due_resubscribe():
                continue
            if self.paced and rng.random() < 0.25:
                self._advance_paced()
                continue
            self._plain(rng.choices(self._kinds, self._weights)[0])
        # Finish what is open, so the script ends with no transfer in flight.
        while self.paced:
            self._advance_paced()
        for _due, digits, reassign in self.resubscribe:
            self._resubscribe(digits, reassign)
        self.resubscribe = []
        return "\n".join(self.lines) + "\n"


def _other(registrar: str | None) -> str:
    return "reg2" if registrar == "reg1" else "reg1"

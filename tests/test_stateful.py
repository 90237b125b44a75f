"""A stateful test of registrar changes under faults.

Hypothesis interleaves writes, reads, whole and paced transfers, disputes
and outages of every registrar and registry on models 1 and 4, over two
subscribed numbers. After each step, every logged status is ``ok`` or an
``EnumStackError`` class, nothing escapes the script runner, and the
record account (:func:`test_scenarios.lost_records`) is empty.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from enumstack import errors
from enumstack.scenarios import build_topology, builtin_config, run_events

from test_scenarios import lost_records

NUMBERS = {"+13154434473": "alice", "+13154434474": "bob"}
REGISTRARS = ("reg1", "reg2")
SETUP = "".join(
    f"step assign number={number} user={user} tsp=tsp1\n"
    f"step subscribe number={number} user={user} registrar=reg{k % 2 + 1} token=auto\n"
    f'step provision number={number} actor={user} record=100 10 "u" "E2U+sip"'
    f' "!^.*$!sip:{user}@example.com!" .\n'
    for k, (number, user) in enumerate(NUMBERS.items())
)
RECORDS = (
    '100 10 "u" "E2U+sip" "!^.*$!sip:new@example.com!" .',
    '110 10 "u" "E2U+mailto" "!^.*$!mailto:m@example.com!" .',
    'restricted 120 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .',
)
ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.EnumStackError)
}

numbers = st.sampled_from(sorted(NUMBERS))
registrars = st.sampled_from(REGISTRARS)


class TransferMachine(RuleBasedStateMachine):
    @initialize(model=st.sampled_from([1, 4]))
    def build(self, model):
        self.topology = build_topology(builtin_config(model), seed=model)
        self.actors = (*REGISTRARS, *self.topology.registries)
        self.step(SETUP)

    def step(self, script):
        run_events(self.topology, script)

    def open_transfers(self):
        return sorted(
            tid for actor in self.topology.registrars.values()
            for tid, record in actor.transfers.items() if not record.finished
        )

    def open_transfer(self, data):
        return data.draw(st.sampled_from(self.open_transfers()))

    @rule(number=numbers, record=st.sampled_from(RECORDS), grantee=st.booleans())
    def provision(self, number, record, grantee):
        actor = "asp1" if grantee else NUMBERS[number]
        self.step(f"step provision number={number} actor={actor} record={record}\n")

    @rule(number=numbers, rights=st.sampled_from(["provision", "access", "provision,access"]))
    def grant(self, number, rights):
        user = NUMBERS[number]
        self.step(f"step grant number={number} user={user} grantee=asp1 rights={rights}\n")

    @rule(number=numbers, k=st.integers(1, 6))
    def revoke(self, number, k):
        self.step(f"step revoke number={number} user={NUMBERS[number]} grant=g{k}\n")

    @rule(number=numbers, grantee=st.booleans())
    def get(self, number, grantee):
        actor = "asp1" if grantee else NUMBERS[number]
        self.step(f"step get number={number} actor={actor}\n")

    @rule(number=numbers, to=registrars)
    def transfer(self, number, to):
        self.step(f"step transfer number={number} user={NUMBERS[number]} to={to}\n")

    @rule(number=numbers, to=registrars)
    def transfer_begin(self, number, to):
        self.step(f"step transfer_begin number={number} user={NUMBERS[number]} to={to}\n")

    @precondition(lambda self: self.open_transfers())
    @rule(data=st.data())
    def transfer_step(self, data):
        self.step(f"step transfer_step transfer={self.open_transfer(data)}\n")

    @precondition(lambda self: self.open_transfers())
    @rule(data=st.data(), by=registrars)
    def dispute(self, data, by):
        self.step(f"step dispute transfer={self.open_transfer(data)} by={by}\n")

    @rule(data=st.data())
    def offline_or_online(self, data):
        actor = data.draw(st.sampled_from(self.actors))
        kind = "online" if self.topology.net.is_offline(actor) else "offline"
        self.step(f"step {kind} actor={actor}\n")

    @invariant()
    def no_record_lost_and_only_known_errors(self):
        assert {r.status for r in self.topology.log} <= ERRORS | {"ok"}
        assert lost_records(self.topology) == []


TransferMachine.TestCase.settings = settings(
    max_examples=120,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestTransfersUnderFaults = TransferMachine.TestCase

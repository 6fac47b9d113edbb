"""Unit and integration tests for the Solana-like host chain simulator."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.simsig import SimSigScheme
from repro.errors import (
    AccountSizeError,
    ComputeBudgetExceededError,
    HostError,
    HostUnavailableError,
    InsufficientFundsError,
    ProgramError,
    TransactionTooLargeError,
)
from repro.host import (
    AccountsDb,
    Address,
    BaseFee,
    BundleFee,
    HostChain,
    HostConfig,
    Instruction,
    InvokeContext,
    PriorityFee,
    Program,
    SigVerify,
    Transaction,
)
from repro.observability import Tracer
from repro.sim import Simulation
from repro.units import (
    BASE_FEE_LAMPORTS_PER_SIGNATURE,
    MAX_ACCOUNT_BYTES,
    MAX_TRANSACTION_BYTES,
    lamports_to_usd,
    rent_exempt_deposit,
    sol_to_lamports,
)
from tests.helpers import BlockRecorder

PAYER = Address.derive("payer")


class CounterProgram(Program):
    """Test program: counts invocations in an account's first byte; can be
    told to fail or to burn compute."""

    def __init__(self):
        self._id = Address.derive("counter-program")

    @property
    def program_id(self) -> Address:
        return self._id

    def execute(self, ctx: InvokeContext, data: bytes) -> None:
        if data == b"fail":
            raise ProgramError("told to fail")
        if data == b"burn":
            ctx.meter.charge(10_000_000)
        account = ctx.account(ctx.instruction_accounts[0])
        # Account data is immutable bytes: programs replace the blob.
        current = account.data if account.data else bytes(8)
        account.data = bytes([current[0] + 1]) + current[1:]
        ctx.emit("Counted", value=account.data[0])


@pytest.fixture
def env():
    sim = Simulation(seed=3)
    chain = HostChain(sim, SimSigScheme(), HostConfig())
    chain.airdrop(PAYER, sol_to_lamports(1_000.0))
    program = CounterProgram()
    chain.deploy(program)
    state = Address.derive("counter-state")
    return sim, chain, program, state


def make_tx(program, state, data=b"tick", fee=BaseFee(), budget=200_000):
    return Transaction(
        payer=PAYER,
        instructions=(Instruction(program.program_id, (state,), data),),
        fee_strategy=fee,
        compute_budget=budget,
    )


class TestExecution:
    def test_successful_execution_mutates_state(self, env):
        sim, chain, program, state = env
        results = []
        chain.submit(make_tx(program, state), on_result=results.append)
        sim.run_until(30.0)
        assert len(results) == 1
        assert results[0].success
        assert chain.accounts.account(state).data[0] == 1

    def test_failed_program_rolls_back(self, env):
        sim, chain, program, state = env
        results = []
        chain.submit(make_tx(program, state), on_result=results.append)
        sim.run_until(30.0)
        chain.submit(make_tx(program, state, data=b"fail"), on_result=results.append)
        sim.run_until(60.0)
        assert [r.success for r in results] == [True, False]
        assert chain.accounts.account(state).data[0] == 1  # unchanged

    def test_fee_charged_even_on_failure(self, env):
        sim, chain, program, state = env
        balance_before = chain.accounts.balance(PAYER)
        results = []
        chain.submit(make_tx(program, state, data=b"fail"), on_result=results.append)
        sim.run_until(30.0)
        assert results[0].fee_paid == BASE_FEE_LAMPORTS_PER_SIGNATURE
        assert chain.accounts.balance(PAYER) == balance_before - BASE_FEE_LAMPORTS_PER_SIGNATURE

    def test_compute_budget_enforced(self, env):
        sim, chain, program, state = env
        results = []
        chain.submit(make_tx(program, state, data=b"burn"), on_result=results.append)
        sim.run_until(30.0)
        assert not results[0].success
        assert "CU" in results[0].error

    def test_oversized_transaction_rejected_at_submit(self, env):
        sim, chain, program, state = env
        big = make_tx(program, state, data=b"x" * MAX_TRANSACTION_BYTES)
        with pytest.raises(TransactionTooLargeError):
            chain.submit(big)

    def test_size_cap_is_1232(self):
        assert MAX_TRANSACTION_BYTES == 1232

    def test_unknown_program_fails_tx(self, env):
        sim, chain, program, state = env
        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(Address.derive("nowhere"), (), b""),),
            fee_strategy=BaseFee(),
        )
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert not results[0].success

    def test_insufficient_fee_balance(self, env):
        sim, chain, program, state = env
        poor = Address.derive("poor")
        tx = Transaction(
            payer=poor,
            instructions=(Instruction(program.program_id, (state,), b"tick"),),
            fee_strategy=BaseFee(),
        )
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert not results[0].success
        assert results[0].fee_paid == 0

    def test_events_delivered_to_subscribers(self, env):
        sim, chain, program, state = env
        seen = []
        chain.subscribe("Counted", seen.append)
        chain.submit(make_tx(program, state))
        sim.run_until(30.0)
        assert len(seen) == 1
        assert seen[0].payload["value"] == 1

    def test_slots_advance(self, env):
        sim, chain, program, state = env
        sim.run_until(4.0)
        assert chain.slot == 10  # 4 s of 0.4 s slots


class TestSigVerifyPrecompile:
    def test_valid_signature_exposed_to_program(self, env):
        sim, chain, program, state = env
        scheme = chain.scheme
        keypair = scheme.keypair_from_seed(bytes(range(32)))
        message = b"block fingerprint"
        captured = {}

        class Inspector(Program):
            @property
            def program_id(self):
                return Address.derive("inspector")

            def execute(self, ctx, data):
                captured["ok"] = ctx.is_signature_verified(keypair.public_key, message)

        inspector = Inspector()
        chain.deploy(inspector)
        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(inspector.program_id, (), b""),),
            fee_strategy=BaseFee(),
            sig_verifies=(SigVerify(keypair.public_key, message, keypair.sign(message)),),
        )
        chain.submit(tx)
        sim.run_until(30.0)
        assert captured["ok"] is True

    def test_invalid_signature_fails_whole_tx(self, env):
        sim, chain, program, state = env
        scheme = chain.scheme
        keypair = scheme.keypair_from_seed(bytes(range(32)))
        other = scheme.keypair_from_seed(bytes(32))
        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(program.program_id, (state,), b"tick"),),
            fee_strategy=BaseFee(),
            sig_verifies=(SigVerify(other.public_key, b"msg", keypair.sign(b"msg")),),
        )
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert not results[0].success
        assert chain.accounts.account(state).data == b""

    def test_each_verify_costs_a_signature_fee(self, env):
        """§V-B: 0.1 ¢ per transaction plus 0.1 ¢ per verified signature."""
        sim, chain, program, state = env
        scheme = chain.scheme
        keypair = scheme.keypair_from_seed(bytes(range(32)))
        entries = tuple(
            SigVerify(keypair.public_key, bytes([i]), keypair.sign(bytes([i])))
            for i in range(3)
        )
        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(program.program_id, (state,), b"tick"),),
            fee_strategy=BaseFee(),
            sig_verifies=entries,
        )
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert results[0].fee_paid == 4 * BASE_FEE_LAMPORTS_PER_SIGNATURE


class TestFees:
    def test_priority_fee_amount(self, env):
        sim, chain, program, state = env
        fee = PriorityFee(compute_unit_price=5_000_000)
        tx = make_tx(program, state, fee=fee, budget=1_400_000)
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        expected = BASE_FEE_LAMPORTS_PER_SIGNATURE + 7_000_000
        assert results[0].fee_paid == expected
        # ≈ 1.40 USD, the Fig. 3 priority cluster.
        assert lamports_to_usd(expected) == pytest.approx(1.40, abs=0.01)

    def test_bundle_tip_paid_once(self, env):
        sim, chain, program, state = env
        txs = [make_tx(program, state) for _ in range(3)]
        results = []
        chain.submit_bundle(txs, tip_lamports=15_090_000, on_result=results.append)
        sim.run_until(30.0)
        (receipts,) = results
        fees = sorted(r.fee_paid for r in receipts)
        assert fees[0] == BASE_FEE_LAMPORTS_PER_SIGNATURE
        assert fees[-1] == BASE_FEE_LAMPORTS_PER_SIGNATURE + 15_090_000

    def test_bundle_lands_in_single_block(self, env):
        """§V-A: all ReceivePacket transactions land in one block."""
        sim, chain, program, state = env
        txs = [make_tx(program, state) for _ in range(5)]
        results = []
        chain.submit_bundle(txs, tip_lamports=1_000, on_result=results.append)
        sim.run_until(30.0)
        (receipts,) = results
        assert len({r.slot for r in receipts}) == 1
        assert all(r.success for r in receipts)
        assert chain.accounts.account(state).data[0] == 5

    def test_bundle_atomic_failure(self, env):
        sim, chain, program, state = env
        txs = [
            make_tx(program, state),
            make_tx(program, state, data=b"fail"),
            make_tx(program, state),
        ]
        results = []
        chain.submit_bundle(txs, tip_lamports=1_000, on_result=results.append)
        sim.run_until(30.0)
        (receipts,) = results
        assert not any(r.success for r in receipts)
        assert chain.accounts.account(state).data == b""

    def test_empty_bundle_rejected(self, env):
        sim, chain, program, state = env
        with pytest.raises(HostError):
            chain.submit_bundle([], tip_lamports=0)

    def test_base_fee_slower_than_priority_under_congestion(self):
        """The latency ordering that motivates §VI-B."""
        sim = Simulation(seed=11)
        config = HostConfig(base_congestion=0.7, diurnal_congestion=0.0, spike_probability=0.0)
        chain = HostChain(sim, SimSigScheme(), config)
        chain.airdrop(PAYER, sol_to_lamports(1_000.0))
        program = CounterProgram()
        chain.deploy(program)
        state = Address.derive("counter-state")

        base_lat, prio_lat = [], []
        for i in range(60):
            submit_time = i * 10.0
            for fee, sink in ((BaseFee(), base_lat), (PriorityFee(1_000), prio_lat)):
                def submit(fee=fee, sink=sink, t0=submit_time):
                    chain.submit(
                        make_tx(program, state, fee=fee),
                        on_result=lambda r, t0=t0, sink=sink: sink.append(r.time - t0),
                    )
                sim.schedule_at(submit_time, submit)
        sim.run_until(700.0)
        assert len(base_lat) == len(prio_lat) == 60
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(prio_lat) < mean(base_lat)


class TestAccountsAndRent:
    def test_allocation_takes_rent_deposit(self, env):
        sim, chain, program, state = env
        before = chain.accounts.balance(PAYER)
        size = 1024
        chain.accounts.allocate(PAYER, Address.derive("data"), size, program.program_id)
        assert before - chain.accounts.balance(PAYER) == rent_exempt_deposit(size)

    def test_ten_mib_account_deposit_matches_paper(self, env):
        """§V-D: the 10 MiB guest state account required ≈ 14.6 k USD."""
        deposit = rent_exempt_deposit(MAX_ACCOUNT_BYTES)
        assert lamports_to_usd(deposit) == pytest.approx(14_600, rel=0.01)

    def test_oversized_account_rejected(self, env):
        sim, chain, program, state = env
        with pytest.raises(AccountSizeError):
            chain.accounts.allocate(
                PAYER, Address.derive("big"), MAX_ACCOUNT_BYTES + 1, program.program_id
            )

    def test_deallocate_refunds_deposit(self, env):
        sim, chain, program, state = env
        addr = Address.derive("data")
        before = chain.accounts.balance(PAYER)
        chain.accounts.allocate(PAYER, addr, 4096, program.program_id)
        refund = chain.accounts.deallocate(addr, PAYER)
        assert refund == rent_exempt_deposit(4096)
        assert chain.accounts.balance(PAYER) == before

    def test_transfer_requires_funds(self, env):
        sim, chain, program, state = env
        with pytest.raises(InsufficientFundsError):
            chain.accounts.transfer(Address.derive("empty"), PAYER, 1)

    def test_double_allocation_rejected(self, env):
        sim, chain, program, state = env
        addr = Address.derive("data")
        chain.accounts.allocate(PAYER, addr, 64, program.program_id)
        with pytest.raises(HostError):
            chain.accounts.allocate(PAYER, addr, 64, program.program_id)


class AllocatorProgram(Program):
    """Test program: allocates (``b"alloc"``) or deallocates
    (``b"free"``) its first account from inside a transaction, then
    fails when the instruction ends in ``!``."""

    SIZE = 2_048

    def __init__(self):
        self._id = Address.derive("allocator-program")

    @property
    def program_id(self) -> Address:
        return self._id

    def execute(self, ctx: InvokeContext, data: bytes) -> None:
        target = ctx.instruction_accounts[0]
        if data.startswith(b"alloc"):
            ctx.accounts_db.allocate(ctx.payer, target, self.SIZE, self._id)
        else:
            ctx.accounts_db.deallocate(target, ctx.payer)
        if data.endswith(b"!"):
            raise ProgramError("told to fail after resizing")


_sizes = st.integers(min_value=1, max_value=MAX_ACCOUNT_BYTES)
_owners = st.one_of(st.none(), st.sampled_from(
    [Address.derive("owner-a"), Address.derive("owner-b")]))


class TestAccountContract:
    """An account's allocated ``size`` is a number carried with its
    balance, data and owner; ``data`` is whatever a program stored."""

    FUNDS = sol_to_lamports(1_000_000.0)

    def _bank(self):
        bank = AccountsDb()
        bank.credit(PAYER, self.FUNDS)
        return bank

    @given(lamports=st.integers(min_value=0, max_value=10**12),
           size=st.one_of(st.just(0), _sizes),
           data=st.binary(max_size=64), owner=_owners,
           later=st.lists(st.sampled_from(
               ["allocate", "deallocate", "write", "credit"]), max_size=5))
    def test_restore_of_snapshot_is_the_identity(self, lamports, size, data,
                                                 owner, later):
        bank = self._bank()
        account = bank.account(Address.derive("subject"))
        account.lamports, account.size = lamports, size
        account.data, account.owner = data, owner
        snap = account.snapshot()
        for step in later:
            if step == "allocate" and not account.size:
                bank.allocate(PAYER, account.address, 512, Address.derive("owner-b"))
            elif step == "deallocate":
                bank.deallocate(account.address, PAYER)
            elif step == "write":
                account.data = account.data + b"x"
            elif step == "credit":
                bank.credit(account.address, 7)
        account.restore(snap)
        assert (account.lamports, account.size, account.data, account.owner) \
            == (lamports, size, data, owner)
        assert account.snapshot() == snap

    @given(size=_sizes)
    def test_allocate_records_the_size_and_moves_exactly_the_deposit(self, size):
        bank = self._bank()
        owner, addr = Address.derive("owner-a"), Address.derive("subject")
        account = bank.allocate(PAYER, addr, size, owner)
        assert account is bank.get(addr)
        assert (account.size, account.data, account.owner) == (size, b"", owner)
        assert account.lamports == rent_exempt_deposit(size)
        assert bank.balance(PAYER) == self.FUNDS - rent_exempt_deposit(size)

    @given(first=_sizes, again=st.integers(min_value=0, max_value=2 * MAX_ACCOUNT_BYTES))
    def test_a_refused_allocation_moves_no_lamport(self, first, again):
        bank = self._bank()
        owner, addr = Address.derive("owner-a"), Address.derive("subject")
        with pytest.raises(AccountSizeError, match="exceeds the"):
            bank.allocate(PAYER, addr, MAX_ACCOUNT_BYTES + 1 + again, owner)
        assert bank.balance(PAYER) == self.FUNDS and bank.balance(addr) == 0
        bank.allocate(PAYER, addr, first, owner)
        before = (bank.balance(PAYER), bank.get(addr).snapshot())
        with pytest.raises(HostError, match="already allocated"):
            bank.allocate(PAYER, addr, min(again, MAX_ACCOUNT_BYTES), owner)
        assert (bank.balance(PAYER), bank.get(addr).snapshot()) == before

    @given(size=_sizes, credited=st.integers(min_value=0, max_value=10**9))
    def test_deallocate_zeroes_the_size_and_refunds_all_it_held(self, size, credited):
        bank = self._bank()
        addr = Address.derive("subject")
        bank.allocate(PAYER, addr, size, Address.derive("owner-a"))
        bank.credit(addr, credited)
        refund = bank.deallocate(addr, PAYER)
        assert refund == rent_exempt_deposit(size) + credited
        account = bank.get(addr)
        assert (account.size, account.data, account.owner, account.lamports) \
            == (0, b"", None, 0)
        assert bank.balance(PAYER) == self.FUNDS + credited
        # Its address is free again.
        assert bank.allocate(PAYER, addr, 64, Address.derive("owner-b")).size == 64

    @pytest.mark.parametrize("allocated_before, data", [
        (False, b"alloc!"), (True, b"free!")])
    def test_a_rolled_back_transaction_leaves_the_size_as_it_found_it(
            self, allocated_before, data):
        sim = Simulation(seed=5)
        chain = HostChain(sim, SimSigScheme(), HostConfig())
        chain.airdrop(PAYER, sol_to_lamports(1_000.0))
        program = AllocatorProgram()
        chain.deploy(program)
        target = Address.derive("resized")
        if allocated_before:
            chain.accounts.allocate(PAYER, target, program.SIZE, program.program_id)

        def state():
            account = chain.accounts.get(target)
            return account.snapshot() if account is not None else None

        found = state()
        assert (found is not None) == allocated_before
        balance = chain.accounts.balance(PAYER)

        def submit(payload):
            results = []
            chain.submit(Transaction(
                payer=PAYER,
                instructions=(Instruction(program.program_id, (target,), payload),),
                fee_strategy=BaseFee(),
            ), on_result=results.append)
            sim.run_until(sim.now + 30.0)
            return results[0]

        assert not submit(data).success
        assert state() == found
        assert chain.accounts.balance(PAYER) == balance - BASE_FEE_LAMPORTS_PER_SIGNATURE
        # The same instruction without the failure goes through.
        assert submit(data[:-1]).success
        assert chain.accounts.get(target).size == (0 if allocated_before
                                                   else program.SIZE)


class TestBundleBlockBoundary:
    """A bundle must never be split by the block transaction limit."""

    def _inject(self, chain, transactions, bundle_id=None, on_result=None):
        """Place pending transactions straight into the mempool with
        ready_time 0 (skipping the stochastic submit/scheduling delays),
        exactly as _arrive would leave them."""
        from repro.host.chain import _PendingTx
        peers = [] if bundle_id is not None else None
        for tx in transactions:
            pending = _PendingTx(
                transaction=tx, ready_time=0.0, on_result=on_result,
                bundle_id=bundle_id, bundle_tip=0, bundle_peers=peers,
            )
            if peers is not None:
                peers.append(pending)
            chain._mempool.append(pending)

    def test_bundle_defers_whole_when_block_is_full(self):
        sim = Simulation(seed=9)
        chain = HostChain(sim, SimSigScheme(), HostConfig(block_tx_limit=4))
        chain.airdrop(PAYER, sol_to_lamports(1_000.0))
        program = CounterProgram()
        chain.deploy(program)
        state = Address.derive("counter-state")

        receipts = []
        singles = [make_tx(program, state) for _ in range(3)]
        bundle = [make_tx(program, state) for _ in range(2)]
        self._inject(chain, singles, on_result=receipts.append)
        self._inject(chain, bundle, bundle_id=777, on_result=receipts.append)
        sim.run_until(30.0)

        assert len(receipts) == 5
        assert all(r.success for r in receipts)
        bundle_slots = {r.slot for r in receipts if r.bundle_id == 777}
        single_slots = {r.slot for r in receipts if r.bundle_id is None}
        # The three singles fill the first block; the bundle (2 members,
        # 1 slot of room) must defer whole to the next slot — not split.
        assert len(bundle_slots) == 1
        assert bundle_slots == {min(single_slots) + 1}

    def test_bundle_larger_than_block_limit_fails_atomically(self):
        sim = Simulation(seed=9)
        chain = HostChain(sim, SimSigScheme(), HostConfig(block_tx_limit=1))
        chain.airdrop(PAYER, sol_to_lamports(1_000.0))
        program = CounterProgram()
        chain.deploy(program)
        state = Address.derive("counter-state")

        results = []
        txs = [make_tx(program, state) for _ in range(3)]
        chain.submit_bundle(txs, tip_lamports=1_000, on_result=results.append)
        sim.run_until(30.0)

        (receipts,) = results
        # Can never fit any block: every member fails, nothing executes,
        # no fee is charged — instead of executing one-per-slot.
        assert [r.success for r in receipts] == [False, False, False]
        assert all("block limit" in r.error for r in receipts)
        assert all(r.fee_paid == 0 for r in receipts)
        assert chain.accounts.get(state) is None

    def test_deferred_bundle_still_lands_atomically(self):
        """End-to-end through submit_bundle under a tiny limit: whatever
        slot the bundle lands in, all members share it."""
        sim = Simulation(seed=21)
        chain = HostChain(sim, SimSigScheme(), HostConfig(block_tx_limit=2))
        chain.airdrop(PAYER, sol_to_lamports(1_000.0))
        program = CounterProgram()
        chain.deploy(program)
        state = Address.derive("counter-state")

        results = []
        for _ in range(6):
            chain.submit(make_tx(program, state))
        chain.submit_bundle(
            [make_tx(program, state) for _ in range(2)],
            tip_lamports=1_000, on_result=results.append,
        )
        sim.run_until(60.0)
        (receipts,) = results
        assert all(r.success for r in receipts)
        assert len({r.slot for r in receipts}) == 1


class CreatorProgram(Program):
    """Test program: touches (and thereby creates) its first account,
    then optionally fails — the rollback-phantom scenario."""

    def __init__(self):
        self._id = Address.derive("creator-program")

    @property
    def program_id(self) -> Address:
        return self._id

    def execute(self, ctx: InvokeContext, data: bytes) -> None:
        account = ctx.account(ctx.instruction_accounts[0])
        account.data = b"created!"
        if data == b"fail":
            raise ProgramError("told to fail after creating")


class TestRollbackRemovesPhantomAccounts:
    """A rolled-back transaction must not leave zero-lamport phantom
    accounts for addresses that did not exist before it ran."""

    @pytest.fixture
    def env(self):
        sim = Simulation(seed=5)
        chain = HostChain(sim, SimSigScheme(), HostConfig())
        chain.airdrop(PAYER, sol_to_lamports(1_000.0))
        program = CreatorProgram()
        chain.deploy(program)
        return sim, chain, program

    def test_failed_tx_leaves_no_phantom_account(self, env):
        sim, chain, program = env
        fresh = Address.derive("never-existed")
        assert chain.accounts.get(fresh) is None
        before = len(chain.accounts)

        results = []
        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(program.program_id, (fresh,), b"fail"),),
            fee_strategy=BaseFee(),
        )
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)

        assert not results[0].success
        assert chain.accounts.get(fresh) is None, "phantom account left behind"
        assert len(chain.accounts) == before

    def test_successful_tx_keeps_created_account(self, env):
        sim, chain, program = env
        fresh = Address.derive("kept")
        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(program.program_id, (fresh,), b"ok"),),
            fee_strategy=BaseFee(),
        )
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert results[0].success
        assert chain.accounts.get(fresh) is not None
        assert bytes(chain.accounts.account(fresh).data) == b"created!"

    def test_failed_bundle_leaves_no_phantom_accounts(self, env):
        sim, chain, program = env
        fresh = Address.derive("bundle-fresh")
        txs = [
            Transaction(
                payer=PAYER,
                instructions=(Instruction(program.program_id, (fresh,), b"ok"),),
                fee_strategy=BaseFee(),
            ),
            Transaction(
                payer=PAYER,
                instructions=(Instruction(program.program_id, (fresh,), b"fail"),),
                fee_strategy=BaseFee(),
            ),
        ]
        results = []
        chain.submit_bundle(txs, tip_lamports=1_000, on_result=results.append)
        sim.run_until(30.0)
        (receipts,) = results
        assert not any(r.success for r in receipts)
        assert chain.accounts.get(fresh) is None

    def test_pre_existing_account_restored_not_removed(self, env):
        sim, chain, program = env
        existing = Address.derive("existing")
        chain.airdrop(existing, 123)

        tx = Transaction(
            payer=PAYER,
            instructions=(Instruction(program.program_id, (existing,), b"fail"),),
            fee_strategy=BaseFee(),
        )
        results = []
        chain.submit(tx, on_result=results.append)
        sim.run_until(30.0)
        assert not results[0].success
        account = chain.accounts.get(existing)
        assert account is not None
        assert account.lamports == 123
        assert bytes(account.data) == b""


class TestCongestionDeterminism:
    """The per-hour spike schedule must depend only on the seed, never
    on the order (or volume) of congestion_at queries."""

    HOURS = list(range(48))

    def _schedule(self, seed, query_order, perturb=False):
        sim = Simulation(seed=seed)
        chain = HostChain(sim, SimSigScheme(), HostConfig(spike_probability=0.3))
        flags = {}
        for hour in query_order:
            if perturb:
                # Interleave unrelated draws on the chain's shared fork
                # RNG, as a different workload would.
                chain._rng.random()
            flags[hour] = chain.congestion_at(hour * 3600.0 + 10.0) \
                == chain.config.spike_congestion
        return [flags[hour] for hour in self.HOURS]

    def test_query_order_does_not_change_spikes(self):
        ascending = self._schedule(77, self.HOURS)
        descending = self._schedule(77, list(reversed(self.HOURS)))
        assert ascending == descending

    def test_interleaved_rng_draws_do_not_change_spikes(self):
        plain = self._schedule(77, self.HOURS)
        perturbed = self._schedule(77, self.HOURS, perturb=True)
        assert plain == perturbed

    def test_schedule_varies_by_hour_and_seed(self):
        flags = self._schedule(77, self.HOURS)
        assert any(flags) and not all(flags)
        assert self._schedule(78, self.HOURS) != flags

    def test_same_hour_spike_flag_is_cached_and_stable(self):
        sim = Simulation(seed=3)
        chain = HostChain(sim, SimSigScheme(), HostConfig(spike_probability=1.0))
        # Every hour spikes: the level pins to spike_congestion all hour,
        # however often (and wherever in the hour) it is queried.
        for offset in (0.0, 100.0, 3599.0):
            level = chain.congestion_at(7 * 3600.0 + offset)
            assert level == chain.config.spike_congestion


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sim = Simulation(seed=seed)
            chain = HostChain(sim, SimSigScheme())
            chain.airdrop(PAYER, sol_to_lamports(100.0))
            program = CounterProgram()
            chain.deploy(program)
            state = Address.derive("counter-state")
            receipts = []
            for i in range(10):
                sim.schedule_at(i * 2.0, lambda: chain.submit(
                    make_tx(program, state), on_result=receipts.append,
                ))
            sim.run_until(60.0)
            return [(r.slot, r.fee_paid, r.success) for r in receipts]

        assert run(5) == run(5)
        assert run(5) != run(6) or True  # different seeds may coincide; no assertion


# ----------------------------------------------------------------------
# The sleeping slot loop against a chain that ticks every slot
# ----------------------------------------------------------------------


class _CountingTicks:
    """Counts the ``_produce_slot`` events a chain dispatches."""

    ticks = 0

    def _produce_slot(self):
        self.ticks += 1
        super()._produce_slot()


class SleepingHostChain(_CountingTicks, HostChain):
    pass


class TickingHostChain(_CountingTicks, HostChain):
    """The reference: the chain before it learnt to sleep — a tick event
    every slot, an empty block when there is nothing to do.  It exists
    only here; ``src/`` has no switch that selects it."""

    def _rearm(self):
        self._slot_handle = self.sim.schedule_at(
            self._next_tick, self._produce_slot)


class _WindowFaults:
    """The fault policy of ``repro.chaos.injector._HostFaults`` over
    fixed windows, for a bare chain (the injector needs a deployment)."""

    def __init__(self, windows):
        self._windows = windows
        self._rng = random.Random(7)

    def _active(self, kind, now):
        return any(k == kind and start <= now < start + length
                   for k, start, length in self._windows)

    def rpc_blocked(self, now):
        return self._active("blackout", now)

    def drop_tx(self, now):
        return self._active("drop", now) and self._rng.random() < 0.5

    def congestion_override(self, time):
        return None

    def slot_stalled(self, now):
        return self._active("stall", now)


def slot_grid(count, slot_seconds=0.4):
    """The instants a chain built at time 0 ticks at: ``slot_seconds``
    added ``count`` times, as the kernel's ``now + delay`` adds it."""
    grid, tick = [], 0.0
    for _ in range(count):
        tick += slot_seconds
        grid.append(tick)
    return grid


_GRID = slot_grid(400)
_FEES = (BaseFee(), PriorityFee(1_000_000), BundleFee(10_000))
_datas = st.sampled_from([b"tick", b"tick", b"fail"])
_commands = st.one_of(
    # (fee strategy, instruction, whether its receipt submits another)
    st.tuples(st.just("submit"), st.sampled_from(_FEES), _datas, st.booleans()),
    st.tuples(st.just("bundle"), st.lists(_datas, min_size=1, max_size=3),
              st.sampled_from([0, 25_000])),
    # Slices: a step of any length, to a round instant, and to *exactly*
    # the k-th grid instant — where a tick and the slice's end coincide.
    st.tuples(st.just("advance"), st.one_of(
        st.sampled_from([0.0, 0.1, 0.4, 0.8, 4.0, 30.0]),
        st.floats(0.0, 20.0, allow_nan=False))),
    st.tuples(st.just("run_until"), st.sampled_from([4.0, 40.0, 100.0])),
    st.tuples(st.just("to_tick"), st.integers(0, len(_GRID) - 1)),
)
_windows = st.lists(
    st.tuples(st.sampled_from(["stall", "blackout", "drop"]),
              st.floats(0.0, 60.0, allow_nan=False),
              st.floats(0.1, 15.0, allow_nan=False)),
    max_size=3)


def play_host(chain_class, program, windows, subscribe):
    """Drive a fresh chain through ``program``; return it with everything
    an observer could have seen: receipts and events as delivered, RPC
    refusals, and ``slot`` probed from outside the loop after every
    command."""
    sim = Simulation(seed=11, tracer=Tracer())
    chain = chain_class(sim, SimSigScheme(), HostConfig())
    chain.recorder = BlockRecorder(chain)
    if windows:
        chain.chaos = _WindowFaults(windows)
    chain.airdrop(PAYER, sol_to_lamports(1_000.0))
    counter = CounterProgram()
    chain.deploy(counter)
    state = Address.derive("counter-state")
    log = []
    if subscribe:
        chain.subscribe("Counted", lambda event: log.append(
            ("event", sim.now, event.slot, event.time, event.payload["value"])))

    def observed(label, receipt):
        log.append(("receipt", label, sim.now, receipt.slot, receipt.time,
                    receipt.success, receipt.fee_paid))

    def submit(label, fee, data, chained):
        def on_result(receipt):
            observed(label, receipt)
            if chained:
                submit(label + ("then",), fee, b"tick", False)
        try:
            chain.submit(make_tx(counter, state, data=data, fee=fee),
                         on_result=on_result)
        except HostUnavailableError:
            log.append(("refused", label, sim.now))

    for index, command in enumerate(program + [("advance", 60.0)]):
        if command[0] == "submit":
            submit((index,), *command[1:])
        elif command[0] == "bundle":
            _, datas, tip = command
            try:
                chain.submit_bundle(
                    [make_tx(counter, state, data=data, fee=BundleFee(tip))
                     for data in datas],
                    tip,
                    on_result=lambda receipts, index=index: [
                        observed((index, position), receipt)
                        for position, receipt in enumerate(receipts)])
            except HostUnavailableError:
                log.append(("refused", (index,), sim.now))
        elif command[0] == "advance":
            sim.run_until(sim.now + command[1])
        elif command[0] == "run_until":
            sim.run_until(max(sim.now, command[1]))
        else:
            sim.run_until(max(sim.now, _GRID[command[1]]))
        log.append(("slot", sim.now, chain.slot))
    return chain, log


class TestAgainstTickingHost:
    """A chain that sleeps while its mempool is empty is observably the
    chain that ticks every slot: same receipts and events at the same
    instants, same slot number whenever it is read, same RNG stream —
    and every slot it did not dispatch accounted for."""

    # The 100th accumulated tick lands at or before 40.0: a slice that
    # ends there has run it, asleep or not.
    @example([("run_until", 40.0)], [], False)
    # Wake-ups across slices that end exactly on grid instants.
    @example([("submit", _FEES[0], b"tick", True), ("to_tick", 2),
              ("submit", _FEES[1], b"tick", False), ("to_tick", 3),
              ("to_tick", 50), ("bundle", [b"tick", b"fail"], 25_000),
              ("to_tick", 51)], [], True)
    # A stall that begins while the chain sleeps, a transaction arriving
    # inside it: slots before it numbered, inside it not.
    @example([("advance", 4.0), ("submit", _FEES[1], b"tick", False),
              ("advance", 4.0), ("submit", _FEES[1], b"tick", False),
              ("advance", 0.1)], [("stall", 6.0, 5.0)], True)
    @given(st.lists(_commands, max_size=12), _windows, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_receipts_events_slots_and_draws(self, program, windows,
                                                  subscribe):
        ticking, expected = play_host(TickingHostChain, program, windows, subscribe)
        sleeping, observed = play_host(SleepingHostChain, program, windows, subscribe)
        assert observed == expected
        assert sleeping._rng._random.getstate() == ticking._rng._random.getstate()
        assert sleeping.accounts.burned_fees == ticking.accounts.burned_fees

        then, now = ticking.sim.trace.report().counter, sleeping.sim.trace.report().counter
        for name in ("host.tx.executed", "host.tx.failed",
                     "host.events.delivered", "chaos.host.slots_stalled"):
            assert now(name) == then(name), name
        # Every slot the reference dispatched is a block, an idle slot
        # or a stalled slot of the sleeping chain, and only blocks (and
        # stalled slots with transactions waiting) cost it an event.
        assert ticking.ticks == (now("host.blocks") + now("host.slots.idle")
                                 + now("chaos.host.slots_stalled"))
        assert now("host.blocks") == len(sleeping.recorder.blocks)
        saved = ticking.sim.dispatched_events() - sleeping.sim.dispatched_events()
        assert saved == ticking.ticks - sleeping.ticks
        stalled_asleep = now("chaos.host.slots_stalled") - (
            sleeping.ticks - now("host.blocks"))
        assert saved == now("host.slots.idle") + stalled_asleep
        if not any(kind == "stall" for kind, _, _ in windows):
            assert stalled_asleep == 0


class TestPassiveObserver:
    """Watching the chain does not change it: every subscription draws
    its observation delays from a stream of its own, so a world with one
    more passive subscriber — attached at genesis or in mid-run — is the
    same world, event for event, apart from the deliveries to that
    subscriber (they used to come off the host's own stream, and an
    observed run was a different sample).  Streams are keyed by the
    order of subscription to an event, so what a *later* subscriber of
    the same event sees — the workload engine's own ``PacketReceived``
    here — may move; what happens on any chain does not."""

    @staticmethod
    def world(observe_from, seed):
        from repro import Deployment, DeploymentConfig
        from repro.guest.config import GuestConfig
        from repro.validators.profiles import simple_profiles
        from repro.workload import WorkloadEngine, WorkloadSpec
        dep = Deployment(DeploymentConfig(
            seed=seed, profiles=simple_profiles(4),
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1)))
        seen = []
        recorder = BlockRecorder(dep.host)

        def observe():
            for name in ("FinalisedBlock", "PacketReceived"):
                dep.host.subscribe(name, seen.append)

        if observe_from == "genesis":
            observe()
        channels = dep.establish_link()
        if observe_from == "mid-run":
            observe()
        engine = WorkloadEngine(dep, [channels], WorkloadSpec(
            offered_pps=1.0, duration=60.0, drain_seconds=240.0))
        engine.start()
        dep.contract.bank.mint("alice", "GUEST", 1_000)
        for _ in range(5):
            dep.user_api.send_packet(
                "transfer", str(channels[0]), dep.contract.transfer.make_payload(
                    channels[0], "GUEST", 7, "alice", "bob"))
            dep.run_for(10.0)
        dep.sim.run_until(engine.end_time)
        assert engine.delivered == engine.sent == 60
        assert dep.counterparty.ibc.counters.packets_received == 5
        receipts = [(receipt.slot, receipt.time, receipt.success,
                     receipt.fee_paid, receipt.compute_consumed)
                    for block in recorder.blocks for receipt in block.receipts]
        fingerprint = (
            dep.sim.dispatched_events() - len(seen),
            bytes(dep.contract.store.root_hash),
            bytes(dep.counterparty.ibc.store.root_hash),
            receipts)
        return fingerprint, seen

    @pytest.mark.parametrize("observe_from", ["genesis", "mid-run"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_more_subscriber_leaves_one_fingerprint(self, observe_from, seed):
        alone, nothing = self.world(None, seed)
        watched, seen = self.world(observe_from, seed)
        assert not nothing and len(seen) > 50
        assert {event.name for event in seen} == {"FinalisedBlock", "PacketReceived"}
        assert len(watched[3]) > 300
        assert watched == alone

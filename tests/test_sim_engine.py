"""Tests for the discrete-event engine, resources and tracing."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Process, Resource, Timeout, Timer
from .oracles import ENGINES

#: Delays no event may be scheduled at: NaN and infinities would leave the
#: clock NaN or the run unending.
BAD_DELAYS = (-1.0, float("nan"), float("inf"), float("-inf"))


class TestTimeout:
    def test_negative_rejected(self):
        for delay in BAD_DELAYS:
            with pytest.raises(SimulationError, match=repr(delay)):
                Timeout(delay)


class TestTimer:
    def test_bad_delay_rejected(self):
        for delay in BAD_DELAYS:
            with pytest.raises(SimulationError, match=repr(delay)):
                Timer(delay)

    def test_bad_rearm_delay_rejected(self):
        for delay in BAD_DELAYS:
            eng = Engine()
            eng.spawn(Timer(1.0, lambda delay=delay: delay), name="clock")
            with pytest.raises(SimulationError, match=repr(delay)):
                eng.run()
            assert eng.now == 1.0

    def test_rearming_timer_parity(self):
        """A re-arming Timer fires at the same instants as the equivalent
        looping generator."""
        n_ticks = 5
        period = 7.0

        def looping(eng, log):
            for _ in range(n_ticks):
                yield Timeout(period)
                log.append(eng.now)

        gen_log: list[float] = []
        eng_gen = Engine()
        eng_gen.spawn(looping(eng_gen, gen_log))
        eng_gen.run()

        timer_log: list[float] = []
        eng_t = Engine()
        remaining = [n_ticks]

        def fire():
            timer_log.append(eng_t.now)
            remaining[0] -= 1
            return period if remaining[0] else None

        eng_t.spawn(Timer(period, fire))
        eng_t.run()

        assert timer_log == gen_log
        assert eng_t.now == eng_gen.now == n_ticks * period


class TestEngine:
    def test_single_process_advances_clock(self):
        eng = Engine()

        def job():
            yield Timeout(2.5)
            return "done"

        proc = eng.spawn(job())
        eng.run()
        assert proc.finished
        assert proc.result == "done"
        assert eng.now == 2.5

    def test_parallel_processes_overlap(self):
        eng = Engine()

        def job(d):
            yield Timeout(d)

        eng.spawn(job(3.0))
        eng.spawn(job(5.0))
        eng.run()
        assert eng.now == 5.0

    def test_child_process_result_propagates(self):
        eng = Engine()

        def child():
            yield Timeout(1.0)
            return 42

        def parent():
            value = yield eng.spawn(child())
            yield Timeout(1.0)
            return value * 2

        proc = eng.spawn(parent())
        eng.run()
        assert proc.result == 84
        assert eng.now == 2.0

    def test_waiting_on_finished_child_is_instant(self):
        eng = Engine()

        def child():
            yield Timeout(1.0)
            return "x"

        child_proc = eng.spawn(child())

        def parent():
            yield Timeout(5.0)
            value = yield child_proc
            return value

        proc = eng.spawn(parent())
        eng.run()
        assert proc.result == "x"
        assert eng.now == 5.0

    def test_simultaneous_events_fire_in_spawn_order(self):
        eng = Engine()
        order = []

        def job(tag):
            yield Timeout(1.0)
            order.append(tag)

        eng.spawn(job("a"))
        eng.spawn(job("b"))
        eng.run()
        assert order == ["a", "b"]

    def test_bad_yield_raises(self):
        eng = Engine()

        def job():
            yield "not an effect"

        eng.spawn(job())
        with pytest.raises(SimulationError):
            eng.run()

    def test_process_records_finish_time(self):
        eng = Engine()

        def job():
            yield Timeout(3.0)

        proc = eng.spawn(job())
        eng.run()
        assert proc.finished_at == 3.0


class TestResource:
    def test_acquire_release(self):
        eng = Engine()
        pool = Resource(eng, capacity=2)
        held = []

        def job(tag):
            yield pool.acquire(1)
            held.append(tag)
            yield Timeout(1.0)
            pool.release(1)

        for tag in ("a", "b", "c"):
            eng.spawn(job(tag))
        eng.run()
        assert held == ["a", "b", "c"]
        assert eng.now == 2.0  # two run concurrently, the third waits
        assert pool.in_use == 0

    def test_fifo_ordering_prevents_starvation(self):
        eng = Engine()
        pool = Resource(eng, capacity=4)
        starts = {}

        def wide():
            yield pool.acquire(4)
            starts["wide"] = eng.now
            yield Timeout(1.0)
            pool.release(4)

        def narrow(tag):
            yield pool.acquire(1)
            starts[tag] = eng.now
            yield Timeout(1.0)
            pool.release(1)

        def holder():
            yield pool.acquire(2)
            yield Timeout(1.0)
            pool.release(2)

        eng.spawn(holder())
        eng.spawn(wide())       # must wait for the holder
        eng.spawn(narrow("n"))  # would fit now, but queues behind wide
        eng.run()
        assert starts["wide"] == 1.0
        assert starts["n"] >= starts["wide"]

    def test_over_capacity_request_rejected(self):
        eng = Engine()
        pool = Resource(eng, capacity=2)
        with pytest.raises(SimulationError):
            pool.acquire(3)

    def test_bad_release_rejected(self):
        eng = Engine()
        pool = Resource(eng, capacity=2)
        with pytest.raises(SimulationError):
            pool.release(1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)


class TestTraceDeterminism:
    """The engine micro-optimisations (slots, lazy heap deletion) must not
    move a single event: same-seed instrumented runs export byte-identical
    traces, checked through the existing invariant auditor."""

    @pytest.mark.parametrize("scenario", ["dag", "scheduler", "restart"])
    def test_same_seed_trace_byte_identical(self, scenario):
        from repro.verify.invariants import audit_trace_determinism

        result = audit_trace_determinism(scenario, seed=0)
        assert result.passed, result.detail


class TestTieBreakFIFO:
    """The documented ``(time, seq)`` contract: simultaneous events fire in
    scheduling order — spawn order for fresh processes — on the production
    heap engine and the linear-scan oracle, even with a thousand events at
    one instant."""

    N = 1000

    @pytest.mark.parametrize("impl", list(ENGINES))
    def test_thousand_simultaneous_events_fire_in_spawn_order(self, impl):
        eng = ENGINES[impl]()
        order = []

        def job(i):
            yield Timeout(5.0)  # every process wakes at exactly t=5.0
            order.append(i)

        for i in range(self.N):
            eng.spawn(job(i))
        eng.run()
        assert eng.now == 5.0
        assert order == list(range(self.N))

    @pytest.mark.parametrize("impl", list(ENGINES))
    def test_simultaneous_timer_fires_in_spawn_order(self, impl):
        from repro.sim import Timer

        eng = ENGINES[impl]()
        order = []
        procs = [
            eng.spawn(Timer(5.0, fire=(lambda i=i: order.append(i))))
            for i in range(self.N)
        ]
        eng.run()
        assert order == list(range(self.N))
        assert [p.finished_at for p in procs] == [5.0] * self.N

    @pytest.mark.parametrize("impl", list(ENGINES))
    def test_mid_batch_schedules_join_the_same_instant_in_seq_order(
        self, impl
    ):
        """Zero-delay events scheduled while an instant is being drained
        still fire within that instant, after everything already queued."""
        eng = ENGINES[impl]()
        order = []

        def echo(i):
            yield Timeout(0.0)
            order.append(("echo", i))

        def job(i):
            yield Timeout(5.0)
            order.append(("job", i))
            eng.spawn(echo(i))

        for i in range(10):
            eng.spawn(job(i))
        eng.run()
        assert eng.now == 5.0
        assert order == [("job", i) for i in range(10)] + [
            ("echo", i) for i in range(10)
        ]

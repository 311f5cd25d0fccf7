"""One shared link: fair processor sharing, conservation, lone-flow arithmetic.

The single-bottleneck behaviours, checked on the one engine that moves
bits: a :class:`PathScheduler` whose every flow rides the same one-hop
path over one :class:`SharedLink`.
"""

import numpy as np
import pytest

from repro.net import (
    NetworkPath,
    NetworkTrace,
    PathScheduler,
    SharedLink,
    stable_trace,
)


def const_trace(bps: float, rtt: float = 0.0) -> NetworkTrace:
    return NetworkTrace(
        name="const",
        timestamps=np.array([0.0, 500.0]),
        bandwidths_bps=np.array([bps, bps]),
        rtt=rtt,
    )


class OneHop:
    """A link and the scheduler sharing it between one-hop flows."""

    def __init__(self, trace: NetworkTrace):
        self.link = SharedLink(trace)
        self.path = NetworkPath((self.link,))
        self.sched = PathScheduler()
        self.next_event = self.sched.next_event
        self.advance = self.sched.advance

    def add_flow(self, flow_id, nbytes, start_time):
        self.sched.add_flow(flow_id, nbytes, start_time, self.path)


def drive(shared: OneHop, now: float = 0.0):
    """Run the link dry; returns completions in order."""
    out = []
    while shared.sched.busy():
        t = shared.next_event(now)
        out.extend(shared.advance(now, t))
        now = t
    return out


#: 8 Mbps for 1 s, then 80 Mbps; the trace loops every 2 s
STEP = NetworkTrace("step", np.array([0.0, 1.0]), np.array([8e6, 80e6]), rtt=0.0)


class TestSoloExactness:
    """A lone flow against hand arithmetic: the scheduler is the only
    transfer integrator (``Link`` runs one flow through it), so nothing
    else in the tree can check it."""

    def test_stable_trace_is_rtt_plus_bits_over_rate(self):
        shared = OneHop(stable_trace(7.3, rtt=0.013))
        shared.add_flow(0, 1_234_567, 2.5)
        (done,) = drive(shared)
        expected = 0.013 + 8 * 1_234_567 / 7.3e6
        assert done.elapsed == pytest.approx(expected, rel=1e-12)
        assert done.finish_time == pytest.approx(2.5 + expected, rel=1e-12)

    def test_sequential_solo_flows_each_exact(self):
        shared = OneHop(stable_trace(10.0, rtt=0.02))
        shared.add_flow(0, 500_000, 0.0)
        (first,) = drive(shared)
        assert first.elapsed == pytest.approx(0.02 + 4e6 / 10e6, rel=1e-12)
        shared.add_flow(1, 800_000, first.finish_time)
        (second,) = drive(shared, first.finish_time)
        assert second.elapsed == pytest.approx(0.02 + 6.4e6 / 10e6, rel=1e-12)

    def test_rate_step_mid_transfer(self):
        # 2 MB from t = 0: 1 MB in the first second at 8 Mbps, the other
        # 1 MB in 0.1 s at 80 Mbps.
        shared = OneHop(STEP)
        shared.add_flow(0, 2_000_000, 0.0)
        (done,) = drive(shared)
        assert done.elapsed == pytest.approx(1.1, rel=1e-12)

    def test_gated_flow_starts_moving_after_its_delay(self):
        # Gated 0.4 s: 0.6 MB in the remaining 0.6 s at 8 Mbps, then
        # 1.4 MB in 0.14 s at 80 Mbps; elapsed counts from the request.
        shared = OneHop(STEP)
        shared.sched.add_flow(0, 2_000_000, 0.0, shared.path, extra_delay=0.4)
        (done,) = drive(shared)
        assert done.elapsed == pytest.approx(1.14, rel=1e-12)

    def test_transfer_across_the_trace_wrap(self):
        # From t = 1.5: 0.5 s at 80 Mbps (40 Mbit) up to the wrap at 2 s,
        # then 4 Mbit at 8 Mbps (0.5 s).
        shared = OneHop(STEP)
        shared.add_flow(0, 5_500_000, 1.5)
        (done,) = drive(shared, 1.5)
        assert done.elapsed == pytest.approx(1.0, rel=1e-12)
        assert done.finish_time == pytest.approx(2.5, rel=1e-12)

    def test_zero_bytes_costs_one_rtt(self):
        shared = OneHop(const_trace(1e6, rtt=0.05))
        shared.add_flow(0, 0, 1.0)
        (done,) = drive(shared)
        assert done.elapsed == pytest.approx(0.05)
        assert done.finish_time == pytest.approx(1.05)


class TestFairSharing:
    def test_two_equal_flows_halve_throughput(self):
        # 1000 bps, two flows of 1000 bits each from t=0: both finish at 2 s.
        shared = OneHop(const_trace(1000.0))
        shared.add_flow(0, 125, 0.0)
        shared.add_flow(1, 125, 0.0)
        done = drive(shared)
        assert [c.flow_id for c in done] == [0, 1]
        for c in done:
            assert c.finish_time == pytest.approx(2.0)

    def test_late_joiner_shares_remainder(self):
        # A: 2000 bits at t=0; B: 500 bits at t=1.  A runs solo-speed for
        # 1 s (1000 bits), then shares: A needs 2 more s, B needs 1 s at
        # 500 bps.  B done at t=2; A's last 500 bits at full rate: t=2.5.
        shared = OneHop(const_trace(1000.0))
        shared.add_flow(0, 250, 0.0)  # 2000 bits
        shared.add_flow(1, 63, 1.0)  # 504 bits
        done = {c.flow_id: c for c in drive(shared)}
        assert done[1].finish_time == pytest.approx(1.0 + 504 / 500.0, rel=1e-9)
        a_finish = 1.0 + 504 / 500.0 + (2000 - 1000 - 504) / 1000.0
        assert done[0].finish_time == pytest.approx(a_finish, rel=1e-9)

    def test_conservation_across_random_fleet(self):
        rng = np.random.default_rng(0)
        shared = OneHop(const_trace(5e5))
        sizes = rng.integers(10_000, 200_000, 6)
        for i, nbytes in enumerate(sizes):
            shared.add_flow(i, int(nbytes), 0.0)
        done = drive(shared)
        last = max(c.finish_time for c in done)
        total_bits = 8.0 * float(sizes.sum())
        # Link saturated from 0 to last completion.
        assert total_bits == pytest.approx(5e5 * last, rel=1e-9)
        assert shared.sched.delivered_bits == pytest.approx(total_bits, rel=1e-9)
        assert shared.link.delivered_bits == pytest.approx(total_bits, rel=1e-9)

    def test_variable_rate_trace_honoured(self):
        # 1000 bps for 10 s then 2000 bps.  Two flows of 7500 bits each:
        # 10 s at 500 bps each (5000 bits), then 2500 bits at 1000 bps.
        trace = NetworkTrace(
            name="step",
            timestamps=np.array([0.0, 10.0]),
            bandwidths_bps=np.array([1000.0, 2000.0]),
            rtt=0.0,
        )
        shared = OneHop(trace)
        shared.add_flow(0, 937, 0.0)  # 7496 bits
        shared.add_flow(1, 937, 0.0)
        done = drive(shared)
        expected = 10.0 + (7496 - 5000) / 1000.0
        for c in done:
            assert c.finish_time == pytest.approx(expected, rel=1e-9)


class TestProcessorSharingArithmetic:
    """Fair sharing against hand arithmetic: ``cap / n_active`` per flow,
    and a share returns to the others the moment its flow leaves."""

    @pytest.mark.parametrize(
        "kbytes",
        [(1,), (1, 1), (1, 2, 3), (5, 5, 1), (3, 1, 4, 1, 5),
         (2, 7, 1, 8, 2, 8), (1,) * 8, (9, 8, 7, 6, 5, 4, 3, 2, 1)],
    )
    def test_simultaneous_flows_finish_at_the_closed_form(self, kbytes):
        """``n`` flows from t = 0 on a constant link: the k-th smallest
        finishes at ``T_k = T_{k-1} + (n - k + 1)(b_k - b_{k-1}) / C`` —
        every survivor drains the same bits between two departures."""
        cap = 64_000.0
        shared = OneHop(const_trace(cap))
        for i, kb in enumerate(kbytes):
            shared.add_flow(i, 1000 * kb, 0.0)
        finish = {c.flow_id: c.finish_time for c in drive(shared)}
        bits = sorted(8000.0 * kb for kb in kbytes)
        expected, t, prev = [], 0.0, 0.0
        for k, b in enumerate(bits):
            t += (len(bits) - k) * (b - prev) / cap
            expected.append(t)
            prev = b
        got = [finish[i] for i in sorted(finish, key=lambda i: (kbytes[i], i))]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_a_gated_flow_takes_no_share_before_its_data_start(self):
        # 8000 bps.  A (20 kbit) runs alone for 1 s; B (8 kbit, gated 1 s)
        # then halves the link: B done at t = 3, A's last 4 kbit alone by 3.5.
        shared = OneHop(const_trace(8000.0))
        shared.add_flow(0, 2500, 0.0)
        shared.sched.add_flow(1, 1000, 0.0, shared.path, extra_delay=1.0)
        done = {c.flow_id: c for c in drive(shared)}
        assert done[1].elapsed == pytest.approx(3.0, rel=1e-12)
        assert done[0].finish_time == pytest.approx(3.5, rel=1e-12)

    def test_a_cancelled_flow_hands_its_share_back(self):
        # Two 20-kbit flows on 8000 bps; B cancelled at t = 1 after 4 kbit.
        # A has 16 kbit left and the whole link: done at t = 3, not 5.
        shared = OneHop(const_trace(8000.0))
        shared.add_flow(0, 2500, 0.0)
        shared.add_flow(1, 2500, 0.0)
        assert shared.advance(0.0, 1.0) == []
        shared.sched.cancel(1)
        (done,) = drive(shared, 1.0)
        assert done.finish_time == pytest.approx(3.0, rel=1e-12)
        assert shared.link.delivered_bits == pytest.approx(24_000.0, rel=1e-12)

    def test_a_zero_byte_flow_takes_no_share(self):
        shared = OneHop(const_trace(8000.0))
        shared.add_flow(0, 1000, 0.0)
        shared.add_flow(1, 0, 0.0)
        shared.sched.add_flow(2, 0, 0.0, shared.path, extra_delay=0.5)
        done = {c.flow_id: c.finish_time for c in drive(shared)}
        assert done == {0: pytest.approx(1.0, rel=1e-12), 1: 0.0, 2: 0.5}


class TestValidation:
    def test_duplicate_flow_id(self):
        shared = OneHop(const_trace(1e6))
        shared.add_flow(0, 100, 0.0)
        with pytest.raises(ValueError, match="already"):
            shared.add_flow(0, 100, 0.0)

    def test_bad_args(self):
        shared = OneHop(const_trace(1e6))
        with pytest.raises(ValueError):
            shared.add_flow(0, -1, 0.0)
        with pytest.raises(ValueError):
            shared.add_flow(0, 100, -1.0)
        with pytest.raises(RuntimeError):
            shared.next_event(0.0)
        with pytest.raises(ValueError):
            shared.add_flow(0, 100, 5.0)
            shared.advance(5.0, 4.0)

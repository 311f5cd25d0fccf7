"""Multi-link path properties: production vs reference parity, accounting.

``PathScheduler`` is the one engine that splits links between flows;
``reference_scheduler.ReferenceScheduler`` is the per-flow Python loop
it is pinned to.  Following the repo's oracle-parity convention (kNN
backends, the MPC planner), :class:`TestEngineParity` drives both over
the same hypothesis-generated workloads — one- to three-hop paths over
shared links, fair and weighted, gated, cancelled and mid-flight-injected
flows — asserting ``==`` on the completion streams, and the contract
tests in :class:`TestOneHopParity` run against both implementations
(ids ``vector`` = production, ``scalar`` = the reference).  Hand
arithmetic checks lone flows in ``tests/net/test_shared_link.py``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Link,
    NetworkPath,
    NetworkTrace,
    PathScheduler,
    SharedLink,
    lte_trace,
    stable_trace,
)
from repro.streaming.faults import DegradedTrace

from .reference_scheduler import ReferenceScheduler

#: The contract's two implementations.
SCHEDULERS = {"vector": PathScheduler, "scalar": ReferenceScheduler}


def drive(engine, now=0.0):
    """Run an engine's event loop from ``now`` to completion; return all
    completions."""
    out = []
    guard = 0
    while engine.busy():
        t = engine.next_event(now)
        out += engine.advance(now, t)
        now = t
        guard += 1
        assert guard < 100_000, "event loop did not converge"
    return out


#: (nbytes, start_time, weight) triples with staggered starts.
flow_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50_000_000),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)

#: per-flow (size, start, weight, path index, extra_delay, cancel, inject)
#: draws.  ``size`` is seconds the flow would take alone at the trace's
#: mean rate (0 = a zero-byte flow) and starts fall on a 0.1 s lattice
#: inside 4 s, so most draws have several flows sharing a link at once
#: and some start or finish together; byte counts drawn directly leave
#: nine runs in ten with at most two flows ever active.  ``cancel``
#: withdraws the flow that long after its request if it is still in
#: flight (the outage / timeout hook); ``inject`` registers it at its
#: start instant instead of up front (the fleet's deferred-request
#: pattern).
scripted_flows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(lambda k: 0.25 * k),
        st.integers(min_value=0, max_value=40).map(lambda k: 0.1 * k),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0.0, 0.0, 0.5, 2.0]),
        st.sampled_from([None, None, None, None, 0.3, 2.0]),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def sized(flows, mean_mbps):
    """``scripted_flows`` draws with sizes turned into (odd) byte counts."""
    return [
        (int(secs * mean_mbps * 1e6 / 8.0) + (7 if secs else 0), *rest)
        for secs, *rest in flows
    ]


def build_pool(policy, mean, seed):
    """Three links and five paths (one to three hops) sharing them.

    The third link wears two overlapping degradation windows, so the
    grid covers both capacity paths: plain traces kept until their
    segment ends, wrapped traces re-read every step."""
    links = [
        SharedLink(lte_trace(mean, mean / 3, duration=90.0, seed=seed),
                   policy=policy),
        SharedLink(stable_trace(mean * 1.5, duration=90.0, rtt=0.005),
                   policy=policy),
        SharedLink(DegradedTrace(
            lte_trace(mean / 2, mean / 6, duration=90.0, seed=seed + 50),
            [(0.75, 2.25, 0.5), (1.5, 6.0, 0.8)],
        ), policy=policy),
    ]
    paths = [
        NetworkPath((links[0],)),
        NetworkPath((links[0], links[1])),
        NetworkPath((links[1], links[2])),
        NetworkPath((links[0], links[1], links[2])),
        NetworkPath((links[2],)),  # a one-link pool on the wrapped trace
    ]
    return links, paths


def run_script(sched, paths, flows):
    """Drive ``sched`` through a scripted workload; return its completions.

    ``flows`` are ``(nbytes, start, weight, path index, extra_delay,
    cancel, inject)`` tuples — ``scripted_flows`` draws with byte sizes.
    """
    actions = []  # (time, flow id, "add" | "cancel")
    spec = {}
    for fid, flow in enumerate(flows):
        nbytes, start, weight, path_i, delay, cancel_after, inject = flow
        spec[fid] = (nbytes, paths[path_i], weight, delay)
        if inject:
            actions.append((start, fid, "add"))
        else:
            sched.add_flow(
                fid, nbytes, start, paths[path_i],
                weight=weight, extra_delay=delay,
            )
        if cancel_after is not None:
            actions.append((start + cancel_after, fid, "cancel"))
    actions.sort()
    now, out, guard = 0.0, [], 0
    while sched.busy() or actions:
        t = actions[0][0] if actions else math.inf
        if sched.busy():
            t = min(t, sched.next_event(now))
            out += sched.advance(now, t)
        now = t
        while actions and actions[0][0] <= now:
            _, fid, kind = actions.pop(0)
            if kind == "add":
                nbytes, path, weight, delay = spec[fid]
                sched.add_flow(
                    fid, nbytes, now, path, weight=weight, extra_delay=delay
                )
            elif sched.has_flow(fid):
                sched.cancel(fid)
        guard += 1
        assert guard < 100_000, "event loop did not converge"
    return out


def assert_parity(flows, policy, mean, seed, path=None):
    """Production == reference on one scripted workload, field for field;
    byte accounting agrees to float tolerance (the two sum drained bits
    in different orders).  ``path`` puts every flow on that one path."""
    if path is not None:
        flows = [(n, s, w, path, *rest) for n, s, w, _, *rest in flows]
    runs = []
    for factory in (ReferenceScheduler, PathScheduler):
        links, paths = build_pool(policy, mean, seed)
        sched = factory()
        runs.append((run_script(sched, paths, flows), sched, links))
    (ref_done, ref, ref_links), (done, sched, links) = runs
    assert done == ref_done  # Completion is frozen: == is field-exact
    assert sched.delivered_bits == pytest.approx(ref.delivered_bits)
    for got, want in zip(links, ref_links):
        assert got.delivered_bits == pytest.approx(want.delivered_bits)


@pytest.fixture(params=list(SCHEDULERS))
def engine(request):
    return SCHEDULERS[request.param]


class TestOneHopParity:
    """The single-bottleneck pool: every flow on the same one-hop path."""

    # the reference is not compared with itself
    @pytest.mark.parametrize("engine", ["vector"])
    @settings(max_examples=60, deadline=None)
    @given(
        flows=scripted_flows,
        policy=st.sampled_from(["fair", "weighted"]),
        mean=st.floats(min_value=5.0, max_value=150.0),
        seed=st.integers(min_value=0, max_value=10),
        path=st.sampled_from([0, 4]),  # a plain link / a DegradedTrace link
    )
    def test_bit_exact_completions(self, engine, flows, policy, mean, seed, path):
        assert SCHEDULERS[engine] is PathScheduler
        assert_parity(sized(flows, mean), policy, mean, seed, path=path)

    def test_solo_flow_matches_link_integrator(self, engine):
        """A lone flow takes what ``Link.download_time`` (a pool of one)
        reports — for the reference, an independent derivation."""
        trace = lte_trace(40, 12, seed=3)
        path = NetworkPath((SharedLink(trace),))
        sched = engine()
        sched.add_flow(0, 7_654_321, 1.25, path)
        (done,) = drive(sched)
        assert done.elapsed == Link(trace).download_time(7_654_321, 1.25)

    def test_zero_byte_flow_costs_path_rtt(self, engine):
        trace = stable_trace(50.0, rtt=0.025)
        sched = engine()
        sched.add_flow(0, 0, 2.0, NetworkPath((SharedLink(trace),)))
        (done,) = drive(sched)
        assert done.elapsed == pytest.approx(0.025)
        assert done.finish_time == pytest.approx(2.025)


class TestHopMonotonicity:
    """Adding a hop can never speed a transfer up."""

    @settings(max_examples=40, deadline=None)
    @given(
        flows=flow_lists,
        mean=st.floats(min_value=5.0, max_value=100.0),
        extra_mbps=st.floats(min_value=2.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_extra_hop_never_faster(self, flows, mean, extra_mbps, seed):
        one = PathScheduler()
        two = PathScheduler()
        first = lte_trace(mean, mean / 3, duration=120.0, seed=seed)
        extra = stable_trace(extra_mbps, duration=120.0, rtt=0.0)
        path_one = NetworkPath((SharedLink(first),))
        path_two = NetworkPath((SharedLink(first), SharedLink(extra)))
        for fid, (nbytes, start, weight) in enumerate(flows):
            one.add_flow(fid, nbytes, start, path_one, weight=weight)
            two.add_flow(fid, nbytes, start, path_two, weight=weight)
        by_id_one = {c.flow_id: c for c in drive(one)}
        for c in drive(two):
            assert c.elapsed >= by_id_one[c.flow_id].elapsed - 1e-9

    def test_slow_middle_hop_is_the_bottleneck(self):
        """Path throughput is the min over hops, not the access link."""
        fast = stable_trace(100.0, rtt=0.0)
        slow = stable_trace(10.0, rtt=0.0)
        sched = PathScheduler()
        sched.add_flow(
            0, 10_000_000, 0.0, NetworkPath((SharedLink(slow), SharedLink(fast)))
        )
        (done,) = drive(sched)
        assert done.elapsed == pytest.approx(80e6 / 10e6)


class TestSharedHopContention:
    def test_shared_backhaul_splits_between_paths(self):
        """Two flows on disjoint access links sharing one backhaul each
        get half the backhaul when it is the bottleneck."""
        backhaul = SharedLink(stable_trace(20.0, rtt=0.0))
        access_a = SharedLink(stable_trace(100.0, rtt=0.0))
        access_b = SharedLink(stable_trace(100.0, rtt=0.0))
        sched = PathScheduler()
        sched.add_flow(0, 10_000_000, 0.0, NetworkPath((backhaul, access_a)))
        sched.add_flow(1, 10_000_000, 0.0, NetworkPath((backhaul, access_b)))
        done = drive(sched)
        # 80 Mbit each over a shared 20 Mbps hop: both finish at t=8.
        assert [c.finish_time for c in done] == pytest.approx([8.0, 8.0])

    def test_per_link_delivered_accounting(self):
        """Every hop a flow traverses carries its full byte count."""
        backhaul = SharedLink(stable_trace(50.0, rtt=0.0))
        access = SharedLink(stable_trace(50.0, rtt=0.0))
        sched = PathScheduler()
        sched.add_flow(0, 1_000_000, 0.0, NetworkPath((backhaul, access)))
        sched.add_flow(1, 2_000_000, 0.0, NetworkPath((access,)))
        drive(sched)
        assert backhaul.delivered_bits == pytest.approx(8e6)
        assert access.delivered_bits == pytest.approx(24e6)
        assert sched.delivered_bits == pytest.approx(24e6)

    def test_extra_delay_gates_data_start(self):
        """An encode-gated flow starts late but elapsed counts from request."""
        trace = stable_trace(80.0, rtt=0.0)
        plain = PathScheduler()
        plain.add_flow(0, 1_000_000, 0.0, NetworkPath((SharedLink(trace),)))
        (base,) = drive(plain)
        gated = PathScheduler()
        gated.add_flow(
            0, 1_000_000, 0.0, NetworkPath((SharedLink(trace),)), extra_delay=2.5
        )
        (late,) = drive(gated)
        assert late.elapsed == pytest.approx(base.elapsed + 2.5)


class TestEngineParity:
    """production == reference, bit for bit, on shared-link pools.

    The grid mixes weights, staggered starts, gated (``extra_delay``),
    cancelled and mid-flight-injected flows on one/two/three-hop paths
    sharing links — the full surface the CDN fleet exercises.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        flows=scripted_flows,
        policy=st.sampled_from(["fair", "weighted"]),
        mean=st.floats(min_value=5.0, max_value=120.0),
        seed=st.integers(min_value=0, max_value=8),
    )
    def test_bit_exact_multihop_completions(self, flows, policy, mean, seed):
        assert_parity(sized(flows, mean), policy, mean, seed)

    def test_weighted_denominator_beyond_pairwise_block(self):
        """20 weighted flows: NumPy's pairwise summation diverges from
        Python's sequential ``sum`` at 8+ terms, so production must sum
        the weighted share denominator in insertion order."""
        flows = [
            (1_000_000 + 37 * i, 0.25 * (i % 3), 0.3 + 0.17 * i, i % 4, 0.0,
             None, False)
            for i in range(20)
        ]
        assert_parity(flows, "weighted", 60.0, 2)

    def test_weighted_single_link_pool_beyond_pairwise(self):
        """A one-link pool must also sum weighted denominators in
        insertion order — 12 concurrent one-hop flows."""
        flows = [
            (800_000 + 12_345 * i, 0.2 * (i % 4), 0.3 + 0.21 * i, 0, 0.0,
             None, False)
            for i in range(12)
        ]
        assert_parity(flows, "weighted", 50.0, 3, path=0)

    def test_fair_many_flows_bit_exact(self):
        flows = [
            (500_000 + 991 * i, 0.1 * i, 1.0, i % 4, 0.0, None, False)
            for i in range(24)
        ]
        assert_parity(flows, "fair", 45.0, 5)

    def test_trace_boundary_is_exactly_the_next_event(self):
        """A plain link's boundary is found through its stored lower bound
        but returned as the trace's own ``now + (hi - now % duration)``:
        both engines wake at the same instants — first the 1.5 s boundary,
        tied with a gate that opens on it, later the loop's wrap alone."""
        runs = []
        for factory in SCHEDULERS.values():
            step = SharedLink(
                NetworkTrace("step", [0.0, 1.5], [30e6, 12e6], rtt=0.0)
            )
            side = SharedLink(stable_trace(50.0, rtt=0.0))
            sched = factory()
            sched.add_flow(0, 9_000_000, 0.0, NetworkPath((step,)))
            sched.add_flow(1, 6_000_000, 0.0, NetworkPath((step, side)))
            sched.add_flow(2, 2_000_000, 0.0, NetworkPath((side,)), extra_delay=1.5)
            now, instants, done = 0.0, [], []
            while sched.busy():
                t = sched.next_event(now)
                instants.append(t)
                done += sched.advance(now, t)
                now = t
            runs.append((instants, done))
        assert runs[0] == runs[1]
        instants, done = runs[1]
        assert instants[0] == 1.5 and [c.flow_id for c in done] == [2, 1, 0]
        wrap = [t for t in instants if 2.9 < t < 3.1]
        assert len(wrap) == 1 and wrap[0] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "flows",
        [
            pytest.param(
                [(2_000_000, 0.0, 1.0, 0, 0.0, None, False),
                 (1_500_000, 0.1, 1.0, 1, 2.0, 0.3, False),
                 (900_000, 0.2, 2.0, 2, 0.0, None, False)],
                id="cancelled-while-gated",
            ),
            pytest.param(
                [(16_000_000, 0.0, 1.0, 0, 0.0, None, False),
                 (1_500_000, 0.0, 1.0, 1, 2.0, 0.3, False),
                 (1_200_000, 0.5, 1.0, 1, 2.0, None, True)],
                id="slot-reused-under-a-stale-gate",
            ),
            pytest.param(
                [(3_000_000, 0.0, 1.0, 1, 0.0, None, False),
                 (0, 0.4, 1.0, 3, 0.0, None, False),
                 (0, 0.6, 1.0, 0, 0.5, None, True),
                 (700_000, 0.2, 0.5, 2, 0.0, None, False)],
                id="zero-byte-flows",
            ),
            pytest.param(
                [(1_000_000, 0.0, 1.0, 0, 0.0, None, False),
                 (4_000, 1.0, 1.0, 0, 0.0, None, True)],
                id="flow-injected-after-the-first-finished",
            ),
            pytest.param(
                [(2_500_000, 0.0, 1.0, 0, 0.0, None, False),
                 (2_000_000, 0.1, 3.0, 0, 0.0, None, False),
                 (1_800_000, 0.3, 1.0, 3, 0.0, None, True),
                 (600_000, 0.2, 1.0, 0, 0.0, 0.5, False)],
                id="three-hop-flow-joins-one-hop-pool",
            ),
            pytest.param(
                [(6_000_000, 0.0, 1.0, 2, 0.0, None, False),
                 (400_000, 0.0, 1.0, 0, 0.0, None, False),
                 (300_000, 0.5, 1.0, 0, 0.0, None, True),
                 (1_000_000, 2.5, 1.0, 0, 0.0, None, True)],
                id="link-reactivated-after-its-segment-ended",
            ),
        ],
    )
    @pytest.mark.parametrize("policy", ["fair", "weighted"])
    def test_scripted_life_cycle_cases(self, flows, policy):
        """The gated → active → finished transitions the incremental
        bookkeeping has to get right, one hand-written script each."""
        assert_parity(flows, policy, 40.0, 4)


class TestLifeCycleBookkeeping:
    """White-box pins on ``_VectorState``'s packed active block: the three
    traps the incremental activation fell into while it was written."""

    def pool(self):
        links = [SharedLink(stable_trace(40.0, duration=60.0, rtt=0.01))
                 for _ in range(3)]
        return (
            NetworkPath((links[0],)),
            NetworkPath((links[0], links[1], links[2])),
        )

    def test_widening_the_hop_matrix_never_touches_the_padding_link(self):
        """``hops`` grows from 2 to 3 hop rows while one-hop flows are
        active, padding their columns with link 0; counting over matrix
        columns would then decrement the padding link once more per flow
        than it was incremented, drive its denominator negative and every
        rate to -inf."""
        one_hop, three_hop = self.pool()
        sched = PathScheduler()
        sched.add_flow(0, 2_000_000, 0.0, one_hop)
        sched.add_flow(1, 2_000_000, 0.0, one_hop)
        v = sched._vec
        now = sched.next_event(0.0)          # both gates expire at 0.01
        sched.advance(0.0, now)
        sched.next_event(now)
        assert v.n_act == 2 and v.hops.shape[0] == 2
        sched.add_flow(2, 2_000_000, now, three_hop)
        assert v.hops.shape[0] == 3 and not v.hops[2, :2].any()
        done, guard = [], 0
        while sched.busy():
            t = sched.next_event(now)
            assert math.isfinite(t) and t >= now
            assert v.denom[0] == 1.0 and 0 not in v.link_count
            assert all(n > 0 for n in v.link_count.values())
            assert [f.col for f in v.flows] == list(range(v.n_act))
            done += sched.advance(now, t)
            now = t
            guard += 1
            assert guard < 1000
        assert sorted(c.flow_id for c in done) == [0, 1, 2]
        assert not v.link_count and v.n_act == 0 and not v.flows
        assert (v.denom == 1.0).all() and not v.segments

    def test_stale_gate_is_skipped_by_identity(self):
        """A flow cancelled while gated leaves its heap entry behind; the
        entry names a dead flow object, which must not be given a column
        (it would take shares for ever) nor wake the driver."""
        one_hop, _ = self.pool()
        sched = PathScheduler()
        sched.add_flow(0, 50_000_000, 0.0, one_hop)
        sched.add_flow(1, 1_000_000, 0.0, one_hop, extra_delay=1.0)
        dead = sched._flows[1]
        sched.cancel(1)
        assert not dead.live and any(f is dead for *_, f in sched._vec.gated)
        sched.add_flow(2, 1_000_000, 0.0, one_hop, extra_delay=3.0)
        newcomer = sched._flows[2]
        now = 0.0
        while now < 2.0:                     # past the dead flow's gate
            t = min(sched.next_event(now), 2.0)
            assert t != dead.data_start      # ... which wakes nobody
            sched.advance(now, t)
            now = t
        assert sched._vec.flows == [sched._flows[0]] and dead.col == -1
        assert 1.0 < dead.data_start < 2.0 < newcomer.data_start
        assert sched.next_event(now) == newcomer.data_start
        assert not sched._gate_due(now) and sched._gate_due(newcomer.data_start)

    def test_nan_drain_leaves_the_flow_inactive(self):
        """The old active mask's ``remaining > 0`` doubled as a NaN guard.
        A flow whose bits turned NaN must leave the block, keeping its NaN
        bits on the flow, so the clock stalls at ``inf`` (where the fleet's
        watchdog sees it) instead of creeping from boundary to boundary."""
        trace = stable_trace(40.0, duration=60.0, rtt=0.0)
        trace._bw_list[0] = math.nan         # what the lookups read
        path = NetworkPath((SharedLink(trace),))
        sched = PathScheduler()
        sched.add_flow(0, 1_000_000, 0.0, path)
        sched.add_flow(1, 1_000_000, 0.0, path)
        t = sched.next_event(0.0)
        assert sched.advance(0.0, t) == []
        v = sched._vec
        assert v.n_act == 0 and not v.link_count and not v.segments
        assert all(math.isnan(f.remaining) for f in sched._flows.values())
        assert sched.next_event(t) == math.inf


class TestSegmentBound:
    """``_VectorState.watch`` keeps a plain link's capacity until ``now``
    reaches a stored lower bound on its segment's end, and ``next_event``
    skips the link's boundary while that bound exceeds the best instant
    found.  Both are exact only if the bound lies below every float the
    trace's own ``now + time_to_next_change(now)`` gives for that boundary
    and every instant before the bound is still inside the segment."""

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.floats(min_value=0.01, max_value=500.0),
        loops=st.integers(min_value=0, max_value=10**6),
        read=st.floats(min_value=0.0, max_value=0.999),
        later=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
    )
    def test_bound_is_below_the_boundary_and_inside_the_segment(
        self, width, loops, read, later
    ):
        trace = NetworkTrace("two", [0.0, width], [10e6, 20e6], rtt=0.0)
        duration = trace.duration
        t0 = loops * duration + read * width
        link = SharedLink(trace)
        sched = PathScheduler()
        sched.add_flow(0, 1_000, 0.0, NetworkPath((link,)))
        v = sched._vec
        v.watch(1, t0)
        if 1 in v.wrapped:
            # only where t0 rounds onto the boundary its ``% duration``
            # falls short of (3 loops of width 85.4263598930099, read 0):
            # the segment's end would not move the clock
            local = t0 % duration
            assert t0 + ((width if local < width else duration) - local) <= t0
            assert t0 + trace.time_to_next_change(t0) > t0
            return
        until, hi, _ = v.segments[1]
        end = t0 + trace.time_to_next_change(t0)
        # instants spread over the segment, then the floats just below its end
        nows = [t0 + f * (end - t0) for f in later]
        t = end
        for _ in range(6):
            t = math.nextafter(t, 0.0)
            nows.append(t)
        for now in nows:
            if now < t0 or now % duration >= hi:
                continue                     # outside the segment read at t0
            assert until <= now + trace.time_to_next_change(now)
            if now < until:
                assert trace.bandwidth_at(now) == v.cap[1]


class TestMonotoneClock:
    """Gate expiry is one-way, so every entry point that is shown an
    instant refuses one earlier than the last."""

    def busy_pool(self):
        path = NetworkPath((SharedLink(stable_trace(40.0, duration=60.0)),))
        sched = PathScheduler()
        sched.add_flow(0, 5_000_000, 0.0, path)
        sched.add_flow(1, 5_000_000, 0.0, path)
        sched.advance(0.0, 0.5)
        return sched

    def test_next_event_rejects_an_earlier_instant(self):
        sched = self.busy_pool()
        assert sched.next_event(0.5) > 0.5   # the same instant again is fine
        with pytest.raises(ValueError, match=r"time went backwards: 0\.25 after 0\.5"):
            sched.next_event(0.25)

    def test_advance_rejects_an_earlier_instant(self):
        sched = self.busy_pool()
        with pytest.raises(ValueError, match="time went backwards"):
            sched.advance(0.25, 0.75)
        with pytest.raises(ValueError, match="cannot advance backwards"):
            sched.advance(0.75, 0.5)

    @pytest.mark.parametrize(
        "call", ["next_event", "advance-to", "advance-from"]
    )
    def test_a_nan_instant_is_refused_and_changes_nothing(self, call):
        """NaN passes every ``<`` order check: ``advance(t, nan)`` used to
        return ``[]`` leaving every active flow's bits NaN, ``busy()`` true
        and ``next_event`` at ``inf`` for ever."""
        sched = self.busy_pool()
        ahead = sched.next_event(0.5)
        act = {
            "next_event": lambda: sched.next_event(math.nan),
            "advance-to": lambda: sched.advance(0.5, math.nan),
            "advance-from": lambda: sched.advance(math.nan, 1.0),
        }[call]
        with pytest.raises(ValueError, match="nan"):
            act()
        assert sched.next_event(0.5) == ahead
        assert sorted(c.flow_id for c in drive(sched, now=0.5)) == [0, 1]


class TestValidation:
    def test_path_needs_links(self):
        with pytest.raises(ValueError, match="at least one link"):
            NetworkPath(())

    def test_path_rejects_duplicate_hop(self):
        link = SharedLink(stable_trace(10.0))
        with pytest.raises(ValueError, match="distinct"):
            NetworkPath((link, link))

    def test_add_flow_validation(self):
        sched = PathScheduler()
        path = NetworkPath((SharedLink(stable_trace(10.0)),))
        sched.add_flow(0, 100, 0.0, path)
        with pytest.raises(ValueError, match="already in flight"):
            sched.add_flow(0, 100, 0.0, path)
        with pytest.raises(ValueError, match="non-negative"):
            sched.add_flow(1, -1, 0.0, path)
        with pytest.raises(ValueError, match="non-negative"):
            sched.add_flow(1, 100, -1.0, path)
        with pytest.raises(ValueError, match="positive"):
            sched.add_flow(1, 100, 0.0, path, weight=0.0)
        with pytest.raises(ValueError, match="extra_delay"):
            sched.add_flow(1, 100, 0.0, path, extra_delay=-0.1)
        with pytest.raises(RuntimeError):
            PathScheduler().next_event(0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"nbytes": math.nan},
            {"start_time": math.nan},
            {"start_time": math.inf},
            {"weight": math.nan},
            {"extra_delay": math.nan},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_add_flow_rejects_non_finite(self, bad):
        """A non-finite flow never drains: the driver loop used to walk
        ``now`` to infinity with ``busy()`` still true."""
        sched = PathScheduler()
        args = {"nbytes": 100, "start_time": 0.0, "weight": 1.0, "extra_delay": 0.0}
        args.update(bad)
        (name,) = bad
        with pytest.raises(ValueError, match=rf"flow 7: {name} must be finite"):
            sched.add_flow(
                7, path=NetworkPath((SharedLink(stable_trace(10.0)),)), **args
            )
        assert not sched.busy()

"""Multi-link path properties: production vs reference parity, accounting.

``PathScheduler`` is the one engine that splits links between flows;
``reference_scheduler.ReferenceScheduler`` is the per-flow epoch loop it
is pinned to.  Following the repo's oracle-parity convention (kNN
backends, the MPC planner), :class:`TestEngineParity` drives both over
the same hypothesis-generated workloads — one- to three-hop paths over
shared links, gated, cancelled and mid-flight-injected flows — asserting
``==`` on the completion streams, and the contract tests in
:class:`TestOneHopParity` run against both implementations (ids
``production`` and ``reference``).  :class:`TestDrainTolerance` holds
production to its drain-every-step predecessor
(``drain_scheduler.DrainScheduler``) within a stated bound.  Hand
arithmetic checks lone flows in ``tests/net/test_shared_link.py``.
"""

import math

import numpy as np
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

from .drain_scheduler import DrainScheduler
from .reference_scheduler import ReferenceScheduler
from .test_traces import period

#: The contract's two implementations.
SCHEDULERS = {"production": PathScheduler, "reference": ReferenceScheduler}


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


#: (nbytes, start_time) pairs with staggered starts.
flow_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50_000_000),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)

#: per-flow (size, start, path index, extra_delay, cancel, inject) draws.  ``size`` is seconds the flow would take alone at the trace's
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


def build_pool(mean, seed):
    """Three links and five paths (one to three hops) sharing them.

    The third link wears two overlapping degradation windows, so the
    grid covers both capacity paths: plain traces kept until their
    segment ends, wrapped traces re-read every step."""
    links = [
        SharedLink(lte_trace(mean, mean / 3, duration=90.0, seed=seed)),
        SharedLink(stable_trace(mean * 1.5, duration=90.0, rtt=0.005)),
        SharedLink(DegradedTrace(
            lte_trace(mean / 2, mean / 6, duration=90.0, seed=seed + 50),
            [(0.75, 2.25, 0.5), (1.5, 6.0, 0.8)],
        )),
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

    ``flows`` are ``(nbytes, start, path index, extra_delay, cancel,
    inject)`` tuples — ``scripted_flows`` draws with byte sizes.
    """
    actions = []  # (time, flow id, "add" | "cancel")
    spec = {}
    for fid, flow in enumerate(flows):
        nbytes, start, path_i, delay, cancel_after, inject = flow
        spec[fid] = (nbytes, paths[path_i], delay)
        if inject:
            actions.append((start, fid, "add"))
        else:
            sched.add_flow(fid, nbytes, start, paths[path_i], extra_delay=delay)
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
                nbytes, path, delay = spec[fid]
                sched.add_flow(fid, nbytes, now, path, extra_delay=delay)
            elif sched.has_flow(fid):
                sched.cancel(fid)
        guard += 1
        assert guard < 100_000, "event loop did not converge"
    return out


def assert_parity(flows, mean, seed, path=None):
    """Production == reference on one scripted workload, field for field;
    byte accounting agrees to float tolerance (the two sum drained bits
    in different orders).  ``path`` puts every flow on that one path."""
    if path is not None:
        flows = [(n, s, path, *rest) for n, s, _, *rest in flows]
    runs = []
    for factory in (ReferenceScheduler, PathScheduler):
        links, paths = build_pool(mean, seed)
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
    @pytest.mark.parametrize("engine", ["production"])
    @settings(max_examples=60, deadline=None)
    @given(
        flows=scripted_flows,
        mean=st.floats(min_value=5.0, max_value=150.0),
        seed=st.integers(min_value=0, max_value=10),
        path=st.sampled_from([0, 4]),  # a plain link / a DegradedTrace link
    )
    def test_bit_exact_completions(self, engine, flows, mean, seed, path):
        assert SCHEDULERS[engine] is PathScheduler
        assert_parity(sized(flows, mean), mean, seed, path=path)

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
        for fid, (nbytes, start) in enumerate(flows):
            one.add_flow(fid, nbytes, start, path_one)
            two.add_flow(fid, nbytes, start, path_two)
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


class TestTwoHopArithmetic:
    """Per-link fair shares capped by the path minimum, against hand
    arithmetic.  Bandwidth a flow cannot use on a non-bottleneck hop is
    not handed to the others (the module's conservative model)."""

    def pool(self, backhaul_mbps, access_mbps):
        backhaul = SharedLink(stable_trace(backhaul_mbps, rtt=0.0))
        access = SharedLink(stable_trace(access_mbps, rtt=0.0))
        return backhaul, access, NetworkPath((backhaul, access)), NetworkPath((access,))

    def test_backhaul_binds_then_the_hit_flow_keeps_its_fair_share(self):
        # 12 Mbps backhaul, 60 Mbps access.  Two misses (24 and 12 Mbit)
        # get min(12/2, 60/3) = 6 Mbps, the hit (48 Mbit) 60/3 = 20 —
        # not the 48 the misses leave unused.  At t = 2 the small miss
        # is done; the big one has 12 Mbit left at min(12, 30) = 12 and
        # the hit 8 Mbit at 30: hit done at 2 + 8/30, and the big miss
        # drains 3.2 Mbit meanwhile, then 8.8 Mbit alone at 12 — t = 3.
        backhaul, access, miss, hit = self.pool(12.0, 60.0)
        sched = PathScheduler()
        sched.add_flow(0, 3_000_000, 0.0, miss)
        sched.add_flow(1, 1_500_000, 0.0, miss)
        sched.add_flow(2, 6_000_000, 0.0, hit)
        done = {c.flow_id: c.finish_time for c in drive(sched)}
        assert done[1] == pytest.approx(2.0, rel=1e-12)
        assert done[2] == pytest.approx(2.0 + 8.0 / 30.0, rel=1e-12)
        assert done[0] == pytest.approx(3.0, rel=1e-12)
        assert backhaul.delivered_bits == pytest.approx(36e6, rel=1e-12)
        assert access.delivered_bits == pytest.approx(84e6, rel=1e-12)

    def test_access_binds_a_miss_like_a_hit(self):
        # 100 Mbps backhaul, 10 Mbps access: the access hop binds both
        # flows at 5 Mbps until the 10-Mbit hit leaves at t = 2; the miss
        # then has 10 Mbit left at 10 Mbps — t = 3.
        _, _, miss, hit = self.pool(100.0, 10.0)
        sched = PathScheduler()
        sched.add_flow(0, 2_500_000, 0.0, miss)
        sched.add_flow(1, 1_250_000, 0.0, hit)
        done = {c.flow_id: c.finish_time for c in drive(sched)}
        assert done == {
            1: pytest.approx(2.0, rel=1e-12), 0: pytest.approx(3.0, rel=1e-12)
        }

    def test_the_bottleneck_moves_when_sharers_leave(self):
        # 10 Mbps backhaul, 30 Mbps access, one 30-Mbit miss and three
        # 12-Mbit hits.  Four on the access: 7.5 Mbps each, so the access
        # binds the miss (min(10, 7.5)).  The hits leave at t = 1.6; the
        # miss's last 18 Mbit run at min(10, 30) — the backhaul: t = 3.4.
        _, _, miss, hit = self.pool(10.0, 30.0)
        sched = PathScheduler()
        sched.add_flow(0, 3_750_000, 0.0, miss)
        for fid in (1, 2, 3):
            sched.add_flow(fid, 1_500_000, 0.0, hit)
        done = {c.flow_id: c.finish_time for c in drive(sched)}
        assert [done[f] for f in (1, 2, 3)] == pytest.approx([1.6] * 3, rel=1e-12)
        assert done[0] == pytest.approx(3.4, rel=1e-12)


def seeded_flows(seed, n=9):
    """``n`` flows as ``(flow id, nbytes, start, path index, extra_delay)``
    on the ``build_pool`` paths, several of them starting together."""
    rng = np.random.default_rng(seed)
    return [
        (fid, int(rng.integers(0, 4_000_000)), 0.25 * int(rng.integers(0, 6)),
         int(rng.integers(0, 5)), float(rng.choice([0.0, 0.0, 0.5])))
        for fid in range(n)
    ]


def completions(flows, seed, order=None):
    """Completions of ``flows`` on a fresh ``build_pool``, added in
    ``order`` (indices into ``flows``; default as listed)."""
    _, paths = build_pool(40.0, seed)
    sched = PathScheduler()
    for i in order if order is not None else range(len(flows)):
        fid, nbytes, start, path_i, delay = flows[i]
        sched.add_flow(fid, nbytes, start, paths[path_i], extra_delay=delay)
    return drive(sched)


class TestFairSharingInvariants:
    """What a count-based fair share guarantees whatever the pool."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("one_hop", [True, False], ids=["one-hop", "mixed"])
    def test_insertion_order_is_invisible(self, seed, one_hop):
        """A share is ``cap / count``: the same flows added in another
        order give bit-identical completions."""
        flows = seeded_flows(seed)
        if one_hop:
            flows = [(fid, n, s, 0, d) for fid, n, s, _, d in flows]
        order = np.random.default_rng(100 + seed).permutation(len(flows))
        base = completions(flows, seed)
        assert completions(flows, seed, order=order.tolist()) == base
        assert completions(flows, seed, order=order[::-1].tolist()) == base

    @pytest.mark.parametrize("seed", range(5))
    def test_another_sharer_never_speeds_a_flow_up(self, seed):
        """Adding a flow only raises link counts, so every other flow
        finishes no earlier than without it."""
        flows = seeded_flows(seed)
        alone = {c.flow_id: c.finish_time for c in completions(flows, seed)}
        extra = (len(flows), 3_000_000, 0.25, 3, 0.0)  # the three-hop path
        crowded = {
            c.flow_id: c.finish_time
            for c in completions(flows + [extra], seed)
        }
        for fid, t in alone.items():
            assert crowded[fid] >= t * (1.0 - 1e-12)
        assert any(crowded[fid] > alone[fid] for fid in alone)


class TestEngineParity:
    """production == reference, bit for bit, on shared-link pools.

    The grid mixes staggered starts, gated (``extra_delay``),
    cancelled and mid-flight-injected flows on one/two/three-hop paths
    sharing links — the full surface the CDN fleet exercises.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        flows=scripted_flows,
        mean=st.floats(min_value=5.0, max_value=120.0),
        seed=st.integers(min_value=0, max_value=8),
    )
    def test_bit_exact_multihop_completions(self, flows, mean, seed):
        assert_parity(sized(flows, mean), mean, seed)

    def test_fair_many_flows_bit_exact(self):
        flows = [
            (500_000 + 991 * i, 0.1 * i, i % 4, 0.0, None, False)
            for i in range(24)
        ]
        assert_parity(flows, 45.0, 5)

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
                [(2_000_000, 0.0, 0, 0.0, None, False),
                 (1_500_000, 0.1, 1, 2.0, 0.3, False),
                 (900_000, 0.2, 2, 0.0, None, False)],
                id="cancelled-while-gated",
            ),
            pytest.param(
                [(16_000_000, 0.0, 0, 0.0, None, False),
                 (1_500_000, 0.0, 1, 2.0, 0.3, False),
                 (1_200_000, 0.5, 1, 2.0, None, True)],
                id="slot-reused-under-a-stale-gate",
            ),
            pytest.param(
                [(3_000_000, 0.0, 1, 0.0, None, False),
                 (0, 0.4, 3, 0.0, None, False),
                 (0, 0.6, 0, 0.5, None, True),
                 (700_000, 0.2, 2, 0.0, None, False)],
                id="zero-byte-flows",
            ),
            pytest.param(
                [(1_000_000, 0.0, 0, 0.0, None, False),
                 (4_000, 1.0, 0, 0.0, None, True)],
                id="flow-injected-after-the-first-finished",
            ),
            pytest.param(
                [(2_500_000, 0.0, 0, 0.0, None, False),
                 (2_000_000, 0.1, 0, 0.0, None, False),
                 (1_800_000, 0.3, 3, 0.0, None, True),
                 (600_000, 0.2, 0, 0.0, 0.5, False)],
                id="three-hop-flow-joins-one-hop-pool",
            ),
            pytest.param(
                [(6_000_000, 0.0, 2, 0.0, None, False),
                 (400_000, 0.0, 0, 0.0, None, False),
                 (300_000, 0.5, 0, 0.0, None, True),
                 (1_000_000, 2.5, 0, 0.0, None, True)],
                id="link-reactivated-after-its-segment-ended",
            ),
        ],
    )
    def test_scripted_life_cycle_cases(self, flows):
        """The gated → active → finished transitions the incremental
        bookkeeping has to get right, one hand-written script each."""
        assert_parity(flows, 40.0, 4)


class TestDrainTolerance:
    """production against its drain-every-step predecessor.

    The two differ only in where float rounding falls: the predecessor
    drains every active flow at every instant, production drains a group
    only when its rate changes.  So they are the same fluid model if, on
    the parity grid, they complete the same flows in the same order at
    instants a few ulps apart.  Measured over 1,500 grid draws: the same
    order every time, finish instants at most 1.2e-15 apart (relative).
    The bound is 1e-12 of the finish instant, for the finish instant and
    for the elapsed time (which can be much shorter than the instant)."""

    RTOL = 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        flows=scripted_flows,
        mean=st.floats(min_value=5.0, max_value=120.0),
        seed=st.integers(min_value=0, max_value=8),
        path=st.sampled_from([None, 0, 4]),
    )
    def test_same_order_and_instants_within_bound(self, flows, mean, seed, path):
        flows = sized(flows, mean)
        if path is not None:
            flows = [(n, s, path, *rest) for n, s, _, *rest in flows]
        runs = []
        for factory in (DrainScheduler, PathScheduler):
            _, paths = build_pool(mean, seed)
            runs.append(run_script(factory(), paths, flows))
        drained, done = runs
        assert [c.flow_id for c in done] == [c.flow_id for c in drained]
        for got, want in zip(done, drained):
            scale = self.RTOL * want.finish_time
            assert abs(got.finish_time - want.finish_time) <= scale
            assert abs(got.elapsed - want.elapsed) <= scale


class TestLifeCycleBookkeeping:
    """White-box pins on ``_PoolState``'s groups: per-link counts, the
    order inside a group, stale gates and the NaN rule."""

    def pool(self):
        links = [SharedLink(stable_trace(40.0, duration=60.0, rtt=0.01))
                 for _ in range(3)]
        return (
            NetworkPath((links[0],)),
            NetworkPath((links[0], links[1], links[2])),
        )

    def test_counts_and_groups_track_the_active_flows(self):
        """At every step each link counts exactly the flows of the groups
        crossing it, every group holds its bits ascending with one flow
        object per slot, and a drained pool leaves nothing behind."""
        one_hop, three_hop = self.pool()
        sched = PathScheduler()
        for fid, nbytes in enumerate((2_000_000, 1_000_000, 3_000_000)):
            sched.add_flow(fid, nbytes, 0.0, one_hop)
        sched.add_flow(3, 2_500_000, 0.0, three_hop, extra_delay=0.2)
        pool = sched._pool
        now, done, guard = 0.0, [], 0
        while sched.busy():
            t = sched.next_event(now)
            assert math.isfinite(t) and t >= now
            want = [0] * len(pool.count)
            for g in pool.active:
                assert g.flows and g.bits == sorted(g.bits)
                assert all(f.group is g for f in g.flows)
                for li in g.hops:
                    want[li] += len(g.flows)
            assert pool.count == want
            done += sched.advance(now, t)
            now = t
            guard += 1
            assert guard < 1000
        assert sorted(c.flow_id for c in done) == [0, 1, 2, 3]
        assert not pool.active and not any(pool.count) and not pool.segments
        assert len(pool.groups) == 2  # one per hop tuple, kept for reuse

    def test_flow_count_and_membership_follow_add_cancel_and_drain(self):
        """``n_flows`` (the count the fleet's watchdog prints) and
        ``has_flow`` agree with the flows added, cancelled and drained."""
        one_hop, three_hop = self.pool()
        sched = PathScheduler()
        sched.add_flow(0, 1_000_000, 0.0, one_hop)
        sched.add_flow(1, 2_000_000, 0.0, three_hop)
        sched.add_flow(2, 3_000_000, 0.0, one_hop)
        assert sched.n_flows == 3
        sched.cancel(1)
        assert sched.n_flows == 2
        assert [sched.has_flow(f) for f in (0, 1, 2)] == [True, False, True]
        now, done = 0.0, []
        while sched.busy():
            t = sched.next_event(now)
            done += sched.advance(now, t)
            now = t
            assert sched.n_flows == 2 - len(done)
            assert all(not sched.has_flow(c.flow_id) for c in done)
        assert sorted(c.flow_id for c in done) == [0, 2]

    def test_stale_gate_is_skipped_by_identity(self):
        """A flow cancelled while gated leaves its heap entry behind; the
        entry names a dead flow object, which must not join a group (it
        would take shares for ever) nor wake the driver."""
        one_hop, _ = self.pool()
        sched = PathScheduler()
        sched.add_flow(0, 50_000_000, 0.0, one_hop)
        sched.add_flow(1, 1_000_000, 0.0, one_hop, extra_delay=1.0)
        dead = sched._flows[1]
        sched.cancel(1)
        assert not dead.live and any(f is dead for *_, f in sched._pool.gated)
        sched.add_flow(2, 1_000_000, 0.0, one_hop, extra_delay=3.0)
        newcomer = sched._flows[2]
        now = 0.0
        while now < 2.0:                     # past the dead flow's gate
            t = min(sched.next_event(now), 2.0)
            assert t != dead.data_start      # ... which wakes nobody
            sched.advance(now, t)
            now = t
        (group,) = sched._pool.active
        assert group.flows == [sched._flows[0]] and dead.group is None
        assert 1.0 < dead.data_start < 2.0 < newcomer.data_start
        assert sched.next_event(now) == newcomer.data_start
        assert not sched._gate_due(now) and sched._gate_due(newcomer.data_start)

    @pytest.mark.parametrize("hop", [0, 1], ids=["first-hop", "second-hop"])
    def test_a_nan_rate_deactivates_the_group(self, hop):
        """A share that reads NaN makes its group's rate NaN, wherever the
        hop sits on the path (a plain ``min`` would drop it unless it came
        first).  At the next ``advance`` the group's flows leave it with
        NaN bits, so the clock stalls at ``inf`` (where the fleet's watchdog
        sees it) instead of creeping from boundary to boundary."""
        traces = [stable_trace(40.0, duration=60.0, rtt=0.0) for _ in range(2)]
        traces[hop]._bw_list[0] = math.nan  # what the lookups read
        path = NetworkPath(tuple(SharedLink(tr) for tr in traces))
        sched = PathScheduler()
        sched.add_flow(0, 1_000_000, 0.0, path)
        sched.add_flow(1, 1_000_000, 0.0, path)
        t = sched.next_event(0.0)
        assert sched.advance(0.0, t) == []
        pool = sched._pool
        assert not pool.active and not any(pool.count) and not pool.segments
        assert all(math.isnan(f.remaining) for f in sched._flows.values())
        assert sched.next_event(t) == math.inf


class TestSegmentBound:
    """``_PoolState.watch`` keeps a plain link's capacity until ``now``
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
        duration = period(trace)
        t0 = loops * duration + read * width
        link = SharedLink(trace)
        sched = PathScheduler()
        sched.add_flow(0, 1_000, 0.0, NetworkPath((link,)))
        v = sched._pool
        v.watch(0, t0)
        if 0 in v.wrapped:
            # only where t0 rounds onto the boundary its ``% duration``
            # falls short of (3 loops of width 85.4263598930099, read 0):
            # the segment's end would not move the clock
            local = t0 % duration
            assert t0 + ((width if local < width else duration) - local) <= t0
            assert t0 + trace.time_to_next_change(t0) > t0
            return
        until, hi, _ = v.segments[0]
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
                assert trace.bandwidth_at(now) == v.cap[0]


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
            {"extra_delay": math.nan},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_add_flow_rejects_non_finite(self, bad):
        """A non-finite flow never drains: the driver loop used to walk
        ``now`` to infinity with ``busy()`` still true."""
        sched = PathScheduler()
        args = {"nbytes": 100, "start_time": 0.0, "extra_delay": 0.0}
        args.update(bad)
        (name,) = bad
        with pytest.raises(ValueError, match=rf"flow 7: {name} must be finite"):
            sched.add_flow(
                7, path=NetworkPath((SharedLink(stable_trace(10.0)),)), **args
            )
        assert not sched.busy()

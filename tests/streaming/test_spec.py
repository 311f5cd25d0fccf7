"""FleetSpec: the one validated fleet configuration object.

``simulate_fleet`` takes ``(sessions, spec=None, **fields)`` and
forwards ``fields`` verbatim to ``FleetSpec(**fields)``,
so the keyword form and the ``spec=`` form are bit-exact by construction
— pinned here anyway, end to end — and an unknown keyword is rejected by
the dataclass itself.
"""

import math
import warnings

import numpy as np
import pytest

from repro.metrics import QoEModel
from repro.net import stable_trace
from repro.streaming import (
    AbandonPolicy,
    ContinuousMPC,
    FaultSchedule,
    FleetSession,
    FleetSpec,
    SRQualityModel,
    SRResultCache,
    simulate_fleet,
    single_link_cdn,
    uniform_cdn,
)

from .helpers import spec, sr_lat


def make_sessions(n=5):
    qm = SRQualityModel()
    lat = sr_lat()
    ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
    return [
        FleetSession(
            spec=spec(6, name=f"v{i % 2}"),
            controller=ctrl,
            sr_latency=lat,
            quality_model=qm,
            join_time=1.0 * i,
            churn=AbandonPolicy(max_total_stall=20.0),
        )
        for i in range(n)
    ]


def make_topology(n_edges=2):
    return uniform_cdn(
        n_edges,
        access_mbps=80.0,
        backhaul_mbps=30.0,
        cache_bytes=1 << 32,
        assignment="static",
        n_encode_workers=3,
        encode_seconds=0.05,
    )


def assert_identical(a, b):
    assert a.report == b.report
    assert a.sessions == b.sessions
    assert a.assignment == b.assignment
    assert a.end_times == b.end_times


class TestSpecShimBitExact:
    def test_single_link_kwargs_equal_spec(self):
        trace = stable_trace(60.0, duration=600.0)
        loose = simulate_fleet(
            make_sessions(), topology=single_link_cdn(trace),
            sr_cache="shared",
        )
        via_spec = simulate_fleet(
            make_sessions(),
            spec=FleetSpec(topology=single_link_cdn(trace), sr_cache="shared"),
        )
        assert_identical(loose, via_spec)

    def test_cdn_kwargs_equal_spec(self):
        loose = simulate_fleet(
            make_sessions(),
            topology=make_topology(),
            sr_cache="per-edge",
        )
        via_spec = simulate_fleet(
            make_sessions(),
            spec=FleetSpec(
                topology=make_topology(),
                sr_cache="per-edge",
            ),
        )
        assert_identical(loose, via_spec)

    def test_new_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_fleet(
                make_sessions(),
                topology=make_topology(),
                sr_cache="per-edge",
            )


class TestSpecMixingRules:
    def test_spec_plus_loose_kwarg_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            simulate_fleet(
                make_sessions(),
                topology=make_topology(),
                spec=FleetSpec(topology=make_topology()),
            )

    def test_unknown_field_rejected_by_the_spec(self):
        """The entry point keeps no field list of its own: an unknown
        keyword reaches ``FleetSpec(**fields)`` and fails there."""
        with pytest.raises(
            TypeError, match="unexpected keyword argument 'scheduler_engine'"
        ):
            simulate_fleet(
                make_sessions(), topology=make_topology(),
                scheduler_engine="scalar",
            )


class TestSpecValidation:
    def test_a_topology_is_required(self):
        """A bare link is ``single_link_cdn``; there is no topology-less
        serving mode to fall back to."""
        with pytest.raises(TypeError, match="topology"):
            FleetSpec()
        with pytest.raises(ValueError, match="single_link_cdn"):
            FleetSpec(topology=None).validate()
        with pytest.raises(TypeError, match="topology"):
            simulate_fleet(make_sessions(), sr_cache="shared")
        for bad in (None, stable_trace(60.0, duration=600.0)):
            with pytest.raises(ValueError, match="single_link_cdn"):
                simulate_fleet(make_sessions(), topology=bad)

    def test_a_fleet_needs_a_session(self):
        with pytest.raises(ValueError, match="at least one session"):
            simulate_fleet([], topology=make_topology())

    @pytest.mark.parametrize("bad", ["global", SRResultCache()])
    def test_sr_cache_is_one_of_three_modes(self, bad):
        """A cache object is refused too: the run builds its own."""
        with pytest.raises(
            ValueError, match="modes None, 'shared' or 'per-edge'"
        ):
            FleetSpec(topology=make_topology(), sr_cache=bad).validate()

    def test_a_run_leaves_an_empty_fault_schedule_in_the_spec(self):
        """The run treats an empty schedule as no faults in its own local;
        ``validate()`` used to write ``None`` into the caller's spec."""
        empty = FaultSchedule()
        s = FleetSpec(topology=make_topology(), faults=empty)
        s.validate()
        result = simulate_fleet(make_sessions(), spec=s)
        assert s.faults is empty
        assert result.report.faults_injected == 0

    def test_spec_defaults_reproduce_bare_call(self):
        trace = stable_trace(60.0, duration=600.0)
        bare = simulate_fleet(make_sessions(), topology=single_link_cdn(trace))
        via = simulate_fleet(
            make_sessions(), spec=FleetSpec(topology=single_link_cdn(trace))
        )
        assert_identical(bare, via)

    def test_a_shared_sr_cache_is_the_runs_own(self):
        spec = FleetSpec(topology=make_topology(), sr_cache="shared")
        first = simulate_fleet(make_sessions(4), spec=spec)
        second = simulate_fleet(make_sessions(4), spec=spec)
        assert isinstance(first.sr_cache, SRResultCache)
        assert first.sr_cache is not second.sr_cache
        assert first.sr_cache.hits + first.sr_cache.misses > 0
        assert first.report == second.report


class TestAssignmentOverride:
    """``assignment`` pins each viewer to an edge; a bad entry is named
    at once instead of failing mid-run or leaking into the result."""

    def test_numpy_integers_are_edge_indices(self):
        result = simulate_fleet(
            make_sessions(2), topology=make_topology(),
            assignment=list(np.array([1, 0])),
        )
        assert result.assignment == [1, 0]
        assert all(type(e) is int for e in result.assignment)

    @pytest.mark.parametrize(
        "assignment, bad",
        [
            ([0.5, 1], 0.5),
            ([1.0, 0], 1.0),
            ([0, -0.0], -0.0),
            ([True, False], True),
            ([0, math.nan], math.nan),
            ([0, 2], 2),
            ([-1, 0], -1),
        ],
    )
    def test_bad_entries_rejected_by_name(self, assignment, bad):
        with pytest.raises(ValueError, match=rf"entry {bad!r} of session"):
            simulate_fleet(
                make_sessions(2), topology=make_topology(),
                assignment=assignment,
            )

    def test_length_must_match_the_fleet(self):
        with pytest.raises(ValueError, match="names 1 sessions, fleet has 3"):
            simulate_fleet(
                make_sessions(3), topology=make_topology(), assignment=[0]
            )

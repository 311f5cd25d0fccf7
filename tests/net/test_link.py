"""Link-model tests."""

import math

import numpy as np
import pytest

from repro.net import Link, NetworkTrace, stable_trace


class TestDownloadTime:
    def test_stable_link_exact(self):
        link = Link(stable_trace(80.0, rtt=0.0))  # 80 Mbps = 10 MB/s
        # 10 MB should take ~1 s.
        assert link.download_time(10_000_000, 0.0) == pytest.approx(1.0, rel=1e-3)

    def test_rtt_added(self):
        link = Link(stable_trace(80.0, rtt=0.05))
        t = link.download_time(10_000_000, 0.0)
        assert t == pytest.approx(1.05, rel=1e-3)

    def test_zero_bytes_costs_one_rtt(self):
        link = Link(stable_trace(80.0, rtt=0.02))
        assert link.download_time(0, 0.0) == pytest.approx(0.02)

    def test_faster_link_faster_download(self):
        t_slow = Link(stable_trace(10.0)).download_time(5_000_000, 0.0)
        t_fast = Link(stable_trace(100.0)).download_time(5_000_000, 0.0)
        assert t_fast < t_slow

    def test_fluctuation_honoured_mid_transfer(self):
        """A transfer spanning a rate change takes the harmonic blend."""
        tr = NetworkTrace(
            "step", np.array([0.0, 1.0]), np.array([8e6, 80e6]), rtt=0.0
        )
        link = Link(tr)
        # 2 MB: first 1 s moves 1 MB at 8 Mbps, the next 0.1 s finishes.
        t = link.download_time(2_000_000, 0.0)
        assert t == pytest.approx(1.1, rel=1e-12)

    def test_rtt_delays_the_data_on_varying_trace(self):
        """The RTT is paid before the first bit moves, so the data sees the
        rates that follow it: 2 MB from t = 0 with a 0.5 s RTT moves 0.5 MB
        in the last 0.5 s at 8 Mbps, then 1.5 MB in 0.15 s at 80 Mbps."""
        tr = NetworkTrace(
            "step", np.array([0.0, 1.0]), np.array([8e6, 80e6]), rtt=0.5
        )
        assert Link(tr).download_time(2_000_000, 0.0) == pytest.approx(1.15, rel=1e-12)

    def test_transfer_spanning_several_trace_periods(self):
        """One 2-s period of the step trace moves 8 + 80 Mbit = 11 MB; 34 MB
        takes three periods and then 1 MB at 8 Mbps (1 s)."""
        tr = NetworkTrace(
            "step", np.array([0.0, 1.0]), np.array([8e6, 80e6]), rtt=0.0
        )
        assert Link(tr).download_time(34_000_000, 0.0) == pytest.approx(7.0, rel=1e-12)

    def test_transfer_across_a_wrap_onto_an_inexact_instant(self):
        """From t = 9.0 on a 6.5-s trace: 0.7 MB at 8 Mbps until 6.5 + 3.2,
        a float whose ``% 6.5`` is an ulp short of 3.2, then 2.3 MB at
        80 Mbps (0.23 s).  The clock used to stand still at that instant."""
        tr = NetworkTrace(
            "irregular", [0.0, 0.7, 1.9, 3.2, 5.0, 5.3],
            [8e6, 16e6, 8e6, 80e6, 8e6, 16e6], rtt=0.0,
        )
        assert Link(tr).download_time(3_000_000, 9.0) == pytest.approx(0.93, rel=1e-12)

    def test_calls_share_no_state(self):
        """Each call runs its own pool: an earlier start after a later one,
        and a repeat, give what a fresh link gives."""
        tr = NetworkTrace(
            "step", np.array([0.0, 1.0]), np.array([8e6, 80e6]), rtt=0.02
        )
        link = Link(tr)
        late = link.download_time(3_000_000, 7.25)
        early = link.download_time(3_000_000, 0.5)
        assert early == Link(tr).download_time(3_000_000, 0.5)
        assert late == Link(tr).download_time(3_000_000, 7.25)
        assert link.download_time(3_000_000, 7.25) == late

    def test_start_time_matters_on_varying_trace(self):
        tr = NetworkTrace(
            "step", np.array([0.0, 5.0]), np.array([8e6, 80e6]), rtt=0.0
        )
        link = Link(tr)
        slow_start = link.download_time(1_000_000, 0.0)
        fast_start = link.download_time(1_000_000, 5.0)
        assert fast_start < slow_start

    def test_validation(self):
        link = Link(stable_trace(10.0))
        with pytest.raises(ValueError):
            link.download_time(-1, 0.0)
        with pytest.raises(ValueError):
            link.download_time(10, -1.0)
        # Non-finite arguments are refused up front; a NaN byte count used
        # to spin ten million iterations before "did not converge".
        for nbytes, start in [(math.nan, 0.0), (math.inf, 0.0),
                              (10, math.nan), (10, math.inf)]:
            with pytest.raises(ValueError, match="must be finite"):
                link.download_time(nbytes, start)

    def test_a_clock_that_cannot_move_raises(self):
        """At t = 1e300 every increment rounds away; the loop must say so
        instead of repeating one step for ever."""
        with pytest.raises(RuntimeError, match="no progress"):
            Link(stable_trace(10.0)).download_time(1_000, 1e300)

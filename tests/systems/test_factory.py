"""System configuration tests + end-to-end QoE orderings from the paper."""

import pytest

from repro.net import lte_trace, stable_trace
from repro.streaming import VideoSpec
from repro.systems import (
    raw_system,
    run_system,
    vivo_system,
    volut_discrete_system,
    volut_system,
    yuzu_sr_system,
)


def spec(seconds=60):
    return VideoSpec(
        name="longdress", n_frames=seconds * 30, fps=30, points_per_frame=100_000
    )


@pytest.fixture(scope="module")
def stable_results():
    tr = stable_trace(50.0)
    return {
        s.name: run_system(s, spec(), tr)
        for s in (volut_system(), volut_discrete_system(), yuzu_sr_system(),
                  vivo_system(), raw_system())
    }


@pytest.fixture(scope="module")
def lte_results():
    tr = lte_trace(32.5, 13.5, seed=11)
    return {
        s.name: run_system(s, spec(), tr)
        for s in (volut_system(), volut_discrete_system(), yuzu_sr_system(),
                  vivo_system(), raw_system())
    }


class TestConfigs:
    def test_names(self):
        assert volut_system().name == "volut"
        assert volut_discrete_system().name == "volut-discrete"
        assert yuzu_sr_system().name == "yuzu-sr"
        assert vivo_system().name == "vivo"
        assert raw_system().name == "raw"

    def test_yuzu_charges_model_downloads(self):
        assert yuzu_sr_system().config.startup_bytes > 0
        assert volut_system().config.startup_bytes == 0

    def test_vivo_fetches_viewport_fraction(self):
        s = vivo_system(visible_fraction=0.5)
        assert s.config.fetch_fraction == 0.5
        assert s.config.quality_factor < 1.0

    def test_vivo_defaults_are_the_documented_stand_ins(self):
        s = vivo_system()
        assert (s.config.fetch_fraction, s.config.quality_factor) == (0.55, 0.75)
        assert "0.55" in vivo_system.__doc__ and "0.75" in vivo_system.__doc__

    def test_vivo_planner_prices_the_culled_bytes(self):
        s = vivo_system(visible_fraction=0.4, prediction_accuracy=0.9)
        assert s.controller.fetch_fraction == s.config.fetch_fraction == 0.4
        assert s.config.quality_factor == 0.9

    def test_yuzu_startup_is_every_model_download(self):
        assert yuzu_sr_system().config.startup_bytes == 5 * 12 * 1024 * 1024

    @pytest.mark.parametrize("min_density", [0.5, 0.25, 0.125])
    def test_volut_sr_ratio_ceiling_tracks_min_density(self, min_density):
        s = volut_system(min_density=min_density)
        assert s.quality_model.max_ratio == pytest.approx(1.0 / min_density)

    def test_raw_always_asks_for_full_density(self):
        d = raw_system().controller.decide(None)
        assert (d.density, d.sr_ratio) == (1.0, 1.0)


FACTORIES = {
    f.__name__: f
    for f in (volut_system, volut_discrete_system, yuzu_sr_system, vivo_system, raw_system)
}


@pytest.mark.parametrize("factory", sorted(FACTORIES))
def test_chunk_seconds_reaches_the_session(factory):
    setup = FACTORIES[factory](chunk_seconds=2.0)
    assert setup.config.chunk_seconds == 2.0
    assert run_system(setup, spec(20), stable_trace(80.0)).n_chunks == 10


class TestDeliveredQuality:
    def test_raw_delivers_full_density_on_an_ample_link(self):
        r = run_system(raw_system(), spec(20), stable_trace(200.0))
        assert all(rec.quality == pytest.approx(1.0) for rec in r.records)

    def test_vivo_quality_capped_by_prediction_accuracy(self):
        r = run_system(vivo_system(prediction_accuracy=0.6), spec(20), stable_trace(200.0))
        assert max(rec.quality for rec in r.records) <= 0.6 + 1e-12

    def test_runs_are_deterministic(self):
        tr = lte_trace(32.5, 13.5, seed=5)
        a = run_system(volut_system(), spec(20), tr)
        b = run_system(volut_system(), spec(20), tr)
        assert (a.qoe, a.total_bytes, a.decisions) == (b.qoe, b.total_bytes, b.decisions)


class TestStableOrdering:
    """The stable 50 Mbps link of Fig 12.  Its VoLUT > YuZu-SR > ViVo
    ordering and data band are the reproduction ledger's ``fig12-13``
    ``stable-50`` rows, whose sessions equal these."""

    def test_everyone_beats_raw(self, stable_results):
        for name in ("volut", "yuzu-sr", "vivo"):
            assert stable_results[name].qoe > stable_results["raw"].qoe

    def test_volut_no_stalls_on_stable_link(self, stable_results):
        assert stable_results["volut"].stall_seconds == pytest.approx(0.0)


class TestLTEOrdering:
    """Paper §7.4 fluctuating-bandwidth findings on the low-rate trace."""

    def test_volut_beats_yuzu(self, lte_results):
        assert lte_results["volut"].qoe > lte_results["yuzu-sr"].qoe

    def test_volut_beats_discrete(self, lte_results):
        """Continuous ABR wins under tight fluctuating bandwidth (H1 vs H2)."""
        assert lte_results["volut"].qoe > lte_results["volut-discrete"].qoe

    def test_discrete_beats_yuzu_sr(self, lte_results):
        """H2 vs H3: with the same ABR, faster SR still wins."""
        assert lte_results["volut-discrete"].qoe >= lte_results["yuzu-sr"].qoe

    def test_volut_data_fraction(self, lte_results):
        """Paper: VoLUT consumes ~17% of the data (vs raw) under LTE."""
        frac = lte_results["volut"].total_bytes / lte_results["raw"].total_bytes
        assert frac < 0.30

    def test_yuzu_uses_more_data_than_volut(self, lte_results):
        assert lte_results["yuzu-sr"].total_bytes > lte_results["volut"].total_bytes

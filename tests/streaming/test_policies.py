"""Policy registry: round-trips, defaults, signature-filtered kwargs."""

import pytest

from repro.metrics import QoEModel
from repro.streaming import (
    AbrController,
    BolaController,
    BufferBased,
    ContinuousMPC,
    DiscreteMPC,
    SRQualityModel,
    ThroughputRuleController,
    ZERO_LATENCY,
    available_policies,
    get_policy,
)
from repro.streaming.policies import BOLA_BUFFER_TARGET

from .helpers import sr_lat


class TestRegistry:
    def test_builtins_registered(self):
        """The registry is the built-in zoo, sorted — nothing registers
        at run time."""
        assert available_policies() == [
            "bola", "buffer-linear", "continuous-mpc", "discrete-mpc",
            "throughput",
        ]

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("continuous-mpc", ContinuousMPC),
            ("discrete-mpc", DiscreteMPC),
            ("bola", BolaController),
            ("throughput", ThroughputRuleController),
            ("buffer-linear", BufferBased),
        ],
    )
    def test_round_trip(self, name, cls):
        policy = get_policy(name)
        assert isinstance(policy, cls)
        assert isinstance(policy, AbrController)

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="bola"):
            get_policy("nope")

    def test_base_models_threaded_through(self):
        qm = SRQualityModel(max_ratio=4.0)
        qoe = QoEModel()
        lat = sr_lat()
        mpc = get_policy(
            "continuous-mpc", quality_model=qm, qoe_model=qoe, sr_latency=lat
        )
        assert mpc.quality_model is qm
        assert mpc.qoe_model is qoe
        assert mpc.sr_latency is lat

    def test_base_models_default(self):
        mpc = get_policy("continuous-mpc")
        assert isinstance(mpc.quality_model, SRQualityModel)
        assert mpc.sr_latency is ZERO_LATENCY

    def test_kwargs_filtered_by_signature(self):
        """``n_grid``/``horizon`` reach the factories that take them and
        are dropped for the ones that don't (the CLI forwards one kwarg
        set to every policy)."""
        bola = get_policy("bola", n_grid=9, horizon=4)
        assert len(bola.candidates) == 9
        discrete = get_policy("discrete-mpc", n_grid=9, horizon=4)
        assert discrete.horizon == 4
        buffer_based = get_policy("buffer-linear", n_grid=9, horizon=4)
        assert isinstance(buffer_based, BufferBased)

    def test_get_policy_matches_direct_construction(self):
        qm = SRQualityModel()
        direct = BolaController(qm, n_grid=12)
        via_registry = get_policy("bola", quality_model=qm, n_grid=12)
        assert (via_registry.candidates == direct.candidates).all()
        assert via_registry.lyapunov_v == direct.lyapunov_v

    def test_misspelt_keyword_rejected(self):
        """A keyword no registered policy accepts is a typo, not a
        forwarded CLI flag — it used to vanish and return the defaults."""
        with pytest.raises(ValueError, match="'bufer_target'"):
            get_policy("bola", bufer_target=1.0, n_gird=4)
        with pytest.raises(ValueError, match="'n_gird'"):
            get_policy("continuous-mpc", n_gird=4)

    def test_keyword_some_other_policy_accepts_is_still_dropped(self):
        discrete = get_policy("discrete-mpc", n_grid=9, min_density=0.25)
        assert isinstance(discrete, DiscreteMPC)
        assert len(discrete.candidates) == 4


class TestZooValidation:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="n_grid"):
            BolaController(SRQualityModel(), n_grid=1)

    def test_bola_v_reaches_target(self):
        """At buffer == BOLA_BUFFER_TARGET the densest candidate's score
        hits zero exactly — the calibration BOLA's V derivation promises."""
        bola = BolaController(SRQualityModel())
        assert bola._vu[-1] == pytest.approx(BOLA_BUFFER_TARGET, abs=1e-12)

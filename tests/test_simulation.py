"""Tests for the synthetic generators."""

import numpy as np
import numpy.testing as npt
import pytest

from skylattice.core import SensorLayout, grid_layout
from skylattice.simulation import (
    Expar2Config,
    FieldSimConfig,
    expar2_true_curves,
    simulate_expar2,
    simulate_field,
)


class TestExpar2:
    def test_seed_determinism(self):
        a = simulate_expar2(Expar2Config(n_times=500, seed=123))
        b = simulate_expar2(Expar2Config(n_times=500, seed=123))
        npt.assert_array_equal(a, b)
        c = simulate_expar2(Expar2Config(n_times=500, seed=124))
        assert not np.array_equal(a, c)

    def test_mean_centered(self):
        x = simulate_expar2(Expar2Config(n_times=500, seed=1))
        assert abs(x.mean()) < 1e-12
        assert x.size == 500

    def test_long_run_sd_stabilizes(self):
        x = simulate_expar2(Expar2Config(n_times=1_000_000, seed=2))
        half = x.size // 2
        sd1, sd2 = x[:half].std(), x[half:].std()
        assert abs(sd1 - sd2) / sd2 < 0.05

    def test_true_curves_match_recurrence(self):
        # one recurrence step computed through the delay-absorbed curves
        cfg = Expar2Config()
        f0, f2 = expar2_true_curves(cfg)
        u, x_prev2 = 0.11, -0.2
        dip = np.exp(-cfg.DIP_DECAY * u * u)
        direct = (cfg.LAG1_BASE + cfg.LAG1_DIP * dip) * u + (
            cfg.LAG2_BASE + cfg.LAG2_DIP * dip
        ) * x_prev2
        assert f0(u) + f2(u) * x_prev2 == pytest.approx(direct, rel=1e-12)


@pytest.fixture(scope="module")
def layout16():
    return grid_layout(4, 4, 83.0)


class TestFieldSimulator:
    def test_seed_determinism(self, layout16):
        cfg = FieldSimConfig(layout=layout16, n_times=100, seed=5)
        a = simulate_field(cfg)
        b = simulate_field(cfg)
        npt.assert_array_equal(a.values, b.values)

    def test_kind_and_axes(self, layout16):
        f = simulate_field(FieldSimConfig(layout=layout16, n_times=50, seed=0))
        assert f.kind == "detrended"
        assert f.values.shape == (16, 50)
        assert f.spacing == 30.0

    def test_diurnal_component_gives_raw_kind(self, layout16):
        cfg = FieldSimConfig(
            layout=layout16, n_times=200, diurnal_amplitude=800.0, seed=0
        )
        f = simulate_field(cfg)
        assert f.kind == "raw"
        # the bell dominates the regime noise
        assert f.values[:, 100].mean() > f.values[:, 0].mean() + 400.0

    def test_advective_peak_crosscorr_at_transit_lag(self):
        # sensors 200 m apart along the flow at 10 m/s, 2 s steps: the cloud
        # field takes ~10 steps to travel between them
        layout = SensorLayout(
            ("a", "b", "c"), np.array([[0.0, 0.0], [200.0, 0.0], [0.0, 500.0]])
        )
        cfg = FieldSimConfig(
            layout=layout,
            n_times=6000,
            dt_seconds=2.0,
            mode="advective",
            velocity=(10.0, 0.0),
            corr_length=80.0,
            ar_coeff=0.995,
            seed=3,
        )
        f = simulate_field(cfg)
        up = f.values[0] - f.values[0].mean()
        down = f.values[1] - f.values[1].mean()
        lags = np.arange(0, 30)
        cc = [
            np.dot(up[: up.size - k], down[k:])
            / (np.std(up) * np.std(down) * (up.size - k))
            for k in lags
        ]
        expected = 200.0 / (10.0 * 2.0)
        assert abs(int(lags[np.argmax(cc)]) - expected) <= 1

    def test_clear_regime_much_quieter_than_overcast(self, layout16):
        clear = simulate_field(
            FieldSimConfig(layout=layout16, n_times=2000, regime="clear", seed=1)
        )
        overcast = simulate_field(
            FieldSimConfig(layout=layout16, n_times=2000, regime="overcast", seed=1)
        )
        assert clear.values.std() < 0.2 * overcast.values.std()

    def test_fast_advection_warns(self, layout16):
        cfg = FieldSimConfig(
            layout=layout16,
            n_times=10,
            mode="advective",
            velocity=(30.0, 0.0),
            corr_length=100.0,
            seed=0,
        )
        with pytest.warns(UserWarning, match="decorrelates"):
            simulate_field(cfg)

    def test_bad_regime_rejected(self, layout16):
        with pytest.raises(ValueError, match="regime"):
            FieldSimConfig(layout=layout16, n_times=10, regime="stormy")

"""Tests for containers, ingestion, time averaging, and detrending."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylattice.core import (
    SensorLayout,
    SpatioTemporalField,
    detrend,
    grid_layout,
    ingest_field,
    read_layout_csv,
    read_measurements_csv,
    time_average,
    write_layout_csv,
    write_measurements_csv,
)


def small_layout(n=3):
    return SensorLayout(
        tuple(f"s{i}" for i in range(n)),
        np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
    )


def make_field(values, kind="raw", timestamps=None, layout=None, mask=None):
    values = np.asarray(values, dtype=float)
    if layout is None:
        layout = small_layout(values.shape[0])
    if timestamps is None:
        timestamps = np.arange(values.shape[1], dtype=float)
    return SpatioTemporalField(layout, timestamps, values, kind, mask)


class TestSensorLayout:
    def test_minimum_three_sensors(self):
        with pytest.raises(ValueError, match="at least 3"):
            SensorLayout(("a", "b"), np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SensorLayout(("a", "a", "b"), np.zeros((3, 2)) + np.arange(3)[:, None])

    def test_duplicate_coordinates_rejected(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="share position"):
            SensorLayout(("a", "b", "c"), xy)

    def test_nonfinite_coordinates_rejected(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            SensorLayout(("a", "b", "c"), xy)

    def test_subset_preserves_order(self):
        lay = grid_layout(2, 2, 10.0)
        sub = lay.subset(["s3", "s0", "s1"])
        assert sub.ids == ("s0", "s1", "s3")
        npt.assert_array_equal(sub.xy, lay.xy[[0, 1, 3]])

    def test_grid_layout_shape(self):
        lay = grid_layout(4, 4, 83.0)
        assert lay.n_sensors == 16
        assert lay.xy[:, 0].max() == pytest.approx(3 * 83.0)
        assert lay.ids == tuple(sorted(lay.ids))


class TestSpatioTemporalField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_field(np.zeros((3, 4)), timestamps=np.arange(5.0))

    def test_nonincreasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_field(np.zeros((3, 3)), timestamps=np.array([0.0, 2.0, 2.0]))

    def test_nan_without_mask_rejected(self):
        vals = np.zeros((3, 3))
        vals[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            make_field(vals)

    def test_masked_cells_may_hold_nan(self):
        vals = np.zeros((3, 3))
        vals[1, 2] = np.nan
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        f = make_field(vals, mask=mask)
        assert f.mask is not None
        with pytest.raises(ValueError, match="complete"):
            f.require_complete()

    def test_values_are_frozen(self):
        f = make_field(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_spacing_requires_uniform_axis(self):
        f = make_field(np.zeros((3, 3)), timestamps=np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError, match="uniform"):
            _ = f.spacing

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            make_field(np.zeros((3, 3)), kind="smoothed")


class TestIngest:
    def test_complete_records_reshape(self):
        lay = small_layout(3)
        records = [
            (t, sid, 10.0 * i + t)
            for t in (0.0, 1.0, 2.0)
            for i, sid in enumerate(lay.ids)
        ]
        f = ingest_field(records, lay)
        assert f.kind == "raw"
        assert f.mask is None
        npt.assert_array_equal(f.timestamps, [0.0, 1.0, 2.0])
        npt.assert_array_equal(f.values[2], [20.0, 21.0, 22.0])

    def test_unordered_records_sorted(self):
        lay = small_layout(3)
        records = [(2.0, "s0", 3.0), (0.0, "s0", 1.0), (1.0, "s0", 2.0)]
        records += [(t, s, 0.0) for t in (0.0, 1.0, 2.0) for s in ("s1", "s2")]
        f = ingest_field(records, lay)
        npt.assert_array_equal(f.values[0], [1.0, 2.0, 3.0])

    def test_unknown_sensor_rejected(self):
        with pytest.raises(ValueError, match="unknown sensor"):
            ingest_field([(0.0, "S99", 1.0)], small_layout(3))

    def test_duplicate_record_rejected(self):
        lay = small_layout(3)
        with pytest.raises(ValueError, match="duplicate"):
            ingest_field([(0.0, "s0", 1.0), (0.0, "s0", 2.0)], lay)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            ingest_field([], small_layout(3))

    def test_absent_pairs_become_masked(self):
        lay = small_layout(3)
        records = [(0.0, "s0", 1.0), (1.0, "s0", 2.0), (0.0, "s1", 3.0)]
        records += [(0.0, "s2", 0.0), (1.0, "s2", 0.0)]
        f = ingest_field(records, lay)
        assert f.mask is not None
        assert bool(f.mask[1, 1]) is True
        assert not f.mask[0].any()

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        lay = small_layout(4)
        mask = rng.random((4, 5)) < 0.2
        vals = rng.normal(size=(4, 5)) * 100
        vals[mask] = np.nan
        f = make_field(vals, layout=lay, mask=mask if mask.any() else None)
        path = tmp_path / "meas.csv"
        write_measurements_csv(f, path)
        g = ingest_field(read_measurements_csv(path), lay)
        npt.assert_array_equal(g.timestamps, f.timestamps)
        npt.assert_array_equal(np.asarray(g.mask), np.asarray(mask))
        npt.assert_array_equal(g.values[~mask], f.values[~mask])

    def test_layout_round_trip(self, tmp_path):
        lay = grid_layout(3, 2, 83.0, origin=(-10.0, 5.5))
        path = tmp_path / "layout.csv"
        write_layout_csv(lay, path)
        back = read_layout_csv(path)
        assert back.ids == lay.ids
        npt.assert_array_equal(back.xy, lay.xy)

    def test_iso_timestamps_accepted(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "timestamp,sensor_id,value\n"
            "2024-02-03T08:00:00+00:00,s0,100.0\n"
            "2024-02-03T08:00:01+00:00,s0,101.0\n"
        )
        recs = read_measurements_csv(path)
        assert recs[1][0] - recs[0][0] == 1.0

    def test_big_simulated_day_round_trips(self, tmp_path):
        # one simulated day at 1 s resolution, through CSV and back
        from skylattice.simulation import FieldSimConfig, simulate_field

        cfg = FieldSimConfig(
            layout=grid_layout(4, 4, 83.0),
            n_times=86_400,
            dt_seconds=1.0,
            mode="separable",
            regime="clear",
            seed=11,
        )
        f = simulate_field(cfg)
        assert f.values.shape == (16, 86_400)
        path = tmp_path / "day.csv"
        write_measurements_csv(f, path)
        g = ingest_field(read_measurements_csv(path), f.layout, kind=f.kind)
        npt.assert_array_equal(g.timestamps, f.timestamps)
        npt.assert_array_equal(g.values, f.values)


class TestTimeAverage:
    def test_pairwise_mean(self):
        f = make_field(np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))
        g = time_average(f, 2.0)
        npt.assert_array_equal(g.values[0], [1.5, 3.5])
        npt.assert_array_equal(g.timestamps, [0.5, 2.5])
        assert g.spacing == 2.0

    def test_constant_field_unchanged(self):
        f = make_field(np.full((3, 12), 7.25))
        g = time_average(f, 4.0)
        npt.assert_array_equal(g.values, np.full((3, 3), 7.25))

    def test_trailing_partial_window_dropped(self):
        f = make_field(np.arange(7.0)[None, :].repeat(3, axis=0))
        g = time_average(f, 3.0)
        assert g.n_times == 2

    def test_window_not_multiple_rejected(self):
        f = make_field(np.zeros((3, 10)))
        with pytest.raises(ValueError, match="multiple"):
            time_average(f, 2.5)

    def test_window_below_spacing_rejected(self):
        f = make_field(np.zeros((3, 10)))
        with pytest.raises(ValueError, match="multiple"):
            time_average(f, 0.5)

    def test_residual_kind_rejected(self):
        f = make_field(np.zeros((3, 10)), kind="residual")
        with pytest.raises(ValueError, match="raw or detrended"):
            time_average(f, 2.0)

    def test_masked_window_propagates(self):
        vals = np.zeros((3, 4))
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 1] = True
        vals[0, 1] = np.nan
        f = make_field(vals, mask=mask)
        g = time_average(f, 2.0)
        assert bool(g.mask[0, 0]) and not g.mask[0, 1]

    def test_day_of_seconds_against_streaming_accumulator(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(loc=500.0, scale=40.0, size=(3, 86_400))
        f = make_field(vals)
        g = time_average(f, 600.0)
        assert g.n_times == 144
        # independent streaming accumulator
        for i in range(3):
            acc, count, w = 0.0, 0, 0
            means = []
            for v in vals[i]:
                acc += float(v)
                count += 1
                if count == 600:
                    means.append(acc / 600.0)
                    acc, count = 0.0, 0
                    w += 1
            npt.assert_allclose(g.values[i], means, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        F = make_field(rng.normal(size=(3, 9)))
        G = make_field(rng.normal(size=(3, 9)))
        combo = make_field(a * F.values + b * G.values)
        left = time_average(combo, 3.0).values
        right = a * time_average(F, 3.0).values + b * time_average(G, 3.0).values
        npt.assert_allclose(left, right, rtol=1e-9, atol=1e-12)


class TestDetrend:
    def test_constant_series_zero_residual(self):
        f = make_field(np.full((3, 200), 3.5))
        g, trend = detrend(f, bandwidth=20.0)
        npt.assert_allclose(g.values, 0.0, atol=1e-9)
        npt.assert_allclose(trend.trend, 3.5, rtol=1e-9)

    def test_pure_sine_tracked_closely(self):
        # local-linear bias is h^2 |m''| / 10 for this kernel; with half-width
        # h = day/20 that is (2*pi)^2/4000 ~ 0.99% of amplitude at the peaks
        day = 86_400.0
        ts = np.arange(0, day, 60.0)
        amp = 400.0
        curve = amp * np.sin(2 * np.pi * ts / day)
        f = make_field(np.tile(curve, (3, 1)), timestamps=ts)
        g, _ = detrend(f, bandwidth=day / 20.0)
        assert np.max(np.abs(g.values)) < 0.01 * amp

    def test_noise_sd_recovered(self):
        # sine + white noise, residual sd near the true noise sd
        rng = np.random.default_rng(42)
        day = 86_400.0
        ts = np.arange(0, day, 60.0)
        curve = 400.0 * np.sin(2 * np.pi * ts / day)
        sds = []
        for _ in range(50):
            noise = rng.normal(scale=10.0, size=(3, ts.size))
            f = make_field(curve[None, :] + noise, timestamps=ts)
            g, _ = detrend(f, bandwidth=day / 20.0)
            sds.append(g.values.std())
        assert abs(np.median(sds) - 10.0) < 1.5

    def test_restore_round_trip(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(loc=300.0, scale=25.0, size=(4, 500))
        f = make_field(vals, layout=small_layout(4))
        g, trend = detrend(f, bandwidth=60.0)
        back = trend.restore(g)
        npt.assert_allclose(back.values, vals, rtol=1e-9)
        assert back.kind == "raw"

    def test_default_bandwidth_is_span_eighth(self):
        f = make_field(np.random.default_rng(0).normal(size=(3, 400)))
        _, trend = detrend(f)
        assert trend.bandwidth == pytest.approx((400 - 1) / 8.0)

    def test_detrended_kind_rejected(self):
        f = make_field(np.zeros((3, 50)), kind="detrended")
        with pytest.raises(ValueError, match="raw"):
            detrend(f, bandwidth=10.0)

    def test_masked_field_rejected(self):
        vals = np.zeros((3, 50))
        mask = np.zeros((3, 50), dtype=bool)
        mask[0, 0] = True
        vals[0, 0] = np.nan
        f = make_field(vals, mask=mask)
        with pytest.raises(ValueError, match="complete"):
            detrend(f, bandwidth=10.0)

    def test_tiny_bandwidth_rejected(self):
        f = make_field(np.zeros((3, 50)))
        with pytest.raises(ValueError, match="bandwidth too small"):
            detrend(f, bandwidth=0.5)

    def test_singular_local_fit_reports_sensor_and_index(self):
        # bandwidth == spacing: only the centre sample has weight, so the
        # local line is unidentified from the first sample on
        f = make_field(np.random.default_rng(1).normal(size=(3, 50)))
        with pytest.raises(ValueError, match="sensor 's0' at time index 0"):
            detrend(f, bandwidth=1.0)

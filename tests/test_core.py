"""Tests for containers, ingestion, time averaging, and detrending."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import ingest_records, measurements, read_records, write_field_rows
from kernel_oracle import kernel_values
from skylattice import core
from skylattice.core import (
    SensorLayout,
    SpatioTemporalField,
    _moment_smoother,
    _write_field_csv,
    detrend,
    grid_layout,
    ingest_field,
    read_layout_csv,
    read_measurements_csv,
    time_average,
    write_layout_csv,
    write_measurements_csv,
)
from skylattice.fcar import FcarFit, FcarSpec, SbkCurve, SplineBasis, UTransform
from skylattice.fcsar import FcsarFit, FcsarSpec, SeparableFit
from skylattice.spatial import (
    NaturalNeighborPrediction,
    NeighborGraph,
    SarFit,
    SarTrace,
    VoronoiWeights,
    build_neighbor_graph,
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
        with pytest.raises(ValueError, match="^sensor ids must be unique: 'a' repeats$"):
            SensorLayout(("a", "b", "a"), np.zeros((3, 2)) + np.arange(3)[:, None])

    @pytest.mark.parametrize("sid", ["s1 ", " s1", "s1\n", "\ts1"])
    def test_padded_id_rejected(self, sid):
        # the CSV readers strip ids, so a padded id would not round trip
        message = f"^sensor id {re.escape(repr(sid))} has leading or trailing whitespace$"
        with pytest.raises(ValueError, match=message):
            SensorLayout((sid, "b", "c"), np.arange(6.0).reshape(3, 2))

    def test_duplicate_coordinates_rejected(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="share position"):
            SensorLayout(("a", "b", "c"), xy)

    def test_nonfinite_coordinates_rejected(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(
            ValueError, match=r"^sensor 'c' coordinates must be finite, got \(nan, 1\.0\)$"
        ):
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

    def test_non_finite_timestamp_rejected(self):
        with pytest.raises(ValueError, match="^timestamps must be finite, got nan at time index 1$"):
            make_field(np.zeros((3, 3)), timestamps=np.array([0.0, np.nan, 2.0]))

    def test_non_finite_value_names_sensor_and_time(self):
        vals = np.zeros((3, 3))
        vals[1, 2] = np.inf
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValueError, match="sensor 's1' has inf at time index 2"):
            make_field(vals, mask=mask)

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
        f = ingest_field(measurements(records), lay)
        assert f.kind == "raw"
        assert f.mask is None
        npt.assert_array_equal(f.timestamps, [0.0, 1.0, 2.0])
        npt.assert_array_equal(f.values[2], [20.0, 21.0, 22.0])

    def test_unordered_records_sorted(self):
        lay = small_layout(3)
        records = [(2.0, "s0", 3.0), (0.0, "s0", 1.0), (1.0, "s0", 2.0)]
        records += [(t, s, 0.0) for t in (0.0, 1.0, 2.0) for s in ("s1", "s2")]
        f = ingest_field(measurements(records), lay)
        npt.assert_array_equal(f.values[0], [1.0, 2.0, 3.0])

    def test_unknown_sensor_rejected(self):
        with pytest.raises(ValueError, match="unknown sensor"):
            ingest_field(measurements([(0.0, "S99", 1.0)]), small_layout(3))

    def test_duplicate_record_rejected(self):
        lay = small_layout(3)
        records = [(0.0, "s0", 1.0), (5.0, "s1", 1.0), (5.0, "s1", 2.0), (0.0, "s0", 2.0)]
        message = "duplicate record for sensor 's1' at t=5.0 (time index 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_field(measurements(records), lay)

    def test_unknown_sensor_checked_before_duplicates(self):
        records = [(0.0, "s0", 1.0), (0.0, "s0", 2.0), (1.0, "S99", 1.0)]
        with pytest.raises(ValueError, match="unknown sensor id 'S99'"):
            ingest_field(measurements(records), small_layout(3))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            ingest_field(measurements([]), small_layout(3))

    def test_absent_pairs_become_masked(self):
        lay = small_layout(3)
        records = [(0.0, "s0", 1.0), (1.0, "s0", 2.0), (0.0, "s1", 3.0)]
        records += [(0.0, "s2", 0.0), (1.0, "s2", 0.0)]
        f = ingest_field(measurements(records), lay)
        assert f.mask is not None
        assert bool(f.mask[1, 1]) is True
        assert not f.mask[0].any()

    def test_non_finite_value_is_not_a_gap(self):
        lay = small_layout(3)
        records = [(0.0, s, 0.0) for s in lay.ids] + [(1.0, s, 0.0) for s in lay.ids[1:]]
        with pytest.raises(ValueError, match="sensor 's0' has -inf at time index 1"):
            ingest_field(measurements(records + [(1.0, "s0", -np.inf)]), lay)
        assert bool(ingest_field(measurements(records + [(1.0, "s0", None)]), lay).mask[0, 1])

    @pytest.mark.parametrize(
        "cells, message",
        [
            ("nan,s0,1.0", "timestamp 'nan' is not finite"),
            ("inf,s0,1.0", "timestamp 'inf' is not finite"),
            ("1,s0,inf", "value 'inf' is not finite; write NA"),
            ("1,s0,-Infinity", "value '-Infinity' is not finite; write NA"),
        ],
    )
    def test_non_finite_csv_cell_names_path_and_line(self, tmp_path, cells, message):
        path = tmp_path / "meas.csv"
        path.write_text(f"timestamp,sensor_id,value\n0,s0,1.0\n{cells}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: {message}")):
            read_measurements_csv(path)

    def test_na_tokens_stay_gaps(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("timestamp,sensor_id,value\n0,s0,NaN\n1,s0,na\n2,s0,\n3,s0,2.5\n")
        recs = read_measurements_csv(path)
        npt.assert_array_equal(np.isnan(recs.values), [True, True, True, False])
        assert recs.values[3] == 2.5

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
        lay = SensorLayout(
            ("a", "b", "c"), np.array([[-10.0, 5.5], [73.25, 5.5], [0.1, 1e-7]])
        )
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
        t = recs.times[recs.time_code]
        assert t[1] - t[0] == 1.0

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

    def test_measurements_with_bom_read(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_bytes(b"\xef\xbb\xbftimestamp,sensor_id,value\r\n0,s0,1.5\r\n0,s1,NA\r\n")
        recs = read_measurements_csv(path)
        assert recs.ids == ("s0", "s1")
        npt.assert_array_equal(recs.values, [1.5, np.nan])

    def test_layout_with_bom_read(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_bytes(b"\xef\xbb\xbfsensor_id,x_m,y_m\r\na,0,0\r\nb,1,0\r\nc,0,1\r\n")
        assert read_layout_csv(path).ids == ("a", "b", "c")

    def test_layout_nonfinite_coordinate_names_path_and_line(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_text("sensor_id,x_m,y_m\na,0,0\nb, inf,1\nc,0,1\n")
        message = f"^{re.escape(str(path))}:3: sensor 'b' coordinates must be finite, got \\(inf, 1\\.0\\)$"
        with pytest.raises(ValueError, match=message):
            read_layout_csv(path)

    def test_layout_repeated_id_names_the_sensor(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_text("sensor_id,x_m,y_m\na,0,0\nb,1,0\n a ,0,1\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}:4: sensor ids must be unique: 'a' repeats$"
        ):
            read_layout_csv(path)

    def test_tokens_that_parse_equal_share_a_code(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("timestamp,sensor_id,value\n60,s0,1\n60.0,s1,2\n 60,s2 ,3\n")
        recs = read_measurements_csv(path)
        npt.assert_array_equal(recs.times, [60.0])
        assert recs.ids == ("s0", "s1", "s2")
        npt.assert_array_equal(recs.time_code, [0, 0, 0])


# ids csv.writer must quote (comma, quote, line break), one with a space
# and the empty id, which it writes as nothing among other fields
ODD_IDS = ("a,b", 'say "hi"', "x y", "", "cr\rlf\nx", "s1")
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300)


@st.composite
def odd_fields(draw):
    """A field over some of ``ODD_IDS`` with whole or fractional stamps,
    special floats and masked cells, a support and one or two matrices."""
    S = draw(st.integers(3, len(ODD_IDS)))
    T = draw(st.integers(1, 6))
    ids = draw(st.permutations(ODD_IDS))[:S]
    layout = SensorLayout(tuple(ids), np.column_stack([np.arange(S, dtype=float), np.zeros(S)]))
    ticks = sorted(draw(st.sets(st.integers(-10**6, 10**6), min_size=T, max_size=T)))
    scale = draw(st.sampled_from([1.0, 0.25, 30.0]))
    stamps = 1.7e9 * draw(st.integers(0, 1)) + np.array(ticks) * scale
    cell = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    matrices = [
        np.array(draw(st.lists(cell, min_size=S * T, max_size=S * T))).reshape(S, T)
        for _ in range(draw(st.integers(1, 2)))
    ]
    mask = np.array(draw(st.lists(st.booleans(), min_size=S * T, max_size=S * T))).reshape(S, T)
    values = np.where(mask, np.nan, matrices[0])
    field = SpatioTemporalField(layout, stamps, values, "raw", mask)
    return field, draw(st.integers(0, T)), matrices


class TestCsvOracle:
    """The chunked writer and the columnar reader against the csv-module
    writer and the per-record reader and ingest of ``csv_oracle``."""

    @settings(max_examples=60, deadline=None)
    @given(case=odd_fields(), chunk=st.sampled_from([1, 5, 4096]))
    def test_writer_bytes_equal_oracle(self, tmp_path_factory, case, chunk):
        field, support, matrices = case
        header = ["t", "sensor"] + [f"m{q}" for q in range(len(matrices))]
        d = tmp_path_factory.mktemp("w")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_WRITE_CHUNK_CELLS", chunk)
            _write_field_csv(d / "new.csv", header, field, support, *matrices)
        write_field_rows(d / "old.csv", header, field, support, *matrices)
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(case=odd_fields())
    def test_reader_field_equals_oracle(self, tmp_path_factory, case):
        field = case[0]
        path = tmp_path_factory.mktemp("r") / "meas.csv"
        write_measurements_csv(field, path)
        got = ingest_field(read_measurements_csv(path), field.layout)
        want = ingest_records(read_records(path), field.layout)
        npt.assert_array_equal(got.timestamps, want.timestamps)
        npt.assert_array_equal(got.values, want.values)
        assert np.signbit(got.values).tolist() == np.signbit(want.values).tolist()
        npt.assert_array_equal(np.asarray(got.mask), np.asarray(want.mask))
        npt.assert_array_equal(np.asarray(got.mask), np.asarray(field.mask))


class TestSmootherAtObservations:
    @pytest.mark.parametrize("ties", [False, True])
    def test_points_is_u_matches_a_copy_bitwise(self, ties):
        rng = np.random.default_rng(3)
        u = rng.normal(size=200)
        if ties:
            u = np.round(u, 1)
        cols = np.vstack([np.ones(200), rng.normal(size=200)])
        shared = _moment_smoother(u, cols, 0.4, u)
        apart = _moment_smoother(u, cols, 0.4, u.copy())
        for name in ("ok", "n_raw", "order", "rank", "vpow", "epow", "gram", "inv", "fold"):
            npt.assert_array_equal(getattr(shared, name), getattr(apart, name), err_msg=name)
        for name in ("index", "width", "closed"):
            npt.assert_array_equal(getattr(shared.segments, name), getattr(apart.segments, name))
        ws = rng.normal(size=(2, 3, 200))
        npt.assert_array_equal(shared.levels(ws), apart.levels(ws))
        npt.assert_array_equal(shared.sandwich(), apart.sandwich())


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
        npt.assert_allclose(g.values + trend.trend, vals, rtol=1e-9)
        assert g.kind == "detrended"

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

    @pytest.mark.parametrize("n_times, dt", [(400, 30.0), (6000, 1.0)], ids=["T400", "T6000"])
    def test_matches_per_sample_weighted_least_squares(self, n_times, dt):
        # the plain fit: at each sample, Epanechnikov-weighted least squares
        # of y on (1, t - t_j) over the record; the trend is the intercept
        ts = np.arange(n_times) * dt
        rng = np.random.default_rng(n_times)
        day = 300.0 * np.sin(np.pi * ts / ts[-1]) ** 2
        f = make_field(day[None, :] + rng.normal(scale=20.0, size=(3, n_times)), timestamps=ts)
        _, trend = detrend(f)
        h = trend.bandwidth
        y = f.values[0]
        want = np.empty(n_times)
        for j in range(n_times):
            diff = ts - ts[j]
            k = kernel_values(diff / h)
            rows = k > 0
            sw = np.sqrt(k[rows])
            design = np.column_stack([np.ones(rows.sum()), diff[rows]]) * sw[:, None]
            want[j] = np.linalg.lstsq(design, y[rows] * sw, rcond=None)[0][0]
        got = trend.trend[0]
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_singular_local_fit_reports_bandwidth_spacing_and_index(self):
        # bandwidth == spacing: only the centre sample has weight, so the
        # local line is unidentified from the first sample on, for every sensor
        f = make_field(np.random.default_rng(1).normal(size=(3, 50)))
        with pytest.raises(ValueError) as exc:
            detrend(f, bandwidth=1.0)
        assert str(exc.value).startswith(
            "singular local fit at time index 0: bandwidth 1s spans too few "
            "samples at spacing 1s"
        )
        assert "sensor" not in str(exc.value)


def _container_with_inputs(name):
    """One container built from fresh writable arrays, and those arrays by field."""
    rng = np.random.default_rng(0)

    def vec(n=5):
        return rng.standard_normal(n)

    graph = build_neighbor_graph(grid_layout(2, 2, 1.0), 1)
    spec = FcarSpec(p=1, d=1)
    if name == "SbkCurve":
        arrays = {
            "u": vec(), "estimate": vec(), "lower": vec(), "upper": vec(),
            "obs_estimate": vec(), "reliable": vec() > 0, "obs_reliable": vec() > 0,
        }
        obj = SbkCurve(target_j=1, sigma2=1.0, smoother_trace=0.0, **arrays)
    elif name == "FcarFit":
        arrays = {"spline_coeffs": rng.standard_normal((3, 1)), "fitted": vec(),
                  "residuals": vec(), "u": vec(), "cols": rng.standard_normal((1, 5)),
                  "pseudos": rng.standard_normal((1, 5)),
                  "obs_estimate": rng.standard_normal((1, 5)),
                  "obs_reliable": rng.standard_normal((1, 5)) > 0,
                  "prefit_cov": rng.standard_normal((1, 2, 3))}
        obj = FcarFit(spec=spec, basis=SplineBasis(1), u_transform=UTransform(0.0, 1.0),
                      bandwidth=1.0, t_start=1, rank_deficient=False, traces=(1.0,),
                      **arrays)
    elif name == "FcsarFit":
        arrays = {"beta": rng.standard_normal((4, 1, 1)),
                  "fitted_values": rng.standard_normal((4, 5)),
                  "residuals": rng.standard_normal((4, 5))}
        obj = FcsarFit(spec=FcsarSpec.uniform(graph, 1, spec), fcar_fits=(),
                       support_start=1, **arrays)
    elif name == "SeparableFit":
        arrays = {"fitted_values": rng.standard_normal((4, 5)),
                  "residuals": rng.standard_normal((4, 5))}
        trace = SarTrace(timestamps=vec(), rho=vec(), sigma2=vec(), loglik=vec())
        obj = SeparableFit(order="space_then_time", sar_trace=trace, fcar_fits=(),
                           support_start=1, first_stage_rmse=1.0, **arrays)
    elif name == "SarFit":
        arrays = {"residuals": vec(4)}
        obj = SarFit(rho=0.1, sigma2=1.0, loglik=0.0, rho_interval=(-1.0, 1.0), **arrays)
    elif name == "SarTrace":
        arrays = {"timestamps": vec(), "rho": vec(), "sigma2": vec(), "loglik": vec()}
        obj = SarTrace(**arrays)
    elif name == "NaturalNeighborPrediction":
        arrays = {"values": vec()}
        obj = NaturalNeighborPrediction(
            weights=VoronoiWeights(pairs=((0, 1.0),)), **arrays
        )
    else:
        # eigenvalues passed in as complex, as a non-symmetric W can have
        arrays = {"W": np.array(graph.W), "eigenvalues": vec(4) + 1j * vec(4)}
        obj = NeighborGraph(layout=graph.layout, k=1, neighbors=graph.neighbors,
                            **arrays)
    return obj, arrays


class TestFrozenContainers:
    @pytest.mark.parametrize(
        "name",
        ["SbkCurve", "FcarFit", "FcsarFit", "SeparableFit", "SarFit", "SarTrace",
         "NaturalNeighborPrediction", "NeighborGraph"],
    )
    def test_stored_arrays_frozen_and_inputs_left_writable(self, name):
        obj, arrays = _container_with_inputs(name)
        for field_name, given_arr in arrays.items():
            stored = getattr(obj, field_name)
            assert given_arr.flags.writeable, field_name
            assert not stored.flags.writeable, field_name
            assert stored.dtype == given_arr.dtype, field_name
            npt.assert_array_equal(stored, given_arr)

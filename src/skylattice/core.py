"""Core containers and preprocessing for gridded sensor time series.

A measurement campaign is held as a :class:`SpatioTemporalField`: a sensor
layout, a strictly increasing time axis, and an S x T value matrix.  Raw
fields are reduced by :func:`time_average` and split into a smooth diurnal
component plus a residual by :func:`detrend`.  All containers are immutable;
every transformation returns a new instance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

FIELD_KINDS = ("raw", "detrended", "residual")

MEASUREMENT_HEADER = ["timestamp", "sensor_id", "value"]
LAYOUT_HEADER = ["sensor_id", "x_m", "y_m"]

# cells treated as "value missing" on ingest
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}

# direct O(n*m) convolution below this work estimate, FFT above
_FFT_THRESHOLD = 5_000_000


def _frozen_array(x, dtype=float) -> np.ndarray:
    out = np.array(x, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SensorLayout:
    """Immutable set of named sensor positions in plant coordinates (meters)."""

    ids: tuple[str, ...]
    xy: np.ndarray  # (S, 2)

    def __post_init__(self):
        xy = _frozen_array(self.xy)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("xy must be an (S, 2) array")
        object.__setattr__(self, "ids", tuple(str(s) for s in self.ids))
        object.__setattr__(self, "xy", xy)
        if len(self.ids) != xy.shape[0]:
            raise ValueError("ids and xy disagree on sensor count")
        if len(self.ids) < 3:
            raise ValueError("a layout needs at least 3 sensors")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("sensor ids must be unique")
        if not np.all(np.isfinite(xy)):
            raise ValueError("sensor coordinates must be finite")
        seen = {}
        for sid, (x, y) in zip(self.ids, xy):
            key = (float(x), float(y))
            if key in seen:
                raise ValueError(
                    f"sensors {seen[key]!r} and {sid!r} share position {key}"
                )
            seen[key] = sid

    @property
    def n_sensors(self) -> int:
        return len(self.ids)

    def index_of(self, sensor_id: str) -> int:
        try:
            return self.ids.index(sensor_id)
        except ValueError:
            raise KeyError(f"unknown sensor id {sensor_id!r}") from None

    def subset(self, keep_ids: Sequence[str]) -> "SensorLayout":
        """New layout restricted to ``keep_ids``, preserving this layout's order."""
        keep = set(keep_ids)
        unknown = keep - set(self.ids)
        if unknown:
            raise KeyError(f"unknown sensor ids {sorted(unknown)}")
        idx = [i for i, s in enumerate(self.ids) if s in keep]
        return SensorLayout(tuple(self.ids[i] for i in idx), self.xy[idx])


def grid_layout(
    rows: int, cols: int, spacing: float, origin: tuple[float, float] = (0.0, 0.0)
) -> SensorLayout:
    """Regular rows x cols sensor grid with the given spacing in meters.

    Ids are ``s00, s01, ...`` in row-major order, zero-padded so that
    lexicographic order equals layout order.
    """
    if rows < 1 or cols < 1 or spacing <= 0:
        raise ValueError("rows, cols must be >= 1 and spacing > 0")
    width = len(str(rows * cols - 1))
    ids = []
    pts = []
    for r in range(rows):
        for c in range(cols):
            ids.append(f"s{r * cols + c:0{width}d}")
            pts.append((origin[0] + c * spacing, origin[1] + r * spacing))
    return SensorLayout(tuple(ids), np.array(pts))


@dataclass(frozen=True)
class SpatioTemporalField:
    """Sensor-by-time value matrix tied to a layout and a shared time axis.

    ``values[i, j]`` is the reading of ``layout.ids[i]`` at ``timestamps[j]``
    (epoch seconds).  Missing readings are allowed only through ``mask``
    (True = missing); masked cells hold NaN.  Model fits require a complete
    field, see :meth:`require_complete`.
    """

    layout: SensorLayout
    timestamps: np.ndarray  # (T,)
    values: np.ndarray  # (S, T)
    kind: str = "raw"
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        ts = _frozen_array(self.timestamps)
        vals = _frozen_array(self.values)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"kind must be one of {FIELD_KINDS}, got {self.kind!r}")
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("timestamps must be a non-empty 1-D array")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if vals.shape != (self.layout.n_sensors, ts.size):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"(S, T) = ({self.layout.n_sensors}, {ts.size})"
            )
        if self.mask is not None:
            m = _frozen_array(self.mask, dtype=bool)
            if m.shape != vals.shape:
                raise ValueError("mask shape must match values")
            if not m.any():
                m = None
            object.__setattr__(self, "mask", m)
        if self.mask is None:
            if not np.all(np.isfinite(vals)):
                raise ValueError("values must be finite when no mask is given")
        else:
            if not np.all(np.isfinite(vals[~self.mask])):
                raise ValueError("unmasked values must be finite")

    @property
    def n_sensors(self) -> int:
        return self.layout.n_sensors

    @property
    def n_times(self) -> int:
        return self.timestamps.size

    @property
    def spacing(self) -> float:
        """Native sample spacing in seconds; raises if the axis is not uniform."""
        d = np.diff(self.timestamps)
        if d.size == 0:
            raise ValueError("spacing undefined for a single-timestamp field")
        if not np.allclose(d, d[0], rtol=1e-9, atol=1e-9):
            raise ValueError("time axis is not uniformly spaced")
        return float(d[0])

    def require_complete(self, what: str = "this operation") -> None:
        if self.mask is not None:
            raise ValueError(f"{what} requires a complete field (mask present)")

    def replace_values(self, values: np.ndarray, kind: Optional[str] = None) -> "SpatioTemporalField":
        return SpatioTemporalField(
            self.layout, self.timestamps, values, kind or self.kind, self.mask
        )

    def subset(self, keep_ids: Sequence[str]) -> "SpatioTemporalField":
        """Field restricted to a sensor subset (same time axis)."""
        sub = self.layout.subset(keep_ids)
        idx = [self.layout.index_of(s) for s in sub.ids]
        mask = None if self.mask is None else self.mask[idx]
        return SpatioTemporalField(sub, self.timestamps, self.values[idx], self.kind, mask)


@dataclass(frozen=True)
class TrendModel:
    """Per-sensor smooth trend sampled on the field's own time axis."""

    timestamps: np.ndarray  # (T,)
    trend: np.ndarray  # (S, T)
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _frozen_array(self.timestamps))
        object.__setattr__(self, "trend", _frozen_array(self.trend))

    def restore(self, detrended: SpatioTemporalField) -> SpatioTemporalField:
        """Add the trend back onto a detrended field, returning a raw field."""
        if detrended.kind != "detrended":
            raise ValueError("restore expects a detrended field")
        if detrended.values.shape != self.trend.shape or not np.array_equal(
            detrended.timestamps, self.timestamps
        ):
            raise ValueError("field does not match the axes this trend was fit on")
        return detrended.replace_values(detrended.values + self.trend, kind="raw")


# ---------------------------------------------------------------------------
# ingestion and serialization


def _parse_timestamp(tok: str) -> float:
    tok = tok.strip()
    try:
        return float(tok)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(tok)
    except ValueError:
        raise ValueError(f"cannot parse timestamp {tok!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def read_measurements_csv(path) -> list[tuple[float, str, Optional[float]]]:
    """Read ``timestamp,sensor_id,value`` rows; empty/NA values become None."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != MEASUREMENT_HEADER:
            raise ValueError(
                f"expected header {','.join(MEASUREMENT_HEADER)!r} in {path}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            ts = _parse_timestamp(row[0])
            sid = row[1].strip()
            vtok = row[2].strip()
            if vtok.lower() in _MISSING_TOKENS:
                records.append((ts, sid, None))
            else:
                records.append((ts, sid, float(vtok)))
    return records


def ingest_field(
    records: Iterable[tuple[float, str, Optional[float]]],
    layout: SensorLayout,
    kind: str = "raw",
) -> SpatioTemporalField:
    """Assemble a field from (timestamp, sensor_id, value) records.

    The time axis is the sorted union of record timestamps.  A record with
    value None, or a (sensor, time) pair with no record at all, becomes a
    masked cell.  Records may arrive in any order.

    Raises
    ------
    ValueError
        On an empty record stream, an unknown sensor id, or duplicate
        (sensor, timestamp) records.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to ingest")
    id_to_row = {s: i for i, s in enumerate(layout.ids)}
    times = sorted({float(t) for t, _, _ in records})
    col_of = {t: j for j, t in enumerate(times)}
    S, T = layout.n_sensors, len(times)
    values = np.full((S, T), np.nan)
    mask = np.ones((S, T), dtype=bool)
    seen = np.zeros((S, T), dtype=bool)
    for t, sid, v in records:
        if sid not in id_to_row:
            raise ValueError(f"record for unknown sensor id {sid!r}")
        i, j = id_to_row[sid], col_of[float(t)]
        if seen[i, j]:
            raise ValueError(f"duplicate record for sensor {sid!r} at t={t}")
        seen[i, j] = True
        if v is not None and math.isfinite(v):
            values[i, j] = v
            mask[i, j] = False
    return SpatioTemporalField(layout, np.array(times), values, kind, mask)


def timestamp_strings(timestamps: np.ndarray) -> list[str]:
    """CSV text of a time axis.

    Every stamp is written as a plain integer when all of them are whole
    numbers, otherwise each as a round-tripping ``repr`` float.
    """
    if np.all(timestamps == np.round(timestamps)):
        return [str(int(t)) for t in timestamps]
    return [repr(float(t)) for t in timestamps]


def write_measurements_csv(field: SpatioTemporalField, path) -> None:
    """Write a field as long-form ``timestamp,sensor_id,value`` rows.

    Masked cells are written as NA so that reading the file back reproduces
    the field exactly, mask included.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEASUREMENT_HEADER)
        for j, tstr in enumerate(timestamp_strings(field.timestamps)):
            for i, sid in enumerate(field.layout.ids):
                if field.mask is not None and field.mask[i, j]:
                    writer.writerow([tstr, sid, "NA"])
                else:
                    writer.writerow([tstr, sid, repr(float(field.values[i, j]))])


def read_layout_csv(path) -> SensorLayout:
    ids, pts = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != LAYOUT_HEADER:
            raise ValueError(f"expected header {','.join(LAYOUT_HEADER)!r} in {path}")
        for row in reader:
            if not row:
                continue
            ids.append(row[0].strip())
            pts.append((float(row[1]), float(row[2])))
    return SensorLayout(tuple(ids), np.array(pts))


def write_layout_csv(layout: SensorLayout, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LAYOUT_HEADER)
        for sid, (x, y) in zip(layout.ids, layout.xy):
            writer.writerow([sid, repr(float(x)), repr(float(y))])


def _write_csv_rows(path, header: list, rows: Iterable[tuple]) -> None:
    """Write a header and rows; floats as ``.10g``, everything else as given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# preprocessing


def time_average(field: SpatioTemporalField, window_seconds: float) -> SpatioTemporalField:
    """Average a uniformly sampled field into non-overlapping windows.

    Each output value is the arithmetic mean of the window's samples and is
    stamped at the window midpoint.  A trailing partial window is dropped.
    Windows touching a masked cell come out masked.

    Parameters
    ----------
    field : SpatioTemporalField
        Uniformly sampled, kind "raw" or "detrended".
    window_seconds : float
        Window length; must be a positive integer multiple of the native
        spacing.
    """
    if field.kind not in ("raw", "detrended"):
        raise ValueError("time_average expects a raw or detrended field")
    dt = field.spacing
    m = int(round(window_seconds / dt))
    if m < 1 or abs(window_seconds - m * dt) > 1e-6 * dt:
        raise ValueError(
            f"window {window_seconds}s is not a positive multiple of spacing {dt}s"
        )
    n = field.n_times // m
    if n == 0:
        raise ValueError("window longer than the record")
    S = field.n_sensors
    vals = field.values[:, : n * m].reshape(S, n, m)
    ts = field.timestamps[: n * m].reshape(n, m)
    out_ts = (ts[:, 0] + ts[:, -1]) / 2.0
    out_mask = None
    if field.mask is not None:
        out_mask = field.mask[:, : n * m].reshape(S, n, m).any(axis=2)
    out_vals = vals.mean(axis=2)
    if out_mask is not None:
        out_vals = np.where(out_mask, np.nan, out_vals)
    return SpatioTemporalField(field.layout, out_ts, out_vals, field.kind, out_mask)


def kernel_values(z: np.ndarray) -> np.ndarray:
    """Epanechnikov kernel K(z) at standardized offsets z; 0 wherever |z| > 1."""
    return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0)


def _correlate_same(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    # correlation of y against the odd-length window w, zero-padded ends
    if y.size * w.size <= _FFT_THRESHOLD:
        return np.convolve(y, w[::-1], mode="same")
    return fftconvolve(y, w[::-1], mode="same")


def detrend(
    field: SpatioTemporalField, bandwidth: Optional[float] = None
) -> tuple[SpatioTemporalField, TrendModel]:
    """Remove a per-sensor smooth diurnal trend by local-linear regression.

    Each sensor's series is regressed on time with a straight line fit
    locally around every sample, weighted by the Epanechnikov kernel with
    the given bandwidth (seconds).  The fitted curve is the trend; the
    returned field holds the residuals and has kind "detrended".

    Parameters
    ----------
    field : SpatioTemporalField
        Complete, uniformly sampled, kind "raw".
    bandwidth : float, optional
        Kernel bandwidth in seconds.  Default: record span / 8.

    Returns
    -------
    (detrended, trend_model)
        ``trend_model.restore(detrended)`` reproduces the input.
    """
    if field.kind != "raw":
        raise ValueError("detrend expects a raw field")
    field.require_complete("detrend")
    dt = field.spacing
    if bandwidth is None:
        span = float(field.timestamps[-1] - field.timestamps[0])
        bandwidth = span / 8.0
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")

    # uniform spacing makes the local designs translation invariant, so the
    # weighted moments reduce to correlations with fixed windows
    half = int(math.floor(bandwidth / dt))
    if half < 1:
        raise ValueError("bandwidth too small for the native spacing")
    half = min(half, field.n_times - 1)
    offsets = np.arange(-half, half + 1) * dt
    k = kernel_values(offsets / bandwidth)

    s_mom = [_correlate_same(np.ones(field.n_times), k * offsets**r) for r in range(3)]
    trend = np.empty_like(field.values)
    for i in range(field.n_sensors):
        y = field.values[i]
        t_mom = [_correlate_same(y, k * offsets**r) for r in range(2)]
        det = s_mom[0] * s_mom[2] - s_mom[1] ** 2
        scale = np.abs(s_mom[0] * s_mom[2]) + np.abs(s_mom[1] ** 2)
        bad = det <= 1e-12 * np.maximum(scale, 1e-300)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ValueError(
                f"singular local fit for sensor {field.layout.ids[i]!r} "
                f"at time index {j}; increase the bandwidth"
            )
        trend[i] = (s_mom[2] * t_mom[0] - s_mom[1] * t_mom[1]) / det

    detrended = SpatioTemporalField(
        field.layout, field.timestamps, field.values - trend, "detrended", None
    )
    return detrended, TrendModel(field.timestamps, trend, float(bandwidth))

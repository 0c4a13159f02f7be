"""Core containers and preprocessing for gridded sensor time series.

A measurement campaign is held as a :class:`SpatioTemporalField`: a sensor
layout, a strictly increasing time axis, and an S x T value matrix.  Raw
fields are reduced by :func:`time_average` and split into a smooth diurnal
component plus a residual by :func:`detrend`.  All containers are immutable;
every transformation returns a new instance.  The one Epanechnikov
local-linear smoother of the package lives here too
(:func:`_moment_smoother`, by running moments): :func:`detrend` evaluates
it at the sample times, and the fcar kernel stage at the observed u and
on each curve grid.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np

FIELD_KINDS = ("raw", "detrended", "residual")

MEASUREMENT_HEADER = ["timestamp", "sensor_id", "value"]
LAYOUT_HEADER = ["sensor_id", "x_m", "y_m"]

# cells treated as "value missing" on ingest
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


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
        seen_ids, seen = set(), {}
        for sid, key in zip(self.ids, map(tuple, xy.tolist())):
            # the CSV readers strip ids, so a padded id would not round trip
            if sid != sid.strip():
                raise ValueError(f"sensor id {sid!r} has leading or trailing whitespace")
            if sid in seen_ids:
                raise ValueError(f"sensor ids must be unique: {sid!r} repeats")
            seen_ids.add(sid)
            if not all(map(math.isfinite, key)):
                raise ValueError(f"sensor {sid!r} coordinates must be finite, got {key}")
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


def grid_layout(rows: int, cols: int, spacing: float) -> SensorLayout:
    """Regular rows x cols sensor grid from the origin with the given
    spacing in meters.

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
            pts.append((c * spacing, r * spacing))
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
        bad = np.flatnonzero(~np.isfinite(ts))
        if bad.size:
            raise ValueError(f"timestamps must be finite, got {ts[bad[0]]} at time index {bad[0]}")
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
        bad = ~np.isfinite(vals) if self.mask is None else ~(np.isfinite(vals) | self.mask)
        if bad.any():
            j, i = np.argwhere(bad.T)[0]
            raise ValueError(
                f"unmasked values must be finite: sensor {self.layout.ids[i]!r} "
                f"has {vals[i, j]} at time index {j} (t={ts[j]:.0f})"
            )

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
        """Raise unless no cell is masked; the error names the earliest gap."""
        if self.mask is not None:
            j, i = np.argwhere(self.mask.T)[0]
            raise ValueError(
                f"{what} requires a complete field: sensor {self.layout.ids[i]!r} "
                f"is missing at time index {j} (t={self.timestamps[j]:.0f})"
            )

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
    """Per-sensor smooth trend at the time points of the field it was fit
    on, and the kernel bandwidth (seconds) of that fit."""

    trend: np.ndarray  # (S, T)
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "trend", _frozen_array(self.trend))


# ---------------------------------------------------------------------------
# ingestion and serialization


def _parse_timestamp(tok: str) -> float:
    tok = tok.strip()
    try:
        ts = float(tok)
    except ValueError:
        try:
            dt = datetime.fromisoformat(tok)
        except ValueError:
            raise ValueError(f"cannot parse timestamp {tok!r}") from None
        ts = (dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt).timestamp()
    if not math.isfinite(ts):
        raise ValueError(f"timestamp {tok!r} is not finite")
    return ts


def _rows_after_header(fh, header: list[str], path):
    """A ``csv.reader`` over ``fh`` past its header, which must be ``header``."""
    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None or [h.strip() for h in first] != header:
        raise ValueError(f"expected header {','.join(header)!r} in {path}")
    return reader


@dataclass(frozen=True)
class Measurements:
    """The records of a measurement file, as columns.

    ``times`` and ``ids`` hold the distinct timestamps (epoch seconds) and
    sensor ids in the order the file first names them.  Record k is the
    reading ``values[k]`` (NaN for NA) of sensor ``ids[id_code[k]]`` at
    ``times[time_code[k]]``.
    """

    times: np.ndarray
    ids: tuple[str, ...]
    time_code: np.ndarray
    id_code: np.ndarray
    values: np.ndarray


class _Codes(dict):
    """Token -> code of its parsed value, filled on lookup: a new token is
    parsed once, and tokens that parse equal share a code.  ``distinct``
    maps each parsed value to its code, in code order."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse
        self.distinct = {}

    def __missing__(self, token: str) -> int:
        code = self[token] = self.distinct.setdefault(self.parse(token), len(self.distinct))
        return code


def _na_value(tok: str) -> float:
    """NaN for an NA token; any other value that is not a finite float raises."""
    tok = tok.strip()
    if tok.lower() in _MISSING_TOKENS:
        return math.nan
    float(tok)
    raise ValueError(f"value {tok!r} is not finite; write NA for a missing reading")


def read_measurements_csv(path) -> Measurements:
    """Read ``timestamp,sensor_id,value`` rows as columns; empty/NA values
    become NaN.

    Each distinct timestamp and id token is parsed once.  A non-finite
    timestamp or value (``inf``, ``-inf``) is an error that names the file
    and line; ``nan`` is one of the NA tokens.  A UTF-8 BOM is skipped.  A
    file with no records is an error that names the file.
    """
    times, ids = _Codes(_parse_timestamp), _Codes(str.strip)
    time_code, id_code, values = array("q"), array("q"), array("d")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _rows_after_header(fh, MEASUREMENT_HEADER, path)
        try:
            for row in reader:
                if len(row) != 3:
                    if not row:
                        continue
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                ttok, sid, vtok = row
                time_code.append(times[ttok])
                id_code.append(ids[sid])
                try:
                    v = float(vtok)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    v = _na_value(vtok)
                values.append(v)
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no records")
    return Measurements(
        times=np.array(list(times.distinct), dtype=float),
        ids=tuple(ids.distinct),
        time_code=np.frombuffer(time_code, dtype=np.int64),
        id_code=np.frombuffer(id_code, dtype=np.int64),
        values=np.frombuffer(values, dtype=float),
    )


def ingest_field(
    records: Measurements,
    layout: SensorLayout,
    kind: str = "raw",
) -> SpatioTemporalField:
    """Assemble a field from the columns of a measurement file.

    The time axis is the sorted union of record timestamps.  A NaN value
    (an NA cell), or a (sensor, time) pair with no record at all, becomes a
    masked cell.  Records may arrive in any order.  Any other non-finite
    value is not a gap: the field rejects it, naming the sensor and time
    index.

    Raises
    ------
    ValueError
        On no records, an unknown sensor id, duplicate (sensor, timestamp)
        records, or a non-finite timestamp or value.  Unknown ids are
        checked before duplicates, whatever their order in the file; a
        duplicate names the first record, in file order, that repeats an
        earlier one, with its time index.
    """
    n = records.values.size
    if n == 0:
        raise ValueError("no records to ingest")
    id_to_row = {s: i for i, s in enumerate(layout.ids)}
    unknown = [s for s in records.ids if s not in id_to_row]
    if unknown:
        raise ValueError(f"record for unknown sensor id {unknown[0]!r}")
    times, col = np.unique(records.times, return_inverse=True)
    S, T = layout.n_sensors, times.size
    rows = np.array([id_to_row[s] for s in records.ids], dtype=np.int64)
    cell = rows[records.id_code] * T + col[records.time_code]
    if np.bincount(cell, minlength=S * T).max() > 1:
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(cell, return_index=True)[1]] = False
        i, j = divmod(int(cell[np.argmax(repeat)]), T)
        raise ValueError(
            f"duplicate record for sensor {layout.ids[i]!r} at t={times[j]} (time index {j})"
        )
    values = np.full(S * T, np.nan)
    values[cell] = records.values
    mask = np.ones(S * T, dtype=bool)
    mask[cell] = np.isnan(records.values)
    return SpatioTemporalField(layout, times, values.reshape(S, T), kind, mask.reshape(S, T))


def timestamp_strings(timestamps: np.ndarray) -> list[str]:
    """CSV text of a time axis.

    Every stamp is written as a plain integer when all of them are whole
    numbers, otherwise each as a round-tripping ``repr`` float.
    """
    if np.all(timestamps == np.round(timestamps)):
        return [str(int(t)) for t in timestamps]
    return [repr(float(t)) for t in timestamps]


# cells per write of an S x T file: the chunk's strings stay near a MiB
_WRITE_CHUNK_CELLS = 4096


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row:
    quoted, its quotes doubled, when it holds a comma, a quote or a line
    break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_field_csv(
    path, header: list[str], field: SpatioTemporalField, support: int, *matrices: np.ndarray
) -> None:
    """Write S x T matrices as long-format rows (timestamp, sensor, *cells).

    Rows run time-major from time index ``support`` on, one ``repr`` cell
    per matrix; cells the field masks are written as NA, so that reading a
    measurement file back reproduces the field exactly, mask included.  The
    bytes are those of ``csv.writer`` (``\\r\\n`` line ends, ids quoted by
    :func:`_csv_field`), in UTF-8.  Each chunk of time steps is one
    ``fh.write``: every stamp and id cell is formatted once and the lines
    are spliced from them and one ``repr`` pass per matrix.
    """
    S, T = field.n_sensors, field.n_times
    stamps = [s + "," for s in timestamp_strings(field.timestamps)]
    ids = [_csv_field(s) + "," for s in field.layout.ids]
    # each line's parts: stamp, id, then every cell with the separator after it
    stride = 2 + 2 * len(matrices)
    seps = [","] * (len(matrices) - 1) + ["\r\n"]
    step = max(1, _WRITE_CHUNK_CELLS // S)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for j0 in range(support, T, step):
            j1 = min(j0 + step, T)
            n = (j1 - j0) * S
            parts = [""] * (n * stride)
            for i, sid in enumerate(ids):
                parts[i * stride :: S * stride] = stamps[j0:j1]
                parts[i * stride + 1 :: S * stride] = [sid] * (j1 - j0)
            gaps = [] if field.mask is None else np.flatnonzero(field.mask[:, j0:j1].T).tolist()
            for q, (m, sep) in enumerate(zip(matrices, seps)):
                cells = list(map(repr, m[:, j0:j1].T.ravel().tolist()))
                for k in gaps:
                    cells[k] = "NA"
                parts[2 + 2 * q :: stride] = cells
                parts[3 + 2 * q :: stride] = [sep] * n
            fh.write("".join(parts))


def write_measurements_csv(field: SpatioTemporalField, path) -> None:
    """Write a field as long-form ``timestamp,sensor_id,value`` rows; masked
    cells are written as NA."""
    _write_field_csv(path, MEASUREMENT_HEADER, field, 0, field.values)


def read_layout_csv(path) -> SensorLayout:
    """Read ``sensor_id,x_m,y_m`` rows.  A bad cell, a non-finite
    coordinate or a repeated id is an error that names the file and line,
    and a file with no sensors one that names the file.  A UTF-8 BOM is
    skipped."""
    coords: dict[str, tuple[float, float]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _rows_after_header(fh, LAYOUT_HEADER, path)
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                sid, x, y = row[0].strip(), float(row[1]), float(row[2])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"sensor {sid!r} coordinates must be finite, got {(x, y)}")
                if sid in coords:
                    raise ValueError(f"sensor ids must be unique: {sid!r} repeats")
                coords[sid] = (x, y)
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not coords:
        raise ValueError(f"{path}: no sensors")
    return SensorLayout(tuple(coords), np.array(list(coords.values())))


def write_layout_csv(layout: SensorLayout, path) -> None:
    _write_csv_rows(
        path,
        LAYOUT_HEADER,
        ((sid, repr(x), repr(y)) for sid, (x, y) in zip(layout.ids, layout.xy.tolist())),
    )


def _write_csv_rows(path, header: list, rows: Iterable[tuple]) -> None:
    """Write a header and rows as given; callers format their own cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


@dataclass(frozen=True)
class _Segments:
    """Each evaluation point's kernel window over n sorted points, cut into
    three segments at bins of width h.

    The window of an evaluation point in bin b lies in bins b-1, b and b+1.
    Per point, rows 0..3 of ``index`` are the cuts: segment s runs over the
    sorted points ``index[s]`` .. ``index[s + 1] - 1``, ``width[s]`` of
    them.  Row 4 + s is n + 1 plus the number, among the non-empty bins, of
    the bin segment s lies in (any bin where it is empty), so ``index``
    addresses the prefix sums of the n points followed by the bin means.
    The non-empty bins start at the sorted points ``bin_starts`` and hold
    ``bin_sizes`` points, and ``closed`` holds the first and one past the
    last point of each closed window |u - u0| <= h.
    """

    bin_starts: np.ndarray
    bin_sizes: np.ndarray
    index: np.ndarray
    width: np.ndarray
    closed: np.ndarray

    def ends(self, x: np.ndarray) -> np.ndarray:
        """The prefix sums of x (sorted along the last axis) at the four cuts
        of every window, then the means of its three segments' bins, on a
        new axis before the last.

        The prefix sums run over x minus its bin means, so they return to
        about zero at every bin boundary and carry the rounding of the
        bin's own values only, however far from the first point the bin
        lies; a segment's sum is the difference of its two cuts plus its
        bin's mean times its width.
        """
        n = x.shape[-1]
        buf = np.empty(x.shape[:-1] + (n + 1 + self.bin_sizes.size,), dtype=x.dtype)
        means = buf[..., n + 1 :]
        np.divide(np.add.reduceat(x, self.bin_starts, axis=-1), self.bin_sizes, out=means)
        buf[..., 0] = 0.0
        np.cumsum(x - np.repeat(means, self.bin_sizes, axis=-1), axis=-1, out=buf[..., 1 : n + 1])
        # np.take keeps the result C-ordered, where fancy indexing on the
        # last axis would not
        return np.take(buf, self.index, axis=-1)

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Sums of x (sorted along the last axis) over the three segments of
        every window, on a new axis before the last."""
        ends = self.ends(x)
        return ends[..., 1:4, :] - ends[..., :3, :] + ends[..., 4:, :] * self.width


def _window_weights(polys) -> np.ndarray:
    """``w[j, m, s, p]``: the weight of e^p times the moment sum w v^m over
    segment s in the window sum of w P_j(x), where ``polys[j]`` holds the
    coefficients of x^0, x^1, ... of P_j and x = (u - u0) / h.

    v is a point's offset from the centre of its own bin, b-1+s for
    segment s, and e the evaluation point's from the centre of its bin b,
    in bandwidths, so x = v + (s - 1) - e; the weight is the multinomial
    expansion of P_j.  Flattened to (j, m, s) rows and p columns.
    """
    polys = np.asarray(polys, dtype=float)
    degree = polys.shape[1]
    w = np.zeros((polys.shape[0], degree, 3, degree))
    for j, r in zip(*np.nonzero(polys)):
        for m in range(r + 1):
            for p in range(r - m + 1):
                terms = polys[j, r] * math.comb(r, m) * math.comb(r - m, p)
                for s in range(3):
                    w[j, m, s, p] += terms * (-1.0) ** p * (s - 1.0) ** (r - m - p)
    return w.reshape(-1, degree)


# K(x), K(x) x^j and K(x)^2 x^j for j = 0, 1, 2, with K(x) = 1 - x^2 the
# Epanechnikov kernel without its factor 3/4, which every ratio cancels
_KERNEL = _window_weights([[1, 0, -1]])
_KERNEL_MOMENTS = _window_weights([[1, 0, -1, 0, 0], [0, 1, 0, -1, 0], [0, 0, 1, 0, -1]])
_SQUARED_MOMENTS = _window_weights(
    [[1, 0, -2, 0, 1, 0, 0], [0, 1, 0, -2, 0, 1, 0], [0, 0, 1, 0, -2, 0, 1]]
)


@dataclass(frozen=True)
class _MomentSmoother:
    """Epanechnikov local-linear fits at a set of evaluation points.

    Built by :func:`_moment_smoother` from points u, design columns ``cols``
    (one row per component), a bandwidth h and evaluation points.  At each
    evaluation point u0, component c regresses a response on c1 = cols[c]
    and c1 (u - u0) / h with weights K((u - u0) / h).  ``ok`` marks a
    well-posed local system and ``n_raw`` counts the observations within
    one bandwidth (|u - u0| <= h); both are in the evaluation points' order.

    The rest is kept for the methods, sorted: ``order`` sorts the
    observations and ``rank`` undoes the evaluation points' sort, ``cols``
    is in u order, ``vpow`` holds v^0 .. v^6 of each observation's offset
    v from its bin's centre and ``epow`` e^0 .. e^6 of each evaluation
    point's from its bin's centre, in bandwidths, and ``segments`` the
    window segments.  ``gram`` holds the local Gram sums g00, g01 and g11
    of c1 and c1 x (x = (u - u0) / h) and ``inv`` the inverse of their
    determinant (NaN where not ``ok``).  ``fold[c, m, t]`` weighs the
    ``segments.ends`` row t of c1 w v^m in component c's level: it holds the
    inverse local Gram matrix and the re-centring of each segment's moments
    on the evaluation point.
    """

    ok: np.ndarray
    n_raw: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    cols: np.ndarray
    vpow: np.ndarray
    epow: np.ndarray
    segments: _Segments
    gram: np.ndarray
    inv: np.ndarray
    fold: np.ndarray

    def levels(self, ws: np.ndarray) -> np.ndarray:
        """Local levels of responses ``ws`` (components x k x n, in input
        order: k responses per component) at every evaluation point; NaN
        where the local system is not ``ok``.  One response per component
        at a time, so temporaries hold O(n) values whatever k is."""
        y = self.cols[:, None, :] * ws[..., self.order]
        est = np.empty(y.shape[:2] + (self.rank.size,))
        for k in range(y.shape[1]):
            ends = self.segments.ends(y[:, k, None, :] * self.vpow[:4])
            est[:, k] = np.einsum("cmti,cmti->ci", ends, self.fold)
        return est[..., self.rank]

    def diag(self) -> np.ndarray:
        """The diagonal of the matrix mapping a response to its fitted
        values c1 * level, where the evaluation points are the observations
        themselves; NaN where not ``ok``."""
        return (self.cols * self.cols * self.gram[2] * self.inv)[:, self.rank]

    def window_sums(self, x: np.ndarray) -> np.ndarray:
        """Sums of x (one row per component, in input order) over each
        evaluation point's closed window |u - u0| <= h."""
        prefix = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        np.cumsum(x[..., self.order], axis=-1, out=prefix[..., 1:])
        ends = np.take(prefix, self.segments.closed, axis=-1)
        return (ends[..., 1, :] - ends[..., 0, :])[..., self.rank]

    def _kernel_sums(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Window sums of x P_j(x) (x sorted, one row per series) for the
        polynomials P_j whose weights are ``table``; one row per P_j, in
        the precision of x."""
        degree = table.shape[1]
        epow = self.epow[:degree].astype(x.dtype, copy=False)
        weights = np.dot(table, epow).reshape(-1, degree, 3, epow.shape[1])
        sums = self.segments.sums(x[:, None, :] * self.vpow[:degree])
        return np.einsum("jmsi,cmsi->jci", weights, sums)

    def sandwich(self) -> np.ndarray:
        """Per component, the variance of the local level per unit noise
        variance: the first diagonal entry of A^-1 B A^-1, A the local Gram
        matrix and B its sums with K^2 for K; NaN where not ``ok``.

        A window whose weight sits in a narrow band far from the point
        (an extrapolation) makes A nearly singular, and this quadratic form
        in B squares that condition; B's moment sums, whose re-centring
        cancels most where the weights are small, run in extended precision
        (``np.longdouble``) so that such windows keep 1e-10 of the direct
        sums.
        """
        squares = (self.cols * self.cols).astype(np.longdouble)
        s00, s01, s11 = self._kernel_sums(_SQUARED_MOMENTS, squares)
        g00, g01, g11 = self.gram
        var = (g11 * g11 * s00 - 2.0 * g11 * g01 * s01 + g01 * g01 * s11) * self.inv**2
        return var[:, self.rank].astype(float)

    def transfer(self) -> np.ndarray:
        """``t[c, oc]``: the kernel sum of c1 * cols[oc] over that of c1^2,
        the shift of component c's level per unit of a constant added to
        its responses along cols[oc]; 0 where the latter is not positive
        and where oc == c."""
        a, b = np.triu_indices(len(self.cols), 1)
        (cross,) = self._kernel_sums(_KERNEL, self.cols[a] * self.cols[b])
        g00 = self.gram[0]
        t = np.zeros((len(self.cols),) + g00.shape)
        for row, col in ((a, b), (b, a)):
            t[row, col] = np.divide(cross, g00[row], out=np.zeros(cross.shape), where=g00[row] > 0.0)
        return t[..., self.rank]


def _powers(v: np.ndarray) -> np.ndarray:
    """v^0 .. v^6, one row each."""
    out = np.ones((7, v.size))
    out[1:] = v
    return np.multiply.accumulate(out, axis=0, out=out)


def _closed_windows(us: np.ndarray, xs: np.ndarray, h: float) -> np.ndarray:
    """Per evaluation point x0 in ``xs``, the first sorted u with
    |u - x0| <= h and the one after the last, with u - x0 rounded as a
    direct test rounds it.  Searching for x0 -+ h rounds differently, so
    the cuts found there move over the few distinct u on the wrong side."""
    cut = np.array([np.searchsorted(us, xs - h, side="left"), np.searchsorted(us, xs + h, side="right")])
    padded = np.concatenate([[-np.inf], us, [np.inf]])

    def past(i):
        # whether sorted u[i - 1] lies at or after the window's start, or
        # after its end
        d = padded[i] - xs
        return np.array([d[0] >= -h, d[1] > h])

    while True:
        back, ahead = past(cut), ~past(cut + 1)
        if not (back.any() or ahead.any()):
            return cut
        cut = np.where(back, np.searchsorted(us, padded[cut], side="left"), cut)
        cut = np.where(ahead, np.searchsorted(us, padded[cut + 1], side="right"), cut)


def _moment_smoother(
    u: np.ndarray, cols: np.ndarray, h: float, points: np.ndarray
) -> _MomentSmoother:
    """The response-free part of the local-linear fits at ``points``, by
    running moments in O((n + m) log n) for n observations and m points.

    The kernel is a polynomial, so every window sum of c1^2 (u - u0)^j and
    c1 w (u - u0)^j is a difference of prefix sums of c1^2 v^m and c1 w
    v^m (Seifert, Brockmann, Engel & Gasser 1994).  To keep those sums
    accurate, u is cut into bins of width h from its minimum and v is each
    point's offset from its own bin's centre, in bandwidths (|v| <= 1/2).
    The window of an evaluation point in bin b then lies in bins b-1, b and
    b+1: each bin's segment is summed about its own centre, re-centred on
    bin b's, where no offset exceeds 3/2 bandwidths, and then on the
    evaluation point, whose offset e from bin b's centre plays the part of
    v.  (Only points whose kernel weight rounds to zero at the window's
    edge can fall outside the three bins.)  An evaluation point need not be
    an observation: one outside the data, or in a gap wider than 2h, has
    empty segments.

    A point is ``ok`` when its open window |u - u0| < h holds at least two
    distinct u with nonzero c1, and the determinant of its local Gram
    matrix exceeds 1e-12 of |g00 g11| + g01^2.  Exact sums give a zero
    determinant wherever the first rule fails; prefix sums leave round-off
    there, so the rule is explicit.  Passing u itself as ``points`` (the
    same object) reuses its sort, bins and offset powers for the points.
    """
    at_u = points is u
    u = np.asarray(u, dtype=float)
    cols = np.asarray(cols, dtype=float)
    points = np.asarray(points, dtype=float)
    n, m = u.size, points.size
    order = np.argsort(u, kind="stable")
    us, cs = u[order], cols[:, order]
    z = (us - us[0]) / h
    b = np.floor(z)
    vpow = _powers(z - b - 0.5)
    if at_u:
        # the points are the observations: their sort, bins and offsets
        # are those of u, bit for bit
        at, xs, b0, epow = order, us, b, vpow
    else:
        at = np.argsort(points, kind="stable")
        xs = points[at]
        z0 = (xs - us[0]) / h
        b0 = np.floor(z0)
        epow = _powers(z0 - b0 - 0.5)
    closed = _closed_windows(us, xs, h)
    lo, hi = closed
    # the open windows serve only the distinct-u rule; the kernel weight
    # at their edges vanishes to rounding, so their cuts need not match a
    # direct test
    open_lo = np.searchsorted(us, xs - h, side="right")
    open_hi = np.searchsorted(us, xs + h, side="left")
    bounds = np.concatenate([[0], np.flatnonzero(b[1:] != b[:-1]) + 1, [n]])
    sizes = bounds[1:] - bounds[:-1]
    # the first non-empty bins from b-1 .. b+2 on, and their starts moved
    # into the window: when the point is in the data, bin b's points lie
    # in it, so lo <= (start of b) and (start of b+1) <= hi
    bins = np.searchsorted(b[bounds[:-1]], b0 + np.arange(-1.0, 3.0)[:, None])
    cuts = np.minimum(np.maximum(bounds[bins], lo), hi)
    segments = _Segments(
        bin_starts=bounds[:-1],
        bin_sizes=sizes,
        index=np.concatenate([cuts, n + 1 + np.minimum(bins[:3], sizes.size - 1)]),
        width=cuts[1:] - cuts[:-1],
        closed=closed,
    )
    weights = np.dot(_KERNEL_MOMENTS, epow[:5]).reshape(3, 5, 3, m)

    c2 = cs * cs
    gram = np.einsum("jmsi,cmsi->jci", weights, segments.sums(c2[:, None, :] * vpow[:5]))
    g00, g01, g11 = gram
    # det = g00 g11 - g01^2 > 1e-12 (g00 g11 + g01^2), which implies det > 0
    well_posed = (1.0 - 1e-12) * g00 * g11 > (1.0 + 1e-12) * g01 * g01
    # first[:, i] is the smallest u with a nonzero column from sorted row i
    # on and last[:, i] the largest before row i (+inf and -inf where there
    # is none), so an open window holds two distinct such u when the first
    # from its start lies below the last before its end
    inf = np.full((cs.shape[0], 1), np.inf)
    first = np.concatenate([np.where(cs != 0.0, us, np.inf), inf], axis=1)
    first = np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1]
    last = np.maximum.accumulate(np.concatenate([-inf, np.where(cs != 0.0, us, -np.inf)], axis=1), axis=1)
    distinct = first[:, open_lo] < last[:, open_hi]
    ok = distinct & well_posed
    inv = np.divide(1.0, g00 * g11 - g01 * g01, out=np.full(ok.shape, np.nan), where=ok)
    # level = (g11 r0 - g01 r1) / det, r0 and r1 the response's sums of
    # w K and w K x, whose moments stop at v^3; segment s enters as the
    # ends t = s + 1 minus t = s, plus its bin's mean times its width
    coef = (g11 * inv)[:, None, None] * weights[0, :4] - (g01 * inv)[:, None, None] * weights[1, :4]
    fold = np.zeros(coef.shape[:2] + (7, m))
    fold[:, :, 1:4] = coef
    fold[:, :, :3] -= coef
    fold[:, :, 4:] = coef * segments.width
    rank = np.argsort(at)
    return _MomentSmoother(
        ok=ok[:, rank],
        n_raw=(hi - lo)[rank],
        order=order,
        rank=rank,
        cols=cs,
        vpow=vpow,
        epow=epow,
        segments=segments,
        gram=gram,
        inv=inv,
        fold=fold,
    )


def detrend(
    field: SpatioTemporalField, bandwidth: Optional[float] = None
) -> tuple[SpatioTemporalField, TrendModel]:
    """Remove a per-sensor smooth diurnal trend by local-linear regression.

    Each sensor's series is regressed on time with a straight line fit
    locally around every sample, weighted by the Epanechnikov kernel with
    the given bandwidth (seconds).  The fitted curve is the trend; the
    returned field holds the residuals and has kind "detrended".  The fits
    are one running-moments smoother (:func:`_moment_smoother`, u the time
    on the uniform axis and c1 = 1) with every sensor as one response
    row, so all sensors share its sorting, windows and Gram sums and the
    work is O(T) per sensor, whatever the bandwidth.  A sample whose
    window holds fewer than two samples of nonzero weight has no local
    line; the error names the bandwidth, the spacing and the first such
    time index.

    Parameters
    ----------
    field : SpatioTemporalField
        Complete, uniformly sampled, kind "raw".
    bandwidth : float, optional
        Kernel bandwidth in seconds.  Default: record span / 8.

    Returns
    -------
    (detrended, trend_model)
        ``detrended.values + trend_model.trend`` gives back the input values
        up to rounding.
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
    if bandwidth < dt:
        raise ValueError("bandwidth too small for the native spacing")

    T = field.n_times
    t = np.arange(T) * dt
    smoother = _moment_smoother(t, np.ones((1, T)), bandwidth, t)
    bad = ~smoother.ok[0]
    if np.any(bad):
        raise ValueError(
            f"singular local fit at time index {int(np.argmax(bad))}: bandwidth "
            f"{bandwidth:g}s spans too few samples at spacing {dt:g}s; "
            "increase the bandwidth"
        )
    trend = smoother.levels(field.values[None])[0]

    detrended = SpatioTemporalField(
        field.layout, field.timestamps, field.values - trend, "detrended", None
    )
    return detrended, TrendModel(trend, float(bandwidth))

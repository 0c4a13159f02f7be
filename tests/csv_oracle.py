"""The per-record CSV reader, ingest and writer built on the ``csv`` module,
kept as oracles for the columnar reader and the chunked writer in
``skylattice.core``.

``read_records`` returns one ``(timestamp, sensor_id, value)`` tuple per
row (None for NA), ``ingest_records`` fills a field from such tuples one by
one, and ``write_field_rows`` writes S x T matrices with ``csv.writer``.
``measurements`` turns tuples into the columns ``core.ingest_field`` reads.
"""

import csv
import math
from itertools import repeat
from typing import Optional

import numpy as np

from skylattice.core import (
    MEASUREMENT_HEADER,
    Measurements,
    SpatioTemporalField,
    _MISSING_TOKENS,
    _parse_timestamp,
    timestamp_strings,
)


def _parse_measurement(row: list[str]) -> tuple[float, str, Optional[float]]:
    ts = _parse_timestamp(row[0])
    vtok = row[2].strip()
    value = None if vtok.lower() in _MISSING_TOKENS else float(vtok)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"value {vtok!r} is not finite; write NA for a missing reading")
    return ts, row[1].strip(), value


def read_records(path) -> list[tuple[float, str, Optional[float]]]:
    """``timestamp,sensor_id,value`` rows as tuples; empty/NA values become
    None, and errors name path:line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != MEASUREMENT_HEADER:
            raise ValueError(f"expected header {','.join(MEASUREMENT_HEADER)!r} in {path}")
        parsed = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                parsed.append(_parse_measurement(row))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return parsed


def ingest_records(records, layout, kind: str = "raw") -> SpatioTemporalField:
    """A field from (timestamp, sensor_id, value) tuples, one record at a time."""
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
        if v is not None:
            values[i, j] = v
            mask[i, j] = False
    return SpatioTemporalField(layout, np.array(times), values, kind, mask)


def _field_rows(field: SpatioTemporalField, support: int, *matrices: np.ndarray):
    stamps = timestamp_strings(field.timestamps)
    cols = [m.T.tolist() for m in matrices]
    mask = np.zeros(field.values.shape, dtype=bool) if field.mask is None else field.mask
    gappy = mask.any(axis=0)
    for j in range(support, field.n_times):
        cells = [map(repr, c[j]) for c in cols]
        if gappy[j]:
            cells = [["NA" if gap else cell for gap, cell in zip(mask[:, j], row)] for row in cells]
        yield from zip(repeat(stamps[j]), field.layout.ids, *cells)


def write_field_rows(
    path, header: list[str], field: SpatioTemporalField, support: int, *matrices: np.ndarray
) -> None:
    """Long-format rows (timestamp, sensor, *repr cells) from time index
    ``support`` on, NA where the field masks, through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(_field_rows(field, support, *matrices))


def measurements(records) -> Measurements:
    """The columns of (timestamp, sensor_id, value) tuples, None for NA."""
    records = list(records)
    time_code = {t: k for k, t in enumerate(dict.fromkeys(float(t) for t, _, _ in records))}
    id_code = {s: k for k, s in enumerate(dict.fromkeys(s for _, s, _ in records))}
    return Measurements(
        times=np.array(list(time_code), dtype=float),
        ids=tuple(id_code),
        time_code=np.array([time_code[float(t)] for t, _, _ in records], dtype=np.int64),
        id_code=np.array([id_code[s] for _, s, _ in records], dtype=np.int64),
        values=np.array([np.nan if v is None else v for _, _, v in records], dtype=float),
    )

"""Velocity-trace ingestion and leader-profile extraction.

Traces use one normalized wide-CSV layout: a `time` column in seconds plus
one or more `v<k>` velocity columns in m/s (e.g. time,v1,v2). Heterogeneous
upstream campaign files should be converted to this layout first.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .files import replaced

_VEL_COL = re.compile(r"^v\d+$")
V_SANITY_MAX = 60.0  # m/s; anything above this is a malformed trace


@dataclass(frozen=True)
class TraceTable:
    """Parsed trace: strictly increasing timestamps (s) and per-vehicle
    velocity columns (m/s) as a (n_rows, n_columns) array."""

    times: np.ndarray
    columns: tuple[str, ...]
    values: np.ndarray

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"trace has no column {name!r}")
        return self.values[:, self.columns.index(name)]


@dataclass(frozen=True)
class LeaderProfile:
    """Leader velocities sampled every dt over the half-open window [t0, t1)."""

    velocities: np.ndarray
    t0: float
    t1: float
    dt: float
    label: str

    def __len__(self) -> int:
        return self.velocities.size


def parse_trace_csv(path: str | Path) -> TraceTable:
    """Read a wide trace CSV.

    Requires a `time` header plus at least one `v<k>` column, and no header
    twice. Timestamps must be strictly increasing (duplicates are
    rejected); velocities must sit in the [0, 60] m/s sanity band. Row
    indices in error messages count data rows from 1.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read trace file {path}: {exc}") from exc
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        # Columns are looked up by name, so a second one would be ignored.
        raise DataError(f"{path}: repeated column {', '.join(map(repr, repeated))}")
    if "time" not in header:
        raise DataError(f"{path}: missing required column 'time'")
    vel_cols = [h for h in header if _VEL_COL.match(h)]
    if not vel_cols:
        raise DataError(f"{path}: no velocity columns matching 'v<k>' found")
    t_idx = header.index("time")
    v_idx = [header.index(c) for c in vel_cols]
    times = np.empty(len(rows))
    values = np.empty((len(rows), len(vel_cols)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 1} has {len(row)} fields, expected {len(header)}")
        try:
            times[r] = float(row[t_idx])
            for c, idx in enumerate(v_idx):
                values[r, c] = float(row[idx])
        except ValueError as exc:
            raise DataError(f"{path}: row {r + 1}: {exc}") from None
    if len(rows) == 0:
        raise DataError(f"{path}: no data rows")
    if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
        raise DataError(f"{path}: non-finite values")
    diffs = np.diff(times)
    bad = np.nonzero(diffs <= 0.0)[0]
    if bad.size:
        raise DataError(
            f"{path}: time not strictly increasing at row {int(bad[0]) + 2}"
        )
    if np.any(values < 0.0) or np.any(values > V_SANITY_MAX):
        raise DataError(
            f"{path}: velocities outside the [0, {V_SANITY_MAX:g}] m/s sanity band"
        )
    return TraceTable(times=times, columns=tuple(vel_cols), values=values)


def save_profile(profile: LeaderProfile, path: str | Path) -> None:
    """Write a profile as single-column CSV with a comment header recording
    the source window and sampling interval."""
    header = f"# source={profile.label} t0={profile.t0:g} t1={profile.t1:g} dt={profile.dt:g}\n"
    values = "".join(f"{v:.6f}\n" for v in profile.velocities)
    with replaced(path) as tmp:
        tmp.write_text(header + "velocity_mps\n" + values, newline="")


def extract_window(
    table: TraceTable, vehicle: str, t0: float, t1: float, dt: float = 0.1
) -> LeaderProfile:
    """Leader profile for one vehicle column over the half-open window
    [t0, t1): exactly round((t1 - t0)/dt) samples at t0, t0+dt, ..."""
    if dt <= 0.0:
        raise DataError("extract_window requires dt > 0")
    if not t0 < t1:
        raise DataError(f"empty window [{t0}, {t1})")
    first, last = float(table.times[0]), float(table.times[-1])
    if t0 < first - 1e-9 or t1 > last + dt + 1e-9:
        raise DataError(
            f"window [{t0}, {t1}) outside trace span [{first}, {last}]"
        )
    series = table.column(vehicle)
    n = int(round((t1 - t0) / dt))
    grid = t0 + dt * np.arange(n)
    velocities = np.interp(grid, table.times, series)
    return LeaderProfile(
        velocities=velocities,
        t0=t0,
        t1=t1,
        dt=dt,
        label=f"{vehicle}:{t0:g}-{t1:g}",
    )

"""The row-at-a-time CSV reader and writer that ``demandnet.data`` replaced
with its block-at-a-time path, kept unchanged as the oracle for its bytes,
bits and errors.

Each row is parsed one cell at a time and every series is checked as a list
of rows, so the first error raised is the first fault in file order.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import math

import numpy as np

from demandnet.data import (
    DataError,
    GapError,
    ParseError,
    PolicyRangeError,
    SchemaError,
    SeriesBundle,
)
from demandnet.nn.checkpoint import atomic_write


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"{where}: cannot parse date {text!r}") from exc


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{where}: cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite value {text!r}")
    return value


def _not_text(path, exc: UnicodeDecodeError) -> ParseError:
    """The error for a file with bytes that do not decode, naming the line of
    the first one.  The reader decodes in blocks ahead of the row it parses,
    so the line is found afresh in the raw bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    where = path
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as first:
        line = data.count(b"\n", 0, first.start) + 1
        where, exc = f"{path}:{line}", first
    return ParseError(f"{where}: not {exc.encoding} text ({exc.reason})")


@contextlib.contextmanager
def _csv_rows(path):
    """A ``csv.reader`` over ``path`` whose decode and CSV failures surface
    as :class:`ParseError` (the handler costs nothing per row)."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot open ({exc.strerror or exc})") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from exc
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def _read_header(reader, path) -> list[str]:
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: empty file")
    if not header:
        raise SchemaError(f"{path}: blank header line")
    dup = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if dup is not None:
        raise SchemaError(f"{path}: duplicate column {dup!r}")
    return header


def load_sidecar(path, expected_ids=None) -> dict[str, dict[str, float]]:
    """Load the static-feature sidecar CSV keyed by series id."""
    with _csv_rows(path) as reader:
        header = _read_header(reader, path)
        if header[0] != "series_id":
            raise SchemaError(f"{path}: first column must be 'series_id', got {header[0]!r}")
        feature_names = header[1:]
        profiles: dict[str, dict[str, float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            sid = row[0]
            if sid in profiles:
                raise SchemaError(f"{path}:{lineno}: duplicate series_id {sid!r}")
            profiles[sid] = {
                name: _parse_float(cell, f"{path}:{lineno}:{name}")
                for name, cell in zip(feature_names, row[1:])
            }
    if expected_ids is not None:
        missing = [sid for sid in expected_ids if sid not in profiles]
        if missing:
            raise SchemaError(f"{path}: no static row for series {missing}")
    return profiles


def load_dataset(path, sidecar=None) -> list[SeriesBundle]:
    """Load a long-format panel CSV into one bundle per series.

    The columns ``series_id``, ``date``, ``target`` and ``policy`` are
    required; every other column is a covariate.  Rows may arrive in any
    order; each series is sorted by date and must then be contiguous daily.
    All numeric cells must parse and be finite, and the policy column must
    stay within [0, 1].
    """
    with _csv_rows(path) as reader:
        header = _read_header(reader, path)
        for col in ("series_id", "date", "target"):
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        covariate_names = tuple(c for c in header if c not in ("series_id", "date", "target"))
        if "policy" not in covariate_names:
            raise SchemaError(f"{path}: missing required column 'policy'")
        policy_index = covariate_names.index("policy")
        col_of = {name: header.index(name) for name in header}
        rows_by_id: dict[str, list] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            sid = row[col_of["series_id"]]
            date = _parse_date(row[col_of["date"]], f"{path}:{lineno}:date")
            target = _parse_float(row[col_of["target"]], f"{path}:{lineno}:target")
            covs = [
                _parse_float(row[col_of[name]], f"{path}:{lineno}:{name}")
                for name in covariate_names
            ]
            rows_by_id.setdefault(sid, []).append((date, target, covs))

    profiles = load_sidecar(sidecar, expected_ids=sorted(rows_by_id)) if sidecar else {}

    bundles = []
    for sid in sorted(rows_by_id):
        rows = sorted(rows_by_id[sid], key=lambda r: r[0])
        dates = [r[0] for r in rows]
        for prev, cur in zip(dates, dates[1:]):
            if cur == prev:
                raise GapError(f"{path}: series {sid}: duplicate date {cur.isoformat()}")
            expected = prev + dt.timedelta(days=1)
            if cur != expected:
                raise GapError(
                    f"{path}: series {sid}: missing date {expected.isoformat()} "
                    f"(gap before {cur.isoformat()})"
                )
        target = np.array([r[1] for r in rows])
        covariates = np.array([r[2] for r in rows])
        policy = covariates[:, policy_index]
        bad = np.flatnonzero((policy < 0.0) | (policy > 1.0))
        if bad.size:
            i = int(bad[0])
            raise PolicyRangeError(
                f"{path}: series {sid}: policy value {policy[i]} on "
                f"{dates[i].isoformat()} outside [0, 1]"
            )
        bundles.append(
            SeriesBundle(
                id=sid,
                target=target,
                covariates=covariates,
                covariate_names=covariate_names,
                policy_index=policy_index,
                static_profile=profiles.get(sid, {}),
                start_date=dates[0],
            )
        )
    return bundles


def write_dataset_csv(bundles: list[SeriesBundle], path):
    """Write bundles back to the long-format CSV (deterministic bytes, atomically)."""
    if not bundles:
        raise ValueError("no bundles to write")
    names = bundles[0].covariate_names
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "date", "target", *names])
        for bundle in bundles:
            if bundle.covariate_names != names:
                raise ValueError("bundles disagree on covariate names")
            start = bundle.start_date or dt.date(2019, 1, 6)
            for t in range(bundle.length):
                day = start + dt.timedelta(days=t)
                writer.writerow(
                    [bundle.id, day.isoformat(), repr(float(bundle.target[t]))]
                    + [repr(float(v)) for v in bundle.covariates[t]]
                )


def write_sidecar_csv(bundles: list[SeriesBundle], path):
    """Write the static profiles of all bundles as a sidecar CSV, atomically."""
    if not bundles:
        raise ValueError("no bundles to write")
    names = list(bundles[0].static_profile)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", *names])
        for bundle in bundles:
            if list(bundle.static_profile) != names:
                raise ValueError("bundles disagree on static feature names")
            writer.writerow(
                [bundle.id] + [repr(float(bundle.static_profile[n])) for n in names]
            )

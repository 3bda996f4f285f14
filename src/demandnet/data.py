"""Series containers, CSV ingestion, normalization, windowing, and splits.

The on-disk format is one long CSV with columns
``series_id,date,target,<cov_1>,...,<cov_M>`` (ISO dates, daily frequency,
contiguous per series) plus an optional static sidecar CSV keyed by
``series_id``.  In-memory, each location is a read-only :class:`SeriesBundle`;
channel 0 always refers to the target and channels ``1..M`` to the covariates
in header order.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .nn.checkpoint import atomic_write
from .rngs import stream


class DataError(ValueError):
    """Base class for ingestion and validation failures."""


class SchemaError(DataError):
    """A required column is missing or a file is structurally wrong."""


class GapError(DataError):
    """Dates within a series are duplicated or not contiguous daily."""


class ParseError(DataError):
    """A cell could not be parsed as a date or finite number."""


class PolicyRangeError(DataError):
    """A policy stringency value fell outside the closed unit interval."""


def _frozen_array(values, dtype=float, ndim=None, name="array") -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SeriesBundle:
    """One location's demand series, covariate panel, and static profile."""

    id: str
    target: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    policy_index: int
    static_profile: dict[str, float] = field(default_factory=dict)
    start_date: dt.date | None = None

    def __post_init__(self):
        target = _frozen_array(self.target, ndim=1, name="target")
        covariates = _frozen_array(self.covariates, ndim=2, name="covariates")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(
            self, "static_profile", {k: float(v) for k, v in self.static_profile.items()}
        )
        if covariates.shape[0] != target.shape[0]:
            raise SchemaError(
                f"series {self.id}: target has {target.shape[0]} rows but "
                f"covariates have {covariates.shape[0]}"
            )
        if covariates.shape[1] != len(self.covariate_names):
            raise SchemaError(
                f"series {self.id}: {covariates.shape[1]} covariate columns but "
                f"{len(self.covariate_names)} names"
            )
        if not 0 <= self.policy_index < covariates.shape[1]:
            raise SchemaError(f"series {self.id}: policy_index {self.policy_index} out of range")
        if not np.isfinite(target).all() or not np.isfinite(covariates).all():
            raise SchemaError(f"series {self.id}: non-finite values present")
        policy = covariates[:, self.policy_index]
        if policy.size and (policy.min() < 0.0 or policy.max() > 1.0):
            bad = int(np.argmax((policy < 0.0) | (policy > 1.0)))
            raise PolicyRangeError(
                f"series {self.id}: policy value {policy[bad]} at index {bad} outside [0, 1]"
            )

    @property
    def length(self) -> int:
        return int(self.target.shape[0])

    @property
    def policy(self) -> np.ndarray:
        return self.covariates[:, self.policy_index]

    def channel_names(self) -> tuple[str, ...]:
        return ("target",) + self.covariate_names

    def channel_matrix(self, rows=slice(None)) -> np.ndarray:
        """Stack target and covariates as a (T, 1+M) panel, target first;
        ``rows`` selects days."""
        return np.column_stack([self.target[rows], self.covariates[rows]])


@dataclass(frozen=True)
class DatasetSplit:
    """Contiguous, non-overlapping, exhaustive index ranges of one series."""

    train: range
    validation: range
    test: range

    def __post_init__(self):
        segments = (self.train, self.validation, self.test)
        for seg in segments:
            if seg.step != 1:
                raise ValueError("split ranges must have step 1")
        if self.train.start != 0:
            raise ValueError("train range must start at 0")
        if (
            self.validation.start != self.train.stop
            or self.test.start != self.validation.stop
        ):
            raise ValueError("split ranges must be contiguous")


def check_fractions(fractions) -> None:
    """``split_time``'s rule: three positive fractions that sum to 1."""
    if len(fractions) != 3 or any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-8:
        raise ValueError(f"fractions must be three positive numbers summing to 1, "
                         f"got {fractions}")


def split_time(bundle: SeriesBundle | int, fractions=(0.8, 0.1, 0.1)) -> DatasetSplit:
    """Chronological train/validation/test split by cumulative fractions.

    Boundaries are floors of the cumulative fractions, so a length-101 series
    with the default fractions yields segments of 80, 10, and 11 points.
    """
    length = bundle if isinstance(bundle, int) else bundle.length
    if length <= 0:
        raise ValueError(f"cannot split a length-{length} series")
    check_fractions(fractions)
    first = int(math.floor(round(fractions[0] * length, 9)))
    second = int(math.floor(round((fractions[0] + fractions[1]) * length, 9)))
    sizes = {"training": first, "validation": second - first, "test": length - second}
    empty = [name for name, size in sizes.items() if size < 1]
    if empty:
        raise ValueError(f"length {length} too short for fractions {fractions}: "
                         f"no {' or '.join(empty)} days")
    return DatasetSplit(range(0, first), range(first, second), range(second, length))


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics fitted on the training range only.

    Channel 0 is the target, channels ``1..M`` the covariates.  Constant
    channels get scale 1.0; identity channels (e.g. the policy index, which
    must stay in raw [0, 1] units) get location 0 / scale 1.
    """

    location: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "location", _frozen_array(self.location, ndim=1))
        object.__setattr__(self, "scale", _frozen_array(self.scale, ndim=1))
        if not (self.scale > 0).all():
            raise ValueError("scales must be strictly positive")

    @property
    def n_channels(self) -> int:
        return int(self.location.shape[0])

    def normalize_target(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.location[0]) / self.scale[0]

    def denormalize_target(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.scale[0] + self.location[0]

    def normalize_panel(self, panel: np.ndarray) -> np.ndarray:
        """Z-score a (T, channels) panel: subtract each channel's location,
        then divide by its scale."""
        if panel.shape[-1] != self.n_channels:
            raise ValueError(
                f"stats cover {self.n_channels} channels, panel has {panel.shape[-1]}"
            )
        return (panel - self.location) / self.scale

    def normalize_bundle(self, bundle: SeriesBundle) -> SeriesBundle:
        panel = self.normalize_panel(bundle.channel_matrix())
        return replace(bundle, target=panel[:, 0], covariates=panel[:, 1:])


def fit_norm_stats(
    bundle: SeriesBundle, split: DatasetSplit, identity_channels: tuple[int, ...] = ()
) -> NormStats:
    """Fit per-channel mean/population-SD on the training range only."""
    if split.train.stop > bundle.length:
        raise ValueError(
            f"series {bundle.id}: split train range ends at {split.train.stop} "
            f"but series has {bundle.length} points"
        )
    panel = bundle.channel_matrix(slice(split.train.start, split.train.stop))
    location = panel.mean(axis=0)
    scale = panel.std(axis=0)
    scale[scale == 0.0] = 1.0
    for ch in identity_channels:
        if not 0 <= ch < panel.shape[1]:
            raise ValueError(f"identity channel {ch} out of range")
        location[ch], scale[ch] = 0.0, 1.0
    return NormStats(location, scale)


def prepare_bundle(bundle: SeriesBundle, fractions=(0.8, 0.1, 0.1)):
    """Split, fit normalization stats (policy kept raw), normalize.

    Returns ``(split, stats, normalized bundle)``.
    """
    split = split_time(bundle.length, fractions)
    stats = fit_norm_stats(bundle, split, identity_channels=(1 + bundle.policy_index,))
    return split, stats, stats.normalize_bundle(bundle)


@dataclass(frozen=True)
class Windows:
    """Supervised windows as index views into their series, copied only
    when gathered.

    ``channels`` (L, 1+M) holds the series' channel panels one after another,
    target in column 0, and ``policy`` (L,) their policy; window n starts at
    flat row ``starts[n]`` and its first label is local day ``origins[n]``
    of its own series.  ``past`` (N, tau, 1+M), ``policies`` (N, H) and
    ``labels`` (N, H) gather C-contiguous arrays on each access;
    :meth:`take` gathers a batch of rows, so training holds one batch at a
    time, never every window at once.
    """

    channels: np.ndarray
    policy: np.ndarray
    starts: np.ndarray
    origins: np.ndarray
    tau: int
    horizon: int

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def _days(self, rows, offset: int, length: int) -> np.ndarray:
        return self.starts[rows, None] + np.arange(offset, offset + length)

    @property
    def past(self) -> np.ndarray:
        return self.channels[self._days(slice(None), 0, self.tau)]

    @property
    def policies(self) -> np.ndarray:
        return self.policy[self._days(slice(None), self.tau, self.horizon)]

    @property
    def labels(self) -> np.ndarray:
        return self.channels[self._days(slice(None), self.tau, self.horizon), 0]

    def take(self, rows=slice(None), daily=None):
        """``(past, policies, labels)`` of windows ``rows``; with ``daily``,
        an (L,) array of per-day values in place of ``policy``."""
        future = self._days(rows, self.tau, self.horizon)
        return (self.channels[self._days(rows, 0, self.tau)],
                (self.policy if daily is None else daily)[future], self.channels[future, 0])

    @classmethod
    def concat(cls, parts) -> "Windows":
        """One record over every part's series; each part's starts move by
        the rows before it, so no window crosses into another series."""
        offsets = np.cumsum([0] + [w.channels.shape[0] for w in parts[:-1]])
        return cls(np.concatenate([w.channels for w in parts]),
                   np.concatenate([w.policy for w in parts]),
                   np.concatenate([w.starts + o for w, o in zip(parts, offsets)]),
                   np.concatenate([w.origins for w in parts]),
                   parts[0].tau, parts[0].horizon)


def make_windows(bundle: SeriesBundle, tau: int, horizon: int,
                 span: range | None = None) -> Windows:
    """Slide a (tau past, horizon future) window over one series.

    Returns ``T - tau - horizon + 1`` windows, origins ``tau .. T - horizon``;
    with ``span``, only those with ``span.start <= origin`` and
    ``origin + horizon <= span.stop`` (possibly none).  Never crosses series
    boundaries because it only ever sees one bundle.
    """
    if tau < 1 or horizon < 1:
        raise ValueError(f"tau and horizon must be >= 1, got tau={tau} horizon={horizon}")
    T = bundle.length
    if T - tau - horizon + 1 <= 0:
        raise ValueError(
            f"series {bundle.id}: length {T} too short for tau={tau} horizon={horizon}"
        )
    first, stop = tau, T - horizon + 1
    if span is not None:
        first, stop = max(first, span.start), min(stop, span.stop - horizon + 1)
    stop = max(first, stop)
    return Windows(bundle.channel_matrix(), np.array(bundle.policy),
                   np.arange(first - tau, stop - tau), np.arange(first, stop), tau, horizon)


def holdout_series(bundles: list[SeriesBundle], held_ids) -> tuple[list, list]:
    """Partition bundles into (training, held-out) by series id."""
    held_ids = list(held_ids)
    known = {b.id for b in bundles}
    unknown = [sid for sid in held_ids if sid not in known]
    if unknown:
        raise ValueError(f"unknown series ids: {unknown}")
    if not held_ids:
        raise ValueError("held_ids is empty")
    held_set = set(held_ids)
    train = [b for b in bundles if b.id not in held_set]
    held = [b for b in bundles if b.id in held_set]
    if not train:
        raise ValueError("holding out every series leaves nothing to train on")
    return train, held


def post_shock_ratio(target: np.ndarray, onset: int) -> float:
    """Mean demand after the shock onset divided by the mean before it."""
    target = np.asarray(target, dtype=float)
    if not 0 < onset < target.shape[0]:
        raise ValueError(f"onset {onset} outside series of length {target.shape[0]}")
    pre = target[:onset].mean()
    if pre == 0.0:
        raise ValueError("pre-onset mean is zero; ratio undefined")
    return float(target[onset:].mean() / pre)


# ----------------------------------------------------------------------------
# CSV ingestion


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


# ----------------------------------------------------------------------------
# Synthetic pandemic-shock generator


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic multi-series demand generator.

    Each series is weekly-seasonal demand with a mild trend and Gaussian
    noise, multiplied after the shock onset by a policy suppression factor
    ``1 - depth_k * policy**suppression_exponent``.  Per-series depth varies
    with the ``tourism_share`` static, so that static is genuinely predictive
    of shock impact while others are level proxies or noise.
    """

    series_count: int = 8
    length: int = 800
    base_level: float = 100.0
    season_amp: float = 6.0
    trend: float = 0.0003
    noise_sd: float = 2.0
    shock_onset: int | None = None  # default: 45% of the series length
    policy_schedule: tuple[tuple[int, float], ...] | None = None
    suppression_exponent: float = 1.5
    suppression_depth: float = 0.6
    impact_spread: float = 0.25

    def __post_init__(self):
        if self.series_count < 1:
            raise ValueError("series_count must be >= 1")
        if self.length < 8:
            raise ValueError("length must be >= 8")
        if self.shock_onset is None:
            object.__setattr__(self, "shock_onset", int(self.length * 0.45))
        if not 0 < self.shock_onset < self.length:
            raise ValueError("shock_onset must lie strictly inside the series")
        if self.noise_sd < 0 or self.season_amp < 0:
            raise ValueError("noise_sd and season_amp must be non-negative")
        if not 0 <= self.suppression_depth < 1:
            raise ValueError("suppression_depth must be in [0, 1)")
        if self.suppression_exponent <= 0:
            raise ValueError("suppression_exponent must be positive")
        if not 0 <= self.impact_spread <= 1:
            raise ValueError("impact_spread must be in [0, 1]")
        if self.policy_schedule is not None:
            schedule = tuple((int(d), float(v)) for d, v in self.policy_schedule)
            object.__setattr__(self, "policy_schedule", schedule)
            days = [d for d, _ in schedule]
            if days != sorted(set(days)):
                raise ValueError("policy_schedule days must be strictly increasing")
            if any(not 0 <= v <= 1 for _, v in schedule):
                raise ValueError("policy_schedule levels must be in [0, 1]")


def default_policy_schedule(length: int, onset: int) -> tuple[tuple[int, float], ...]:
    """Two-wave closure schedule: a first wave after onset and a late second
    rise near the end of the series (inside the 80-10-10 test range)."""
    ramp = max(2, length // 55)
    first_peak = min(onset + ramp, length - 1)
    first_hold = min(onset + length // 9, length - 1)
    relax = min(first_hold + length // 13, length - 1)
    second_start = min(int(length * 0.93), length - 2)
    second_peak = min(second_start + max(2, length // 55), length - 1)
    points = [
        (0, 0.0),
        (onset, 0.0),
        (first_peak, 1.0),
        (first_hold, 1.0),
        (relax, 0.2),
        (second_start, 0.2),
        (second_peak, 0.9),
        (length - 1, 0.9),
    ]
    schedule, last_day = [], -1
    for day, level in points:
        if day > last_day:
            schedule.append((day, level))
            last_day = day
    return tuple(schedule)


def policy_from_schedule(schedule, length: int) -> np.ndarray:
    """Piecewise-linear interpolation of (day, level) breakpoints."""
    days = np.array([d for d, _ in schedule], dtype=float)
    levels = np.array([v for _, v in schedule], dtype=float)
    return np.interp(np.arange(length, dtype=float), days, levels)


STATIC_FEATURE_NAMES = (
    "population",
    "gdp_per_capita",
    "hospital_beds",
    "tourism_share",
    "latitude",
    "spare_noise",
)


def synth_generate(config: SynthConfig, seed: int) -> list[SeriesBundle]:
    """Generate ``series_count`` synthetic bundles with shared policy schedule.

    All randomness flows through named streams of ``seed``, so output is
    byte-identical across runs for the same (config, seed).
    """
    schedule = config.policy_schedule or default_policy_schedule(
        config.length, config.shock_onset
    )
    policy = policy_from_schedule(schedule, config.length)
    if policy.min() < 0 or policy.max() > 1:
        raise ValueError("policy schedule interpolates outside [0, 1]")
    t = np.arange(config.length, dtype=float)
    # cases proxy leads policy by a week: health signal precedes intervention
    lead = np.minimum(np.arange(config.length) + 7, config.length - 1)

    bundles = []
    for k in range(config.series_count):
        statics_rng = stream(seed, "synth", k, "statics")
        noise_rng = stream(seed, "synth", k, "noise")

        size = statics_rng.uniform()
        tourism = statics_rng.uniform()
        gdp_noise = statics_rng.uniform()
        beds_noise = statics_rng.uniform()
        latitude = statics_rng.uniform(25.0, 49.0)
        spare = statics_rng.normal()
        phase1 = int(statics_rng.integers(0, 7))
        phase2 = int(statics_rng.integers(0, 7))

        scale_k = 0.6 + 0.8 * size
        depth_k = config.suppression_depth * (1.0 + config.impact_spread * (2.0 * tourism - 1.0))
        depth_k = min(max(depth_k, 0.0), 0.95)

        season = np.sin(2 * np.pi * (t + phase1) / 7.0) + 0.4 * np.sin(
            4 * np.pi * (t + phase2) / 7.0
        )
        clean = config.base_level * scale_k * (1.0 + config.trend * t)
        clean = clean + config.season_amp * scale_k * season
        noisy = clean + config.noise_sd * scale_k * noise_rng.normal(size=config.length)
        suppression = 1.0 - depth_k * policy**config.suppression_exponent
        target = noisy * suppression

        post = t >= config.shock_onset
        cases = np.where(
            post,
            120.0 * policy[lead] * np.maximum(1.0 + 0.25 * noise_rng.normal(size=config.length), 0.0),
            0.0,
        )
        mobility = 1.0 - 0.8 * policy + 0.05 * noise_rng.normal(size=config.length)

        profile = {
            "population": float(round(2e5 + 4.8e6 * size**2)),
            "gdp_per_capita": float(round(2.5e4 * (0.7 + 0.6 * gdp_noise), 2)),
            "hospital_beds": float(round((2e5 + 4.8e6 * size**2) * (0.002 + 0.001 * beds_noise))),
            "tourism_share": float(round(tourism, 6)),
            "latitude": float(round(latitude, 4)),
            "spare_noise": float(round(spare, 6)),
        }
        bundles.append(
            SeriesBundle(
                id=f"S{k:02d}",
                target=target,
                covariates=np.column_stack([policy, cases, mobility]),
                covariate_names=("policy", "cases", "mobility"),
                policy_index=0,
                static_profile=profile,
                start_date=dt.date(2019, 1, 6),
            )
        )
    return bundles

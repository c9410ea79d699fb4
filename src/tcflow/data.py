"""Dataset handling: CSV ingestion, preprocessing, splits and a synthetic
multichannel generator with anomaly injection.

Preprocessing follows three rules: channels are min-max normalized into
[-1, 1] with statistics taken from training data only, all-zero channels are
replaced by the constant 0.5 before normalization, and an extra constant-0.5
channel is appended when the channel count is odd (the coupling split needs
an even count). Train/validation splits keep a lookback-sized gap so no
training window can touch validation targets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

SPLIT_MODES = ("random-sections", "sequential-tail")
TRAIN_SHARE = 0.8  # of the series; the other 20% is validation
FAMILIES = ("sine", "saw", "increasing", "wave", "random-walk", "cbf")
ANOMALY_KINDS = (
    "spike", "platform", "mean-shift", "amplitude",
    "pattern", "variance", "trend", "cutoff",
)

PAD_VALUE = 0.5


class DataError(ValueError):
    pass


@dataclass
class TimeSeriesDataset:
    """A (T, D) multivariate series with optional per-timestep labels."""

    values: np.ndarray
    labels: np.ndarray | None = None
    channel_names: list[str] = field(default_factory=list)
    norm_stats: tuple[np.ndarray, np.ndarray] | None = None  # per-channel (min, max)
    anomalies: list["AnomalySpec"] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"values must be 2-D (time, channels), got {self.values.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (self.values.shape[0],):
                raise DataError("labels length must equal the number of timesteps")
        if not self.channel_names:
            self.channel_names = [f"ch{i}" for i in range(self.values.shape[1])]
        if len(self.channel_names) != self.n_channels:
            raise DataError(f"{len(self.channel_names)} channel names for {self.n_channels} channels")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass
class AnomalySpec:
    """One injected anomaly: where, what kind, how strong."""

    kind: str
    start: int
    length: int
    magnitude: float = 3.0
    channels: tuple[int, ...] | None = None  # None = all channels

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise DataError(f"unknown anomaly kind {self.kind!r}")
        if self.length < 1:
            raise DataError("anomaly length must be >= 1")

    @property
    def stop(self) -> int:
        return self.start + self.length


# -- CSV ---------------------------------------------------------------------


def write_table(path, header, columns, comment=None) -> None:
    """The one table format: an optional "# " comment line, the header, then
    the equal-length ``columns`` (arrays or lists) row by row, floats as the
    shortest repr that reads back exactly, booleans as 0/1."""
    cells = [(c.astype(int) if c.dtype == bool else c).tolist() for c in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def read_table(path) -> tuple[list[str] | None, np.ndarray]:
    """The header (None without one) and the (rows, columns) float array of a
    numeric table. A first row that is not all numbers is the header; blank
    rows are skipped. An empty file, a ragged row (a header of another width
    counts), a non-numeric or a non-finite cell raises ``DataError`` naming
    the row (data rows count from 1) and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        header, skip = None, 0
        try:
            [float(cell) for cell in first]
        except ValueError:
            header, skip = [cell.strip() for cell in first], reader.line_num
            if next(rows, None) is None:
                raise DataError(f"{path}: header but no data rows") from None
        fh.seek(0)
        try:
            values = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                skiprows=skip, ndmin=2)
            if header is not None and values.shape[1] != len(header):
                raise ValueError("header and rows differ in width")
        except ValueError as exc:
            fh.seek(0)
            raise _bad_cell(path, filter(None, csv.reader(fh)), header, exc) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        name = header[j] if header else "cell"
        raise DataError(f"{path}: non-finite {name} at row {i + 1}, column {j + 1}: "
                        f"{float(values[i, j])!r}")
    return header, values


def _bad_cell(path, rows, header, exc: ValueError) -> DataError:
    """The error naming the first of the non-blank ``rows`` that is ragged or
    has a cell ``float`` rejects; numpy's own if none is (numpy also rejects
    ``1_000``)."""
    width = len(next(rows)) if header is not None else None
    for i, row in enumerate(rows, 1):
        width = width or len(row)
        if len(row) != width:
            return DataError(f"{path}: ragged row {i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row, 1):
            try:
                float(cell)
            except ValueError:
                return DataError(f"{path}: non-numeric cell at row {i}, column {j}: {cell!r}")
    return DataError(f"{path}: {exc}")


def binary_labels(path, values: np.ndarray, column: int) -> np.ndarray:
    """Column ``column`` of a ``read_table`` array as booleans; a value other
    than 0 or 1 raises ``DataError`` naming its row and column."""
    raw = values[:, column]
    bad = np.flatnonzero((raw != 0.0) & (raw != 1.0))
    if bad.size:
        raise DataError(f"{path}: non-binary label at row {bad[0] + 1}, column {column + 1}: "
                        f"{float(raw[bad[0]])!r}")
    return raw.astype(bool)


def load_csv(path, has_labels: bool = False) -> TimeSeriesDataset:
    """A ``read_table`` table, its header naming the channels; with
    ``has_labels`` the last column must be 0/1 and becomes the labels."""
    header, values = read_table(path)
    labels = None
    if has_labels:
        if values.shape[1] < 2:
            raise DataError(f"{path}: need at least one channel besides the label column")
        labels = binary_labels(path, values, values.shape[1] - 1)
        values = values[:, :-1]
        header = header and header[:-1]
    return TimeSeriesDataset(values, labels, channel_names=header or [])


def save_csv(ds: TimeSeriesDataset, path, with_labels: bool = True) -> None:
    header, columns = list(ds.channel_names), list(ds.values.T)
    if with_labels and ds.labels is not None:
        header.append("label")
        columns.append(ds.labels)
    write_table(path, header, columns)


# -- normalization and padding ------------------------------------------------


def replace_zero_channels(values: np.ndarray) -> np.ndarray:
    """All-zero channels become the constant 0.5 (pre-normalization rule)."""
    values = values.copy()
    dead = ~values.any(axis=0)
    values[:, dead] = PAD_VALUE
    return values


def normalize_minmax(ds: TimeSeriesDataset) -> TimeSeriesDataset:
    """Fit per-channel min/max on this dataset and map into [-1, 1].

    Constant channels (min == max), including the 0.5 stand-ins for all-zero
    channels, map to all-zero. The fitted stats are stored for reuse on
    test data.
    """
    values = replace_zero_channels(ds.values)
    return normalize_with_stats(ds, (values.min(axis=0), values.max(axis=0)))


def normalize_with_stats(ds: TimeSeriesDataset, stats) -> TimeSeriesDataset:
    """Apply previously fitted train statistics; values may leave [-1, 1]."""
    lo, hi = (np.asarray(s, dtype=np.float64) for s in stats)
    if lo.shape != (ds.n_channels,):
        raise DataError(f"stats cover {lo.shape[0]} channels, dataset has {ds.n_channels}")
    values = replace_zero_channels(ds.values)
    span = hi - lo
    out = np.zeros_like(values)
    live = span > 0
    out[:, live] = 2.0 * (values[:, live] - lo[live]) / span[live] - 1.0
    return replace(ds, values=out, norm_stats=(lo, hi), anomalies=list(ds.anomalies))


def denormalize(values: np.ndarray, stats) -> np.ndarray:
    lo, hi = (np.asarray(s, dtype=np.float64) for s in stats)
    return lo + (values + 1.0) * (hi - lo) / 2.0


def pad_even_channels(ds: TimeSeriesDataset) -> TimeSeriesDataset:
    """Append one constant-0.5 channel when the channel count is odd."""
    if ds.n_channels % 2 == 0:
        return ds
    pad = np.full((ds.n_steps, 1), PAD_VALUE)
    return replace(
        ds,
        values=np.hstack([ds.values, pad]),
        channel_names=list(ds.channel_names) + ["pad"],
        anomalies=list(ds.anomalies),
    )


# -- train/validation split ----------------------------------------------------


def split_train_val(
    n_steps: int,
    lookback: int,
    mode: str = "random-sections",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint train/validation index sets with a lookback-sized guard gap.

    ``random-sections`` carves five equal random sections totaling 20% of the
    series; ``sequential-tail`` uses the last 20%. Every training index is
    more than ``lookback`` steps away from every validation index.
    """
    if mode not in SPLIT_MODES:
        raise DataError(f"unknown split mode {mode!r}")
    val_total = int(round(n_steps * (1.0 - TRAIN_SHARE)))
    if val_total < 5:
        raise DataError(f"series too short to split: {n_steps} steps")
    gap = max(0, int(lookback))
    val_mask = np.zeros(n_steps, dtype=bool)
    if mode == "sequential-tail":
        val_mask[n_steps - val_total :] = True
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        section = val_total // 5
        block = n_steps // 5
        if section < 1 or block <= section + gap:
            raise DataError(
                f"series too short for five sections of {section} with gap {gap}"
            )
        for b in range(5):
            lo = b * block
            start = lo + int(rng.integers(0, block - section + 1))
            val_mask[start : start + section] = True
    excluded = val_mask.copy()
    val_idx = np.nonzero(val_mask)[0]
    for v0, v1 in _runs(val_mask):
        excluded[max(0, v0 - gap) : min(n_steps, v1 + gap)] = True
    train_idx = np.nonzero(~excluded)[0]
    if train_idx.size == 0:
        raise DataError("gap exclusion removed every training index")
    return train_idx, val_idx


def _runs(mask: np.ndarray):
    """Contiguous True runs as (start, stop) pairs."""
    padded = np.diff(np.concatenate([[0], mask.astype(int), [0]]))
    starts = np.nonzero(padded == 1)[0]
    stops = np.nonzero(padded == -1)[0]
    return list(zip(starts, stops))


def label_runs(labels: np.ndarray):
    return _runs(np.asarray(labels, dtype=bool))


# -- synthetic generator --------------------------------------------------------


def generate_synthetic(
    family: str,
    n_steps: int,
    n_channels: int,
    noise: float = 0.05,
    seed: int = 0,
) -> TimeSeriesDataset:
    """Deterministic multichannel signal of the named family.

    Channels share the family's base pattern with per-channel phase offsets;
    Gaussian noise of the given scale is added on top.
    """
    if family not in FAMILIES:
        raise DataError(f"unknown family {family!r}")
    if n_steps < 100:
        raise DataError("need at least 100 timesteps")
    if n_channels < 2:
        raise DataError("need at least 2 channels")
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps, dtype=np.float64)
    values = np.empty((n_steps, n_channels))
    period = 100
    for d in range(n_channels):
        offset = round(d * period / n_channels)
        if family == "sine":
            base = np.sin(2.0 * np.pi * (t + offset) / period)
        elif family == "saw":
            base = 2.0 * np.mod(t + offset, period) / period - 1.0
        elif family == "increasing":
            power = 0.7 + 0.7 * d / max(1, n_channels - 1)
            base = -1.0 + 2.0 * (t / (n_steps - 1)) ** power
        elif family == "wave":
            carrier = np.sin(2.0 * np.pi * (t + offset) / 40.0)
            envelope = 0.55 + 0.45 * np.sin(2.0 * np.pi * (t + 37.0 * d) / 400.0)
            base = carrier * envelope
        elif family == "random-walk":
            steps = rng.normal(0.0, 1.0, n_steps)
            walk = np.cumsum(steps)
            base = walk / max(1.0, np.abs(walk).max())
        else:  # cbf: cylinder / bell / funnel events over a quiet baseline
            base = _cbf_channel(n_steps, rng)
        values[:, d] = base
    if noise > 0:
        values += rng.normal(0.0, noise, values.shape)
    return TimeSeriesDataset(values)


def _cbf_channel(n_steps: int, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros(n_steps)
    pos = int(rng.integers(10, 40))
    while pos < n_steps - 30:
        length = int(rng.integers(20, 60))
        stop = min(n_steps, pos + length)
        height = rng.uniform(0.4, 1.0)
        shape = rng.integers(0, 3)
        ramp = np.linspace(0.0, 1.0, stop - pos)
        if shape == 0:  # cylinder
            out[pos:stop] = height
        elif shape == 1:  # bell: rises then drops
            out[pos:stop] = height * ramp
        else:  # funnel: starts high, decays
            out[pos:stop] = height * ramp[::-1]
        pos = stop + int(rng.integers(10, 40))
    return out


# -- anomaly injection ------------------------------------------------------------


def inject_anomaly(ds: TimeSeriesDataset, spec: AnomalySpec, seed: int = 0) -> TimeSeriesDataset:
    """Modify values over the requested range, set labels there, and remember
    the injection. Overlapping injections on the same channel are rejected."""
    if spec.start < 0 or spec.stop > ds.n_steps:
        raise DataError(
            f"anomaly range [{spec.start}, {spec.stop}) outside series of length {ds.n_steps}"
        )
    channels = tuple(range(ds.n_channels)) if spec.channels is None else tuple(spec.channels)
    for ch in channels:
        if not 0 <= ch < ds.n_channels:
            raise DataError(f"anomaly channel {ch} out of range")
    for prior in ds.anomalies:
        prior_channels = tuple(range(ds.n_channels)) if prior.channels is None else tuple(prior.channels)
        if set(prior_channels) & set(channels) and spec.start < prior.stop and prior.start < spec.stop:
            raise DataError(
                f"anomaly [{spec.start}, {spec.stop}) overlaps existing [{prior.start}, {prior.stop})"
            )
    values = ds.values.copy()
    rng = np.random.default_rng(seed)
    sl = slice(spec.start, spec.stop)
    for ch in channels:
        sigma = float(values[:, ch].std()) or 1.0
        if spec.kind == "spike":
            values[sl, ch] += spec.magnitude * sigma
        elif spec.kind == "platform":
            values[sl, ch] = spec.magnitude
        elif spec.kind == "mean-shift":
            values[sl, ch] += spec.magnitude * sigma
        elif spec.kind == "amplitude":
            center = float(values[:, ch].mean())
            values[sl, ch] = center + spec.magnitude * (values[sl, ch] - center)
        elif spec.kind == "pattern":
            # frequency change: resample the segment at a warped rate
            src = np.arange(ds.n_steps, dtype=np.float64)
            warped = spec.start + (src[sl] - spec.start) * spec.magnitude
            warped = np.clip(warped, 0.0, ds.n_steps - 1.0)
            values[sl, ch] = np.interp(warped, src, ds.values[:, ch])
        elif spec.kind == "variance":
            values[sl, ch] += rng.normal(0.0, abs(spec.magnitude) * sigma, spec.length)
        elif spec.kind == "trend":
            ramp = np.linspace(0.0, 1.0, spec.length)
            values[sl, ch] += spec.magnitude * sigma * ramp
        elif spec.kind == "cutoff":
            values[sl, ch] = 0.0
    labels = np.zeros(ds.n_steps, dtype=bool) if ds.labels is None else ds.labels.copy()
    labels[sl] = True
    return replace(ds, values=values, labels=labels, anomalies=list(ds.anomalies) + [spec])

"""Synthetic data factories with known generative ground truth.

Continuous signals are trend + seasonal + gaussian noise with the
components returned separately.  Event cohorts draw per-subject code
streams at irregular integer timestamps from class-conditional code
profiles, optionally with a class-dependent arrival process so that the
gaps between events carry the label too; because the generator is known,
the exact Bayes classification rule (and hence the accuracy ceiling any
model can reach) is computable by enumeration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InputError
from .tensor import Rng, load_tensor, save_tensor

Array = np.ndarray


@dataclass
class SequenceBatch:
    """A batch of sequences: values [B, T, V] plus optional extras.

    ``timestamps`` [B, T] are strictly increasing integers per row (set for
    irregularly sampled data).  ``codes`` [B, T] carries integer event codes
    >= 0 when values are their one-hot encoding.  ``valid`` [B, T] flags
    real (non-padding) positions, as weights in [0, 1]; ``labels`` [B] are
    per-sequence targets.
    Anything else raises InputError, here and on every :meth:`take`.
    """

    values: Array
    timestamps: Array | None = None
    codes: Array | None = None
    valid: Array | None = None
    labels: Array | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise InputError(f"values must be [B, T, V], got {self.values.shape}")
        rows = self.values.shape[:2]
        if self.timestamps is not None:
            self.timestamps = _per_position("timestamps", self.timestamps, rows, integer=True)
            if self.timestamps.shape[1] > 1 and np.any(np.diff(self.timestamps, axis=1) <= 0):
                raise InputError("timestamps must be strictly increasing per sequence")
        if self.codes is not None:
            self.codes = _per_position("codes", self.codes, rows, integer=True)
            if self.codes.size and self.codes.min() < 0:
                raise InputError(f"codes must be >= 0, got {self.codes.min()}")
        if self.valid is not None:
            self.valid = _per_position("valid", self.valid, rows, integer=False)
            if self.valid.dtype.kind not in "biuf":
                raise InputError(f"valid must be numeric, got dtype {self.valid.dtype}")
            outside = ~((self.valid >= 0) & (self.valid <= 1))  # NaN too
            if np.any(outside):
                raise InputError(f"valid must lie in [0, 1], got {self.valid[outside][0]}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != rows[:1]:
                raise InputError(f"labels must be [B] = {rows[:1]}, got shape {self.labels.shape}")

    def __len__(self) -> int:
        return self.values.shape[0]

    def take(self, idx) -> "SequenceBatch":
        idx = np.asarray(idx)
        pick = lambda a: None if a is None else a[idx]
        return SequenceBatch(
            values=self.values[idx],
            timestamps=pick(self.timestamps),
            codes=pick(self.codes),
            valid=pick(self.valid),
            labels=pick(self.labels),
        )


def _per_position(name: str, a, rows: tuple[int, int], integer: bool) -> Array:
    """``a`` as an array of shape ``rows`` ([B, T]), int64 when ``integer``
    (which an integer dtype must then be); else InputError."""
    a = np.asarray(a)
    if integer and not np.issubdtype(a.dtype, np.integer):
        raise InputError(f"{name} must have an integer dtype, got {a.dtype}")
    if a.shape != rows:
        raise InputError(f"{name} must be [B, T] = {rows}, got shape {a.shape}")
    return a.astype(np.int64, copy=False) if integer else a


# ---------------------------------------------------------------------------
# continuous signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seasonal:
    amplitude: float
    period: float
    phase: float | None = None  # None: random per sequence


@dataclass
class SignalSpec:
    length: int = 1024
    variates: int = 1
    n_sequences: int = 8
    trend: str = "linear"  # linear | logistic | piecewise | none
    trend_scale: float = 1.0
    seasonal: tuple[Seasonal, ...] = (Seasonal(1.0, 64.0),)
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.trend not in ("linear", "logistic", "piecewise", "none"):
            raise ConfigError(f"unknown trend kind {self.trend!r}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.trend == "none" and not self.seasonal:
            raise ConfigError("at least one component (trend or seasonal) must be active")
        if self.length < 1 or self.variates < 1 or self.n_sequences < 1:
            raise ConfigError("length, variates and n_sequences must be positive")


def gen_signal(spec: SignalSpec) -> tuple[SequenceBatch, dict[str, Array]]:
    """Values = trend + sum(seasonal) + noise, with components returned."""
    rng = Rng(spec.seed).child("signal")
    B, T, V = spec.n_sequences, spec.length, spec.variates
    t = np.arange(T, dtype=np.float64)[None, :, None]  # [1, T, 1]

    trend = np.zeros((B, T, V))
    if spec.trend != "none":
        r = rng.child("trend")
        if spec.trend == "linear":
            slope = r.uniform((B, 1, V), -1.0, 1.0) * spec.trend_scale / T
            intercept = r.uniform((B, 1, V), -0.5, 0.5)
            trend = intercept + slope * t
        elif spec.trend == "logistic":
            mid = r.uniform((B, 1, V), 0.3 * T, 0.7 * T)
            rate = r.uniform((B, 1, V), 4.0, 12.0) / T
            sign = np.where(r.uniform((B, 1, V)) < 0.5, -1.0, 1.0)
            trend = sign * spec.trend_scale / (1.0 + np.exp(-rate * (t - mid)))
        else:  # piecewise linear with one breakpoint
            brk = r.uniform((B, 1, V), 0.25 * T, 0.75 * T)
            s1 = r.uniform((B, 1, V), -1.0, 1.0) * spec.trend_scale / T
            s2 = r.uniform((B, 1, V), -1.0, 1.0) * spec.trend_scale / T
            trend = np.where(t < brk, s1 * t, s1 * brk + s2 * (t - brk))

    seasonal = np.zeros((B, T, V))
    for ci, comp in enumerate(spec.seasonal):
        r = rng.child(f"seasonal{ci}")
        phase = np.full((B, 1, V), comp.phase) if comp.phase is not None else r.uniform((B, 1, V), 0.0, 2 * np.pi)
        seasonal += comp.amplitude * np.sin(2 * np.pi * t / comp.period + phase)

    noise = rng.child("noise").normal((B, T, V), scale=spec.noise_sigma) if spec.noise_sigma > 0 else np.zeros((B, T, V))
    values = trend + seasonal + noise
    return SequenceBatch(values=values), {"trend": trend, "seasonal": seasonal, "noise": noise}


# ---------------------------------------------------------------------------
# irregular event cohorts
# ---------------------------------------------------------------------------


@dataclass
class EventCohortSpec:
    vocab: int = 20
    classes: int = 3
    subjects: int = 300
    min_events: int = 40
    max_events: int = 60
    gap_low: int = 1
    gap_high: int = 8
    separation: float = 0.9  # 0: identical uniform profiles, 1: disjoint code blocks
    class_timing: bool = False  # odd classes arrive in tight bursts, even ones uniformly
    seed: int = 0

    def __post_init__(self):
        if self.min_events < 10:
            raise ConfigError("every subject needs at least 10 events")
        if self.max_events < self.min_events:
            raise ConfigError("max_events < min_events")
        if not (0.0 <= self.separation <= 1.0):
            raise ConfigError("separation must be in [0, 1]")
        if self.gap_low < 1 or self.gap_high < self.gap_low:
            raise ConfigError("gaps must be positive with gap_high >= gap_low")
        if self.classes < 1 or self.vocab < self.classes:
            raise ConfigError("need vocab >= classes >= 1")


@dataclass
class CohortInfo:
    """Everything the Bayes oracle needs about the generator."""

    profiles: Array  # [classes, vocab]
    class_prior: Array  # [classes]
    class_timing: bool = False  # arrival process depends on class parity


def class_profiles(spec: EventCohortSpec) -> Array:
    """Per-class code distributions: uniform blended with disjoint blocks."""
    uniform = np.full((spec.classes, spec.vocab), 1.0 / spec.vocab)
    blocks = np.zeros((spec.classes, spec.vocab))
    edges = np.linspace(0, spec.vocab, spec.classes + 1).astype(int)
    for c in range(spec.classes):
        lo, hi = edges[c], edges[c + 1]
        blocks[c, lo:hi] = 1.0 / (hi - lo)
    return (1.0 - spec.separation) * uniform + spec.separation * blocks


UNIFORM_GAPS = (4, 8)  # class_timing: even classes draw gaps uniformly here
BURST_INNER_GAP = 1
BURST_BETWEEN_GAPS = (10, 16)  # and odd classes arrive in bursts of 2-3


def _burst_gaps(r: Rng, m: int) -> Array:
    gaps = np.empty(m, dtype=np.int64)
    i = 0
    while i < m:
        size = int(r.integers(2, 4))
        for j in range(size):
            if i >= m:
                break
            gaps[i] = int(r.integers(BURST_BETWEEN_GAPS[0], BURST_BETWEEN_GAPS[1] + 1)) if j == 0 else BURST_INNER_GAP
            i += 1
    return gaps


def gen_cohort(spec: EventCohortSpec) -> tuple[SequenceBatch, CohortInfo]:
    """Per-subject (code, timestamp) streams padded to a common length.

    Every event's code is drawn from the subject's class profile.  Gaps
    are uniform in [gap_low, gap_high], or (``class_timing``) follow a
    class-dependent arrival process, where odd classes arrive in tight
    bursts and even ones uniformly, so the label is carried by the gap
    structure rather than by aggregate code counts alone.
    """
    rng = Rng(spec.seed).child("cohort")
    profiles = class_profiles(spec)
    n, vmax = spec.subjects, spec.max_events

    labels = rng.child("labels").integers(0, spec.classes, (n,))
    counts = rng.child("counts").integers(spec.min_events, spec.max_events + 1, (n,))
    codes = np.zeros((n, vmax), dtype=np.int64)
    timestamps = np.zeros((n, vmax), dtype=np.int64)
    valid = np.zeros((n, vmax))

    for i in range(n):
        r = rng.child(f"subject{i}")
        c = int(labels[i])
        m = int(counts[i])
        if spec.class_timing:
            if c % 2 == 1:
                gaps = _burst_gaps(r.child("gaps"), m)
            else:
                gaps = r.child("gaps").integers(UNIFORM_GAPS[0], UNIFORM_GAPS[1] + 1, (m,))
        else:
            gaps = r.child("gaps").integers(spec.gap_low, spec.gap_high + 1, (m,))
        ts = np.cumsum(gaps)
        # the child tags name the streams, so renaming one redraws every cohort
        codes[i, :m] = r.child("late").choice_p(spec.vocab, profiles[c], (m,))
        timestamps[i, :m] = ts
        valid[i, :m] = 1.0
        # pad timestamps keep strictly increasing
        timestamps[i, m:] = ts[-1] + np.arange(1, vmax - m + 1)

    values = np.eye(spec.vocab)[codes]
    batch = SequenceBatch(values=values, timestamps=timestamps, codes=codes, valid=valid, labels=labels)
    prior = np.bincount(labels, minlength=spec.classes) / n
    return batch, CohortInfo(profiles=profiles, class_prior=prior, class_timing=spec.class_timing)


def bayes_predict(batch: SequenceBatch, info: CohortInfo) -> Array:
    """Exact Bayes rule under the known generator, by enumeration.

    Each class scores its prior plus the log-likelihood of the stream's
    codes under its profile.  Under ``class_timing`` only the classes whose
    arrival process could have produced the stream's gaps compete: bursty
    gaps for odd classes, uniform ones for even classes.
    """
    n, vmax = batch.codes.shape
    classes = info.profiles.shape[0]
    logp = np.log(np.maximum(info.profiles, 1e-300))
    preds = np.zeros(n, dtype=np.int64)
    for i in range(n):
        m = int(batch.valid[i].sum()) if batch.valid is not None else vmax
        seq = batch.codes[i, :m]
        post = np.full(classes, -np.inf)
        if info.class_timing:
            gaps = np.diff(batch.timestamps[i, :m], prepend=0)
            bursty = bool(np.any(gaps == BURST_INNER_GAP) or np.any(gaps >= BURST_BETWEEN_GAPS[0]))
        for c in range(classes):
            if info.class_timing and (c % 2 == 1) != bursty:
                continue
            post[c] = np.log(max(info.class_prior[c], 1e-300)) + logp[c, seq].sum()
        preds[i] = int(np.argmax(post))
    return preds


def bayes_accuracy(batch: SequenceBatch, info: CohortInfo) -> float:
    """Empirical accuracy ceiling of the exact Bayes rule on this cohort."""
    return float(np.mean(bayes_predict(batch, info) == batch.labels))


def majority_accuracy(labels: Array) -> float:
    counts = np.bincount(np.asarray(labels, dtype=np.int64))
    return float(counts.max() / counts.sum())


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def split_indices(n: int, fractions, seed: int) -> tuple[Array, ...]:
    """Deterministic shuffled split; sizes by largest remainder."""
    fracs = np.asarray(fractions, dtype=np.float64)
    if abs(fracs.sum() - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {fracs.tolist()}")
    raw = fracs * n
    sizes = np.floor(raw).astype(int)
    rem = n - sizes.sum()
    order = np.argsort(-(raw - sizes), kind="stable")
    for j in range(rem):
        sizes[order[j]] += 1
    if np.any(sizes == 0):
        raise InputError(f"split produced an empty part: sizes {sizes.tolist()} of n={n}")
    perm = Rng(seed).child("split").permutation(n)
    out, at = [], 0
    for s in sizes:
        out.append(np.sort(perm[at : at + s]))
        at += s
    return tuple(out)


def split(batch: SequenceBatch, fractions=(0.8, 0.1, 0.1), seed: int = 0) -> tuple[SequenceBatch, ...]:
    parts = split_indices(len(batch), fractions, seed)
    return tuple(batch.take(idx) for idx in parts)


def finetune_subset(batch: SequenceBatch, fraction: float = 0.2, seed: int = 0) -> SequenceBatch:
    """Deterministic subset of the training split used for fine-tuning."""
    n = len(batch)
    m = max(1, int(round(fraction * n)))
    perm = Rng(seed).child("finetune-subset").permutation(n)
    return batch.take(np.sort(perm[:m]))


# ---------------------------------------------------------------------------
# on-disk formats
# ---------------------------------------------------------------------------


def write_signal_csv(path, batch: SequenceBatch) -> None:
    """Single-sequence CSV with header t,v1..vV."""
    if len(batch) != 1:
        raise DataError(f"signal CSV holds one sequence; got {len(batch)} (use the binary container)")
    vals = batch.values[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"v{i}" for i in range(1, vals.shape[1] + 1)])
        for t in range(vals.shape[0]):
            w.writerow([t] + [repr(float(x)) for x in vals[t]])


def read_signal_csv(path) -> SequenceBatch:
    """Read :func:`write_signal_csv` output.  A missing header, a header with
    no rows, a row whose cell count is not the header's (a blank row too)
    and a cell that is not a number raise DataError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) < 2 or rows[0][0] != "t":
        raise DataError(f"{path}: expected header t,v1..vV")
    if len(rows) == 1:
        raise DataError(f"{path}: a header but no rows")
    width = len(rows[0])
    data = np.empty((len(rows) - 1, width))
    for i, row in enumerate(rows[1:]):
        if len(row) != width:
            raise DataError(f"{path}: line {i + 2} has {len(row)} cells, the header {width}")
        try:
            data[i] = [float(x) for x in row]
        except ValueError as e:
            raise DataError(f"{path}: line {i + 2}: {e}")
    return SequenceBatch(values=np.ascontiguousarray(data[None, :, 1:]))


def write_signal_ndar(path, batch: SequenceBatch) -> None:
    save_tensor(path, batch.values)


def read_signal_ndar(path) -> SequenceBatch:
    return SequenceBatch(values=load_tensor(path))


def write_cohort_jsonl(path, batch: SequenceBatch) -> None:
    """One subject per line: {"id":…, "events":[[code,timestamp],…], "label":…}."""
    with open(path, "w") as fh:
        for i in range(len(batch)):
            m = int(batch.valid[i].sum()) if batch.valid is not None else batch.codes.shape[1]
            events = [[int(c), int(t)] for c, t in zip(batch.codes[i, :m], batch.timestamps[i, :m])]
            fh.write(json.dumps({"id": i, "events": events, "label": int(batch.labels[i])}) + "\n")


_INT64 = np.iinfo(np.int64)


def _json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer within int64, else ValueError (a float,
    bool or string is not one)."""
    if type(x) is not int or not _INT64.min <= x <= _INT64.max:
        raise ValueError(f"{what} {x!r} is not a 64-bit integer")
    return x


def read_cohort_jsonl(path, vocab: int) -> SequenceBatch:
    """Read :func:`write_cohort_jsonl` output.  A line that is not a JSON
    subject with ``events`` pairs and a ``label``, a code, timestamp or label
    that is not a 64-bit JSON integer, a timestamp below 1 (the model's
    start token sits at 0), timestamps that are not strictly increasing, a
    negative label, a subject without events, a last timestamp whose padding
    steps would pass int64 and a code outside [0, vocab) raise DataError;
    errors of one line name the file and the line."""
    subjects = []
    lineno = 0
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    s = json.loads(line)
                    ev, label = s["events"], _json_int(s["label"], "label")
                    if label < 0:
                        raise ValueError(f"label {label} is negative")
                    codes = [_json_int(c, "code") for c, _ in ev]
                    times = [_json_int(t, "timestamp") for _, t in ev]
                    if times and times[0] < 1:
                        raise ValueError(f"timestamp {times[0]} is below 1 (the start token sits at 0)")
                    if any(b <= a for a, b in zip(times, times[1:])):
                        raise ValueError("timestamps are not strictly increasing")
                    subjects.append((codes, times, label))
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: malformed cohort line {lineno}: {type(e).__name__}: {e}")
    if not subjects:
        raise DataError(f"{path}: empty cohort file")
    if not all(c for c, _, _ in subjects):
        raise DataError(f"{path}: a subject has an empty events list")
    vmax = max(len(c) for c, _, _ in subjects)
    n = len(subjects)
    codes = np.zeros((n, vmax), dtype=np.int64)
    timestamps = np.zeros((n, vmax), dtype=np.int64)
    valid = np.zeros((n, vmax))
    labels = np.zeros(n, dtype=np.int64)
    for i, (c, t, label) in enumerate(subjects):
        m = len(c)
        if t[-1] > _INT64.max - (vmax - m):
            raise DataError(f"{path}: subject {i}'s last timestamp {t[-1]} leaves no room for {vmax - m} padding steps")
        codes[i, :m] = c
        timestamps[i, :m] = t
        valid[i, :m] = 1.0
        timestamps[i, m:] = t[-1] + np.arange(1, vmax - m + 1)
        labels[i] = label
    if codes.min() < 0 or codes.max() >= vocab:
        raise DataError(f"{path}: codes span [{codes.min()}, {codes.max()}], outside vocab [0, {vocab})")
    values = np.eye(vocab)[codes]
    return SequenceBatch(values=values, timestamps=timestamps, codes=codes, valid=valid, labels=labels)

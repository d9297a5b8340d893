import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt import datagen as dg
from tsgpt.errors import ConfigError, DataError, InputError
from tsgpt.experiments import irregular_cohort_spec


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------


def test_noiseless_single_sinusoid_fft_peak():
    spec = dg.SignalSpec(
        length=256, variates=1, n_sequences=1, trend="none",
        seasonal=(dg.Seasonal(amplitude=1.0, period=32.0, phase=0.3),),
        noise_sigma=0.0, seed=1,
    )
    batch, comps = dg.gen_signal(spec)
    x = batch.values[0, :, 0]
    t = np.arange(256)
    want = np.sin(2 * np.pi * t / 32.0 + 0.3)
    np.testing.assert_allclose(x, want, atol=1e-12)
    spectrum = np.abs(np.fft.rfft(x))
    assert spectrum.argmax() == 256 // 32
    np.testing.assert_array_equal(comps["noise"], np.zeros_like(x)[None, :, None])


def test_noiseless_linear_trend_is_affine():
    spec = dg.SignalSpec(length=64, variates=2, n_sequences=3, trend="linear",
                         seasonal=(), noise_sigma=0.0, seed=2)
    batch, comps = dg.gen_signal(spec)
    diffs = np.diff(batch.values, axis=1)
    # affine: constant first differences
    assert np.max(np.abs(diffs - diffs[:, :1, :])) < 1e-12
    np.testing.assert_array_equal(batch.values, comps["trend"])


def test_component_decomposition_sums_exactly():
    spec = dg.SignalSpec(length=128, variates=2, n_sequences=4, trend="logistic",
                         seasonal=(dg.Seasonal(0.7, 24.0), dg.Seasonal(0.3, 7.0)),
                         noise_sigma=0.1, seed=3)
    batch, comps = dg.gen_signal(spec)
    resum = comps["trend"] + comps["seasonal"] + comps["noise"]
    assert resum.tobytes() == batch.values.tobytes()


def test_noise_moments_within_three_sigma():
    sigma = 0.3
    spec = dg.SignalSpec(length=4096, variates=1, n_sequences=4, trend="none",
                         seasonal=(dg.Seasonal(1.0, 50.0),), noise_sigma=sigma, seed=4)
    _, comps = dg.gen_signal(spec)
    noise = comps["noise"].ravel()
    n = noise.size
    assert abs(noise.mean()) < 3 * sigma / np.sqrt(n)
    var_se = sigma**2 * np.sqrt(2.0 / (n - 1))
    assert abs(noise.var() - sigma**2) < 3 * var_se


def test_generator_determinism():
    spec = dg.SignalSpec(seed=11)
    a, _ = dg.gen_signal(spec)
    b, _ = dg.gen_signal(spec)
    assert a.values.tobytes() == b.values.tobytes()


def test_signal_spec_validation():
    with pytest.raises(ConfigError):
        dg.SignalSpec(trend="none", seasonal=())
    with pytest.raises(ConfigError):
        dg.SignalSpec(noise_sigma=-0.1)
    with pytest.raises(ConfigError):
        dg.SignalSpec(trend="cubic")


def test_piecewise_trend_runs():
    spec = dg.SignalSpec(trend="piecewise", length=64, seasonal=(), noise_sigma=0.0, seed=5)
    batch, _ = dg.gen_signal(spec)
    assert np.isfinite(batch.values).all()


# ---------------------------------------------------------------------------
# cohorts
# ---------------------------------------------------------------------------


def test_cohort_shapes_and_invariants():
    spec = dg.EventCohortSpec(vocab=10, classes=2, subjects=20, min_events=10, max_events=16, seed=6)
    batch, info = dg.gen_cohort(spec)
    assert batch.values.shape == (20, 16, 10)
    assert np.all(batch.valid.sum(axis=1) >= 10)
    assert np.all(np.diff(batch.timestamps, axis=1) >= 1)
    assert np.all(batch.timestamps[:, 0] >= 1)
    np.testing.assert_allclose(info.profiles.sum(axis=1), np.ones(2))
    onehot_sum = batch.values.sum(axis=-1)
    np.testing.assert_array_equal(onehot_sum, np.ones((20, 16)))


def test_bayes_uninformative_limit_matches_majority():
    # identical uniform profiles: labels carry no information, the Bayes
    # rule ties to a fixed class -> accuracy equals that class's share
    spec = dg.EventCohortSpec(vocab=8, classes=4, subjects=400, min_events=10,
                              max_events=12, separation=0.0, seed=7)
    batch, info = dg.gen_cohort(spec)
    acc = dg.bayes_accuracy(batch, info)
    share = np.bincount(batch.labels, minlength=4) / 400
    assert abs(acc - share[dg.bayes_predict(batch, info)[0]]) < 1e-9
    assert acc < 0.4  # nowhere near separable


def test_bayes_separable_limit_is_perfect():
    spec = dg.EventCohortSpec(vocab=12, classes=3, subjects=100, min_events=10,
                              max_events=14, separation=1.0, seed=8)
    batch, info = dg.gen_cohort(spec)
    assert dg.bayes_accuracy(batch, info) == 1.0


def test_criterion_7_and_benchmark_cohorts_are_pinned():
    """The cohorts that criterion 7 (``irregular_cohort_spec()``) and the
    benchmark's ``cohort`` workload (run with ``--seed 301``) draw are byte
    for byte the ones their calibration and baselines were measured on.  Only
    a change to the generator's draws (the per-subject streams, their tags
    or the order of draws), or a numpy whose ``Generator`` streams differ,
    may change these digests; either one invalidates criterion 7's
    calibration and the benchmark's baselines."""
    pinned = {
        11: "3d16d6fda9003c55e09a19c3aabcc736194267614b361b9b28ca01924e3d4753",  # criterion 7's own seed
        301: "37d0929f44c985a14a722ddd2a51da281ddfa275a2027ac3d15291b41106cfba",
    }
    assert irregular_cohort_spec().seed == 11
    for seed, digest in pinned.items():
        batch, _ = dg.gen_cohort(replace(irregular_cohort_spec(), seed=seed))
        h = hashlib.sha256()
        for name in ("values", "timestamps", "codes", "valid", "labels"):
            h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
        assert h.hexdigest() == digest, seed


def _small_batch(**fields):
    """Two sequences of three one-variate values, plus ``fields``."""
    return dg.SequenceBatch(values=np.zeros((2, 3, 1)), **fields)


def test_batch_rejects_float_timestamps():
    """Float timestamps are refused, not truncated to integers."""
    with pytest.raises(InputError, match="integer dtype"):
        _small_batch(timestamps=[[1.9, 2.1, 3.7], [1.0, 2.0, 3.0]])


def test_batch_rejects_valid_of_another_shape():
    with pytest.raises(InputError, match="valid"):
        _small_batch(valid=np.ones((1, 3)))


@pytest.mark.parametrize("bad", [-1.0, 1.5, np.nan])
def test_batch_rejects_valid_outside_zero_one(bad):
    """A valid weight outside [0, 1] (or NaN) is refused, also when a batch
    whose ``valid`` was changed in place is taken from: a -1 would make the
    masked losses negative without an error."""
    valid = np.ones((2, 3))
    valid[1, 2] = bad
    with pytest.raises(InputError, match=r"valid must lie in \[0, 1\]"):
        _small_batch(valid=valid)
    batch = _small_batch(valid=np.ones((2, 3)))
    batch.valid[1, 2] = bad
    with pytest.raises(InputError, match=r"valid must lie in \[0, 1\]"):
        batch.take([1])
    _small_batch(valid=np.array([[1.0, 0.5, 0.0], [1.0, 1.0, 0.0]]))  # fractions and 0 pass
    _small_batch(valid=np.array([[True, True, False], [True, False, False]]))


def test_batch_rejects_codes_of_another_shape():
    with pytest.raises(InputError, match="codes"):
        _small_batch(codes=np.zeros((2,), dtype=np.int64))


def test_batch_rejects_float_codes():
    with pytest.raises(InputError, match="integer dtype"):
        _small_batch(codes=np.zeros((2, 3)))


def test_batch_rejects_negative_codes():
    with pytest.raises(InputError, match=">= 0"):
        _small_batch(codes=np.array([[0, 1, 2], [0, -1, 2]]))


def test_batch_rejects_labels_that_are_not_one_per_sequence():
    """[B, 1] labels would broadcast against a [B, 1] head output."""
    with pytest.raises(InputError, match="labels"):
        _small_batch(labels=np.zeros((2, 1)))


def test_cohort_spec_validation():
    with pytest.raises(ConfigError):
        dg.EventCohortSpec(min_events=5)
    with pytest.raises(ConfigError):
        dg.EventCohortSpec(gap_low=0)
    with pytest.raises(ConfigError):
        dg.EventCohortSpec(separation=1.5)
    with pytest.raises(ConfigError):
        dg.EventCohortSpec(vocab=2, classes=3)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_exact_arithmetic():
    tr, va, te = dg.split_indices(10, (0.8, 0.1, 0.1), seed=0)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_determinism_and_set_algebra():
    batch, _ = dg.gen_signal(dg.SignalSpec(n_sequences=23, length=16, seed=10))
    parts1 = dg.split(batch, (0.8, 0.1, 0.1), seed=3)
    parts2 = dg.split(batch, (0.8, 0.1, 0.1), seed=3)
    for a, b in zip(parts1, parts2):
        assert a.values.tobytes() == b.values.tobytes()
    idx = dg.split_indices(23, (0.8, 0.1, 0.1), seed=3)
    all_idx = np.concatenate(idx)
    assert len(all_idx) == 23
    assert len(set(all_idx.tolist())) == 23  # disjoint and covering


def test_split_rejects_bad_fractions_and_empty_parts():
    with pytest.raises(InputError):
        dg.split_indices(10, (0.5, 0.4), seed=0)
    with pytest.raises(InputError):
        dg.split_indices(3, (0.9, 0.05, 0.05), seed=0)


@given(st.integers(min_value=10, max_value=500), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_split_sizes_property(n, seed):
    tr, va, te = dg.split_indices(n, (0.8, 0.1, 0.1), seed=seed)
    assert len(tr) + len(va) + len(te) == n
    assert abs(len(tr) - 0.8 * n) <= 1


def test_finetune_subset_fraction():
    batch, _ = dg.gen_signal(dg.SignalSpec(n_sequences=50, length=16, seed=12))
    sub = dg.finetune_subset(batch, 0.2, seed=1)
    assert len(sub) == 10
    again = dg.finetune_subset(batch, 0.2, seed=1)
    assert sub.values.tobytes() == again.values.tobytes()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_signal_csv_roundtrip(tmp_path):
    batch, _ = dg.gen_signal(dg.SignalSpec(n_sequences=1, length=32, variates=3, seed=13))
    p = tmp_path / "sig.csv"
    dg.write_signal_csv(p, batch)
    header = p.read_text().splitlines()[0]
    assert header == "t,v1,v2,v3"
    back = dg.read_signal_csv(p)
    assert back.values.tobytes() == batch.values.tobytes()


def test_signal_csv_rejects_batches(tmp_path):
    batch, _ = dg.gen_signal(dg.SignalSpec(n_sequences=2, length=16, seed=14))
    with pytest.raises(DataError):
        dg.write_signal_csv(tmp_path / "x.csv", batch)


def test_signal_ndar_roundtrip(tmp_path):
    batch, _ = dg.gen_signal(dg.SignalSpec(n_sequences=5, length=16, variates=2, seed=15))
    p = tmp_path / "sig.ndar"
    dg.write_signal_ndar(p, batch)
    back = dg.read_signal_ndar(p)
    assert back.values.tobytes() == batch.values.tobytes()


def test_cohort_jsonl_roundtrip(tmp_path):
    spec = dg.EventCohortSpec(vocab=9, classes=2, subjects=12, min_events=10, max_events=15, seed=16)
    batch, _ = dg.gen_cohort(spec)
    p = tmp_path / "cohort.jsonl"
    dg.write_cohort_jsonl(p, batch)
    back = dg.read_cohort_jsonl(p, vocab=9)
    np.testing.assert_array_equal(back.labels, batch.labels)
    for i in range(len(batch)):
        m = int(batch.valid[i].sum())
        assert int(back.valid[i].sum()) == m
        np.testing.assert_array_equal(back.codes[i, :m], batch.codes[i, :m])
        np.testing.assert_array_equal(back.timestamps[i, :m], batch.timestamps[i, :m])
    import json

    first = json.loads(p.read_text().splitlines()[0])
    assert set(first) == {"id", "events", "label"}

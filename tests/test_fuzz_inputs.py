"""Mutation fuzzing of every file the eval commands read: NDAR1 signals,
signal CSVs, cohort JSON lines, checkpoints and command configs.

Whatever the bytes, ``cli.main`` must return, never raise: 0, or 2 (usage or
config) or 3 (data, checkpoint or path) with one ``error: ...`` line on
stderr.  Data files and checkpoints are truncated, bit-flipped and given
duplicated byte runs.  Configs are truncated, bit-flipped or have one field
replaced by a value of another JSON type, but never grow: a longer number in
a config can legally ask for a huge allocation.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsgpt.cli import main
from tsgpt.datagen import EventCohortSpec, SequenceBatch, gen_cohort, write_cohort_jsonl, write_signal_csv
from tsgpt.model import Model, ModelConfig
from tsgpt.tensor import Rng, save_tensor

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SIGNAL_MODEL = {"layers": 1, "heads": 2, "d_q": 4, "d_v": 4, "n_inputs": 1, "conv_kernel": 3, "no_subsampler": True}
COHORT_MODEL = dict(SIGNAL_MODEL, n_inputs=4, discrete=True, head_kind="classification")


def _trained(cfg: dict, batch: SequenceBatch) -> Model:
    """A model with batch-norm statistics, as the eval commands need."""
    model = Model(ModelConfig(**cfg))
    model.encode(batch, train=True)
    return model


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs for forecast and classify, written once: name -> path."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in (
        "signal.ndar", "signal.csv", "cohort.jsonl", "forecast.ckpt", "classify.ckpt", "forecast.json", "classify.json")}
    save_tensor(paths["signal.ndar"], Rng(1).normal((2, 24, 1)))
    write_signal_csv(paths["signal.csv"], SequenceBatch(values=Rng(2).normal((1, 24, 1))))
    cohort, _ = gen_cohort(EventCohortSpec(vocab=4, classes=2, subjects=6, min_events=10, max_events=12, seed=3))
    write_cohort_jsonl(paths["cohort.jsonl"], cohort)
    _trained(SIGNAL_MODEL, SequenceBatch(values=Rng(4).normal((2, 16, 1)))).save(paths["forecast.ckpt"])
    _trained(COHORT_MODEL, cohort).save(paths["classify.ckpt"])
    paths["forecast.json"].write_text(json.dumps({
        "checkpoint": str(paths["forecast.ckpt"]), "data": str(paths["signal.ndar"]),
        "horizon": 2, "prompt_tokens": 4, "train_len": 8.0}))
    paths["classify.json"].write_text(json.dumps({
        "checkpoint": str(paths["classify.ckpt"]), "data": str(paths["cohort.jsonl"])}))
    return paths


def _args(paths, command: str, **given) -> list[str]:
    """Arguments that run ``command`` on the valid inputs, with ``given``
    paths in their place."""
    signal = command == "forecast"
    p = {"config": paths[f"{command}.json"], "checkpoint": paths[f"{command}.ckpt"],
         "data": paths["signal.ndar" if signal else "cohort.jsonl"], **given}
    args = [command, "--config", str(p["config"]), "--out", str(paths["forecast.json"].parent / "out")]
    if "data" in given or "checkpoint" in given:
        args += ["--checkpoint", str(p["checkpoint"]), "--data", str(p["data"])]
    return args


def _check_outcome(args: list[str], capsys) -> None:
    capsys.readouterr()
    rc = main(args)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3), (rc, err)
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def byte_mutations(draw, original: bytes, grow: bool = True) -> bytes:
    """``original`` after one to three truncations, bit flips or (when
    ``grow``) duplications of a run of up to 16 bytes in place."""
    data = bytearray(original)
    kinds = ("truncate", "flip", "duplicate") if grow else ("truncate", "flip")
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        kind, at = draw(st.sampled_from(kinds)), draw(st.integers(0, len(data) - 1))
        if kind == "truncate":
            del data[at:]
        elif kind == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        else:
            data[at:at] = data[at : at + draw(st.integers(1, 16))]
    return bytes(data)


@pytest.mark.parametrize("name, command, role", [
    ("signal.ndar", "forecast", "data"),
    ("signal.csv", "forecast", "data"),
    ("cohort.jsonl", "classify", "data"),
    ("forecast.ckpt", "forecast", "checkpoint"),
    ("classify.ckpt", "classify", "checkpoint"),
])
def test_mutated_data_or_checkpoint_exits_cleanly(inputs, capsys, name, command, role):
    original = inputs[name].read_bytes()
    target = inputs[name].with_name("mutated" + inputs[name].suffix)
    args = _args(inputs, command, **{role: target})
    target.write_bytes(original)
    rc = main(args)
    assert rc == 0, capsys.readouterr().err  # the unmutated file runs

    @FUZZ
    @given(byte_mutations(original))
    def run(data):
        target.write_bytes(data)
        _check_outcome(args, capsys)

    run()


OTHER_JSON_TYPES = (None, True, 0, 3, 2.5, "x", [], [1], {}, {"a": 1})


@st.composite
def config_mutations(draw, original: bytes) -> bytes:
    """``original`` truncated or bit-flipped, or one of its fields replaced
    by a value of another JSON type."""
    if draw(st.booleans()):
        return draw(byte_mutations(original, grow=False))
    cfg = json.loads(original)
    key = draw(st.sampled_from(sorted(cfg)))
    value = draw(st.sampled_from([v for v in OTHER_JSON_TYPES if type(v) is not type(cfg[key])]))
    return json.dumps(dict(cfg, **{key: value})).encode()


@pytest.mark.parametrize("command", ["forecast", "classify"])
def test_mutated_config_exits_cleanly(inputs, capsys, command):
    path = inputs[f"{command}.json"]
    original = path.read_bytes()
    target = path.with_name("mutated.json")
    args = _args(inputs, command, config=target)
    target.write_bytes(original)
    assert main(args) == 0, capsys.readouterr().err

    @FUZZ
    @given(config_mutations(original))
    def run(data):
        target.write_bytes(data)
        _check_outcome(args, capsys)

    run()

"""Mutated input files through every CLI subcommand.

Each example takes one valid file of a small fixture, truncates it, flips
one of its bytes or drops one of its lines, and runs a subcommand that
reads it. The command must exit 0 or 2; any other exception escapes
``main`` and fails the example with its traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoseg.cli import main
from photoseg.datamodel import save_concept_detections, save_feature_stream, save_segmentation
from photoseg.semantic import ExactMatchProvider, build_concept_graph, cluster_concepts
from photoseg.synth import block_spec, generate

SPEC = block_spec(num_segments=3, segment_length=8, noise_sigma=0.05, seed=0)
TAGS = sorted({tag for segment in SPEC.segments for tag, _ in segment.concepts})
FILES = {
    "features.csv": None,
    "features.jsonl": None,
    "detections.jsonl": None,
    "truth.json": None,
    "spec.json": None,
    "vocab.json": None,
    "config.json": json.dumps({"cutoff": 0.4, "delta": 0.1}),
    "grid.json": json.dumps({"cutoff": [0.4, 0.9], "unary_mix": [0.5]}),
    "sims.json": json.dumps({"meanings": {t: [t] for t in TAGS},
                             "sims": [[a, b, 0.5] for a, b in zip(TAGS, TAGS[1:])]}),
}

# subcommand -> its arguments, where "@name" is the path of file "name"
COMMANDS = {
    "segment": ["segment", "@features.csv", "--detections", "@detections.jsonl",
                "--config", "@config.json", "--out", "@out.json"],
    "segment-jsonl": ["segment", "@features.jsonl", "--similarity", "@sims.json",
                      "--detections", "@detections.jsonl", "--out", "@out.json"],
    "evaluate": ["evaluate", "@truth.json", "@truth.json"],
    "gridsearch": ["gridsearch", "@features.csv", "--detections", "@detections.jsonl",
                   "--gt", "@truth.json", "--grid", "@grid.json"],
    "vocab": ["vocab", "@detections.jsonl", "--similarity", "@sims.json", "--out", "@out.json"],
    "featurize": ["featurize", "@detections.jsonl", "--vocab", "@vocab.json",
                  "--out", "@out.csv"],
    "synth": ["synth", "@spec.json", "--outdir", "@out"],
}


@pytest.fixture(scope="module")
def valid_files() -> dict:
    stream, det, gt = generate(SPEC)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_feature_stream(stream, tmp / "features.csv")
        save_feature_stream(stream, tmp / "features.jsonl", format="jsonl")
        save_concept_detections(det, tmp / "detections.jsonl")
        save_segmentation(gt, tmp / "truth.json")
        SPEC.save(tmp / "spec.json")
        cluster_concepts(build_concept_graph(det, ExactMatchProvider()), 4).save(
            tmp / "vocab.json")
        return {name: text.encode() if text else (tmp / name).read_bytes()
                for name, text in FILES.items()}


@st.composite
def mutations(draw, data: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "drop-line"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    lines = data.splitlines(keepends=True)
    del lines[draw(st.integers(0, len(lines) - 1))]
    return b"".join(lines)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_0_or_2(valid_files, command, data):
    argv = COMMANDS[command]
    target = data.draw(st.sampled_from([n for n in FILES if "@" + n in argv]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in valid_files.items():
            if name == target:
                content = data.draw(mutations(content))
            (Path(tmp) / name).write_bytes(content)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([str(Path(tmp) / arg[1:]) if arg.startswith("@") else arg
                         for arg in argv])
    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()


# JSON texts that replace one scalar of a valid file: numbers past a float
# and past int64, non-finite numbers and -0.0, then values of every other
# JSON type
HOSTILE_NUMBERS = ["1" + "0" * 400, "-1" + "0" * 400, "1e999", "NaN", "-0.0"]
HOSTILE = HOSTILE_NUMBERS + ["true", '"0.5"', "null", "[]", "{}"]
_SLOT = "@@hostile@@"


def _scalar_paths(value, path=()) -> list:
    """The key path of every scalar inside a parsed JSON value."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in _scalar_paths(item, path + (key,))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in _scalar_paths(item, path + (i,))]
    return [path]


def _replaced(data: bytes, jsonl: bool, draw) -> tuple[bytes, object, str]:
    """``data`` with one drawn scalar replaced by a drawn hostile text,
    the scalar it replaced and that text. A JSON-lines file is read as
    the list of its lines' objects."""
    lines = data.decode().splitlines()
    doc = [json.loads(line) for line in lines] if jsonl else json.loads(data)
    path = draw(st.sampled_from(_scalar_paths(doc)))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    original, holder[path[-1]] = holder[path[-1]], _SLOT
    hostile = draw(st.sampled_from(HOSTILE))
    text = "\n".join(json.dumps(obj) for obj in doc) + "\n" if jsonl else json.dumps(doc)
    return text.replace(json.dumps(_SLOT), hostile).encode(), original, hostile


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hostile_value_exits_0_or_2(valid_files, command, data):
    argv = COMMANDS[command]
    target = data.draw(st.sampled_from(
        [n for n in FILES if "@" + n in argv and n.endswith((".json", ".jsonl"))]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in valid_files.items():
            if name == target:
                content, original, hostile = _replaced(content, name.endswith(".jsonl"),
                                                       data.draw)
            (Path(tmp) / name).write_bytes(content)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([str(Path(tmp) / arg[1:]) if arg.startswith("@") else arg
                         for arg in argv])
    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 0 and isinstance(original, (int, float)) and not isinstance(original, bool):
        # a number read from a file was replaced; only the finite, in-range one may pass
        assert hostile == "-0.0"
    if code == 0 and isinstance(original, str):
        # a string (an id, tag, meaning or member) may only become another string
        assert hostile == '"0.5"'

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from photoseg.cli import _load_config, build_parser, main
from photoseg.datamodel import (
    load_concept_detections,
    load_feature_stream,
    load_segmentation,
    save_feature_stream,
    save_segmentation,
)
from photoseg.evaluate import evaluate_pair
from photoseg.graphcut import MIN_SOFTMAX_TEMP
from photoseg.pipeline import PipelineConfig, config_keys, run_pipeline
from photoseg.semantic import MAX_BANDWIDTH
from photoseg.synth import block_spec


@pytest.fixture()
def fixture_dir(tmp_path):
    spec = block_spec(num_segments=3, segment_length=15, noise_sigma=0.0, seed=0)
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    out = tmp_path / "data"
    assert main(["synth", str(spec_path), "--outdir", str(out)]) == 0
    return out


def test_synth_writes_consumable_files(fixture_dir):
    assert (fixture_dir / "features.csv").exists()
    assert (fixture_dir / "detections.jsonl").exists()
    gt = load_segmentation(fixture_dir / "ground_truth.json")
    assert gt.starts == (0, 15, 30)


def test_segment_and_evaluate_flow(fixture_dir, tmp_path, capsys):
    seg_path = tmp_path / "pred.json"
    rc = main([
        "segment", str(fixture_dir / "features.csv"),
        "--detections", str(fixture_dir / "detections.jsonl"),
        "--out", str(seg_path),
    ])
    assert rc == 0
    pred = load_segmentation(seg_path)
    assert pred.starts == (0, 15, 30)

    out_path = tmp_path / "report.json"
    rc = main(["evaluate", str(seg_path), str(fixture_dir / "ground_truth.json"),
               "--out", str(out_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert '"fmeasure": 1.0' in printed
    report = json.loads(out_path.read_text())
    assert report["fmeasure"] == 1.0
    assert report["lce"] <= report["gce"]
    # the bytes of a one-line JSON dump with sorted keys
    expected = evaluate_pair(pred, load_segmentation(fixture_dir / "ground_truth.json"))
    assert out_path.read_text() == json.dumps(expected.to_dict(), sort_keys=True) + "\n"


def test_evaluate_csv_row_mode(fixture_dir, tmp_path, capsys):
    rc = main(["evaluate", str(fixture_dir / "ground_truth.json"),
               str(fixture_dir / "ground_truth.json"), "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "precision,recall,fmeasure,tp,fp,fn,gce,lce"
    assert lines[1].startswith("1.0,1.0,1.0,2,0,0")


def test_segment_dump_intermediates(fixture_dir, tmp_path):
    rc = main([
        "segment", str(fixture_dir / "features.csv"),
        "--detections", str(fixture_dir / "detections.jsonl"),
        "--out", str(tmp_path / "pred.json"),
        "--dump-intermediates", str(tmp_path / "stages"),
    ])
    assert rc == 0
    names = {p.name for p in (tmp_path / "stages").iterdir()}
    assert {"config.json", "candidate_agglomerative.json", "candidate_adwin.json",
            "segmentation.json", "fused_features.csv", "semantic_features.csv",
            "kept_concepts.json", "vocabulary.json"} <= names


def test_dumped_config_reruns_the_run(fixture_dir, tmp_path):
    base = ["segment", str(fixture_dir / "features.csv"),
            "--detections", str(fixture_dir / "detections.jsonl")]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([*base, "--cutoff", "0.4", "--vocab-size", "4", "--radius", "2",
                 "--out", str(tmp_path / "a.json"), "--dump-intermediates", str(first)]) == 0
    assert main([*base, "--config", str(first / "config.json"),
                 "--out", str(tmp_path / "b.json"), "--dump-intermediates", str(again)]) == 0
    for name in ("config.json", "segmentation.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("command", ["segment", "gridsearch"])
def test_feature_format_read_from_the_file(fixture_dir, tmp_path, command):
    # the same day as CSV and as JSON lines, with no flag naming either
    jsonl = tmp_path / "features.jsonl"
    save_feature_stream(load_feature_stream(fixture_dir / "features.csv"), jsonl,
                        format="jsonl")
    outputs = []
    for features in (fixture_dir / "features.csv", jsonl):
        out = tmp_path / f"{features.suffix[1:]}.out"
        argv = [command, str(features), "--detections", str(fixture_dir / "detections.jsonl"),
                "--out", str(out)]
        if command == "gridsearch":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"cutoff": [0.2, 0.6], "radius": [1, 2]}))
            argv += ["--gt", str(fixture_dir / "ground_truth.json"), "--grid", str(grid)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_segment_without_detections_is_contextual_only(fixture_dir, tmp_path):
    features = fixture_dir / "features.csv"
    out, expected = tmp_path / "pred.json", tmp_path / "expected.json"
    assert main(["segment", str(features), "--out", str(out)]) == 0
    save_segmentation(run_pipeline(load_feature_stream(features), None).segmentation, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_wrong_length_detections_exit_2(fixture_dir, tmp_path, capsys):
    short = tmp_path / "short.jsonl"
    lines = (fixture_dir / "detections.jsonl").read_text().splitlines(keepends=True)
    short.write_text("".join(lines[:5]))
    out = tmp_path / "x.json"
    rc = main(["segment", str(fixture_dir / "features.csv"), "--detections", str(short),
               "--out", str(out)])
    assert rc == 2
    assert "error: [semantic] feature stream has 45 frames but detections have 5" in \
        capsys.readouterr().err
    assert not out.exists()


def test_vocab_and_featurize(fixture_dir, tmp_path):
    vocab_path = tmp_path / "vocab.json"
    rc = main(["vocab", str(fixture_dir / "detections.jsonl"), "--out", str(vocab_path)])
    assert rc == 0
    vocab = json.loads(vocab_path.read_text())
    assert len(vocab["clusters"]) == 6     # 3 segments x 2 concepts

    matrix_path = tmp_path / "semantic.csv"
    rc = main(["featurize", str(fixture_dir / "detections.jsonl"),
               "--vocab", str(vocab_path), "--out", str(matrix_path)])
    assert rc == 0
    rows = matrix_path.read_text().strip().split("\n")
    assert len(rows) == 45


def test_vocab_and_featurize_write_the_pipeline_bytes(fixture_dir, tmp_path):
    flags = ["--vocab-size", "4", "--bandwidth", "2.0"]
    detections = str(fixture_dir / "detections.jsonl")
    # vocab reads no bandwidth, so it takes no --bandwidth
    assert main(["vocab", detections, "--out", str(tmp_path / "vocab.json"),
                 "--vocab-size", "4"]) == 0
    assert main(["featurize", detections, "--out", str(tmp_path / "semantic.csv"), *flags]) == 0

    result = run_pipeline(load_feature_stream(fixture_dir / "features.csv"),
                          load_concept_detections(detections),
                          PipelineConfig().override(vocab_size=4, bandwidth=2.0))
    result.vocabulary.save(tmp_path / "want_vocab.json")
    np.savetxt(tmp_path / "want_semantic.csv", result.semantic, delimiter=",")
    assert (tmp_path / "vocab.json").read_bytes() == (tmp_path / "want_vocab.json").read_bytes()
    assert ((tmp_path / "semantic.csv").read_bytes()
            == (tmp_path / "want_semantic.csv").read_bytes())


def test_vocab_names_the_stage_of_an_unknown_tag(fixture_dir, tmp_path, capsys):
    sim_path = tmp_path / "sims.json"
    sim_path.write_text(json.dumps({"meanings": {"concept_0_0": ["concept_0_0"]},
                                    "sims": []}))
    rc = main(["vocab", str(fixture_dir / "detections.jsonl"),
               "--similarity", str(sim_path), "--out", str(tmp_path / "vocab.json")])
    assert rc == 2
    assert "[vocabulary]" in capsys.readouterr().err


def test_similarity_table_flows_through_vocab(fixture_dir, tmp_path):
    det_tags = [f"concept_{s}_{k}" for s in range(3) for k in range(2)]
    sims = {"meanings": {t: [t] for t in det_tags}, "sims": []}
    # make each segment's two concepts synonyms so they cluster together
    for s in range(3):
        sims["sims"].append([f"concept_{s}_0", f"concept_{s}_1", 0.95])
    sim_path = tmp_path / "sims.json"
    sim_path.write_text(json.dumps(sims))
    vocab_path = tmp_path / "vocab.json"
    rc = main(["vocab", str(fixture_dir / "detections.jsonl"),
               "--similarity", str(sim_path), "--vocab-size", "3",
               "--out", str(vocab_path)])
    assert rc == 0
    vocab = json.loads(vocab_path.read_text())
    assert len(vocab["clusters"]) == 3
    for cluster in vocab["clusters"]:
        suffixes = {m.split("_")[1] for m in cluster["members"]}
        assert len(suffixes) == 1          # only same-segment concepts together

def test_gridsearch_cli(fixture_dir, tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"cutoff": [0.4, 1.9]}))
    out_path = tmp_path / "grid.csv"
    rc = main([
        "gridsearch", str(fixture_dir / "features.csv"),
        "--detections", str(fixture_dir / "detections.jsonl"),
        "--gt", str(fixture_dir / "ground_truth.json"),
        "--grid", str(grid_path),
        "--out", str(out_path),
    ])
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "cutoff,precision,recall,fmeasure,tp,fp,fn"
    assert len(lines) == 3


def test_config_file_drives_segment(fixture_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"cutoff": 1.9, "delta": 1e-6}))
    out = tmp_path / "pred.json"
    rc = main([
        "segment", str(fixture_dir / "features.csv"),
        "--detections", str(fixture_dir / "detections.jsonl"),
        "--config", str(config_path),
        "--out", str(out),
    ])
    assert rc == 0
    # both candidates were configured inert, so everything is one segment
    assert load_segmentation(out).starts == (0,)

    rc = main([
        "segment", str(fixture_dir / "features.csv"),
        "--detections", str(fixture_dir / "detections.jsonl"),
        "--config", str(config_path),
        "--cutoff", "0.4",        # flag overrides the file
        "--delta", "0.1",
        "--out", str(out),
    ])
    assert rc == 0
    assert load_segmentation(out).starts == (0, 15, 30)


def test_validation_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    rc = main(["segment", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2

    widthless = tmp_path / "widthless.jsonl"
    widthless.write_text('{"id": "a", "vector": []}\n{"id": "b", "vector": []}\n')
    rc = main(["segment", str(widthless), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert f"error: {widthless}: feature vectors have zero width" in capsys.readouterr().err

    missing = main(["evaluate", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")])
    assert missing == 2


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_features_exit_2(tmp_path, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1,2\n3,{cell}\n5,6\n")
    rc = main(["segment", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


# a JSON integer too large for a float
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("line, message", [
    ('{"id": "0", "tags": [{"tag": "a", "confidence": 0.5}', "row 3: malformed JSON"),
    ('{"id": "0", "tags": [{"tag": "a"}]}', "row 3: tag entry missing key 'confidence'"),
    ('{"id": "0", "tags": [{"confidence": 0.5}]}', "row 3: tag entry missing key 'tag'"),
    (f'{{"id": "0", "tags": [{{"tag": "a", "confidence": {_HUGE}}}]}}',
     "row 3: tag 'a' confidence must be finite"),
    ('{"id": "0", "tags": [{"tag": "a", "confidence": true}]}',
     "row 3: tag 'a' confidence must be a number"),
    ('{"id": "0", "tags": [{"tag": "a", "confidence": "0.5"}]}',
     "row 3: tag 'a' confidence must be a number"),
    ('{"id": "0", "tags": [{"tag": 5, "confidence": 0.5}]}', "row 3: tag 5 is not a string"),
    ('{"id": "0", "tags": [{"tag": true, "confidence": 0.5}]}',
     "row 3: tag True is not a string"),
    ('{"id": "0", "tags": [{"tag": null, "confidence": 0.5}]}',
     "row 3: tag None is not a string"),
], ids=["truncated", "no-confidence", "no-tag", "confidence-huge", "confidence-bool",
        "confidence-string", "tag-int", "tag-bool", "tag-null"])
def test_malformed_detections_exit_2(fixture_dir, tmp_path, capsys, line, message):
    good = (fixture_dir / "detections.jsonl").read_text().splitlines()
    bad = tmp_path / "detections.jsonl"
    bad.write_text("\n".join(good[:3] + [line] + good[4:]) + "\n")
    rc = main(["segment", str(fixture_dir / "features.csv"), "--detections", str(bad),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("line, message", [
    ('{"id": "0", "tags": [{"tag": "a", "confidence": true}]}',
     "row 4: tag 'a' confidence must be a number"),
    ('{"id": "0", "tags": [{"tag": "a", "confidence": 0.5}, {"tag": "a", "confidence": 0.5}]}',
     "row 4: duplicate tag 'a'"),
], ids=["confidence-bool", "duplicate-tag"])
def test_detections_error_counts_blank_lines(fixture_dir, tmp_path, capsys, line, message):
    # the bad line is frame 3 but row 4 of the file
    good = (fixture_dir / "detections.jsonl").read_text().splitlines()
    bad = tmp_path / "detections.jsonl"
    bad.write_text("\n".join(good[:3] + ["", line] + good[4:]) + "\n")
    rc = main(["segment", str(fixture_dir / "features.csv"), "--detections", str(bad),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_malformed_jsonl_features_exit_2(tmp_path):
    bad = tmp_path / "features.jsonl"
    bad.write_text('{"id": "a", "vector": [1.0, 2.0]}\n{"id": "b", "vector": [3.0,\n')
    rc = main(["segment", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_unsplittable_csv_exit_2(tmp_path, capsys):
    # an unclosed quote runs past csv's field size limit
    bad = tmp_path / "features.csv"
    bad.write_text('1,2\n3,"4\n' + "5,6\n" * 40_000)
    rc = main(["segment", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: row 1: malformed CSV")
    assert not (tmp_path / "x.json").exists()


def test_malformed_segmentation_exit_2(fixture_dir, tmp_path):
    bad = tmp_path / "pred.json"
    bad.write_text('{"n": 45, "starts": [0, 15,\n')
    gt = str(fixture_dir / "ground_truth.json")
    assert main(["evaluate", str(bad), gt]) == 2
    assert main(["evaluate", gt, str(bad)]) == 2


def _truncated(path: Path, text: str) -> str:
    path.write_text(text[: len(text) // 2])
    return str(path)


@pytest.mark.parametrize("command", ["vocab", "featurize", "segment", "evaluate",
                                     "gridsearch", "synth"])
def test_truncated_json_exit_2(fixture_dir, tmp_path, capsys, command):
    # each subcommand reads one JSON file that is cut off mid-object
    det = str(fixture_dir / "detections.jsonl")
    features = str(fixture_dir / "features.csv")
    gt = str(fixture_dir / "ground_truth.json")
    out = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    argv = {
        "vocab": lambda: ["vocab", det, "--out", out, "--similarity", _truncated(
            bad, json.dumps({"meanings": {"a": ["a"]}, "sims": [["a", "b", 0.5]]}))],
        "featurize": lambda: ["featurize", det, "--out", out, "--vocab", _truncated(
            bad, json.dumps({"clusters": [{"representative": "a", "members": ["a"]}]}))],
        "segment": lambda: ["segment", features, "--detections", det, "--out", out,
                            "--config", _truncated(bad, json.dumps({"cutoff": 0.4}))],
        "evaluate": lambda: ["evaluate", _truncated(bad, (fixture_dir / "ground_truth.json")
                                                    .read_text()), gt],
        "gridsearch": lambda: ["gridsearch", features, "--gt", gt, "--grid",
                               _truncated(bad, json.dumps({"cutoff": [0.4, 1.9]}))],
        "synth": lambda: ["synth", _truncated(
            bad, json.dumps({"n": 1, "segments": [{"length": 1, "contextual_mean": [0]}]})),
            "--outdir", out],
    }[command]()
    assert main(argv) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("body", [{"cutoff": "x"}, {"vocab_size": "x"}, {"radius": 1.5},
                                  {"seed": 2 ** 64}, {"cutoff": 10 ** 400}],
                         ids=["string-float", "string-int", "fractional-int", "int-past-int64",
                              "float-past-a-float"])
def test_mistyped_config_exit_2(fixture_dir, tmp_path, capsys, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "x.json"
    rc = main(["segment", str(fixture_dir / "features.csv"), "--config", str(config),
               "--out", str(out)])
    assert rc == 2
    assert f"config value {next(iter(body))!r}" in capsys.readouterr().err
    assert not out.exists()


# every numeric config key at the ends of its type: int64's maximum, or the
# smallest float, 1e-300 and 1e-200 (whose reciprocals, or their squares,
# overflow) and 1e300; plus the extremes of each key's range
_RANGE_EXTREMES = {
    "vocab_size": [1], "seed": [0], "variance_threshold": [0.0], "blend": [0.0, 1.0],
    "bandwidth": [MAX_BANDWIDTH], "delta": [1 - 2 ** -53], "p": [1], "min_subwindow": [1],
    "unary_mix": [0.0, 1.0], "pairwise_weight": [0.0, 1.0], "radius": [1],
    "softmax_temp": [MIN_SOFTMAX_TEMP], "tolerance": [0],
}
_TYPE_EXTREMES = {int: [2 ** 63 - 1], float: [5e-324, 1e-300, 1e-200, 1e300]}
_EXTREME_VALUES = [
    (key, value) for key, (kind, _) in config_keys().items() if kind in _TYPE_EXTREMES
    for value in dict.fromkeys(_TYPE_EXTREMES[kind] + _RANGE_EXTREMES.get(key, []))]


@pytest.fixture(scope="module")
def small_day(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small_day")
    block_spec(num_segments=3, segment_length=10, noise_sigma=0.1, seed=2).save(tmp / "spec.json")
    assert main(["synth", str(tmp / "spec.json"), "--outdir", str(tmp)]) == 0
    return tmp


@pytest.mark.parametrize("key, value", _EXTREME_VALUES,
                         ids=[f"{key}={value!r}" for key, value in _EXTREME_VALUES])
def test_extreme_in_range_config_values(small_day, tmp_path, key, value):
    # no traceback and no numpy warning (an error under pytest): a run or exit 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert main(["segment", str(small_day / "features.csv"),
                 "--detections", str(small_day / "detections.jsonl"),
                 "--config", str(config), "--out", str(tmp_path / "seg.json")]) in (0, 2)


@pytest.mark.parametrize("route", ["flag", "config-file"])
@pytest.mark.parametrize("command, values, message", [
    ("segment", {"seed": -1, "vocab_size": 2}, "seed must be >= 0"),
    ("vocab", {"seed": -1, "vocab_size": 2}, "seed must be >= 0"),
    # without detections the semantic stages never run; the config refuses their values
    ("features-only", {"vocab_size": -5, "bandwidth": -1.0}, "cluster count must be >= 1"),
    ("features-only", {"bandwidth": -1.0}, "bandwidth must be positive and finite"),
    ("features-only", {"variance_threshold": -0.1}, "threshold must be >= 0"),
    ("features-only", {"blend": 2.0}, "blend must lie in [0, 1]"),
], ids=["segment", "vocab", "vocab-size", "bandwidth", "variance-threshold", "blend"])
def test_negative_seed_exit_2(fixture_dir, tmp_path, capsys, command, values, message, route):
    flags = [arg for key, value in values.items()
             for arg in ("--" + key.replace("_", "-"), str(value))]
    if route == "config-file":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        flags = ["--config", str(config)]
    out = tmp_path / "x.json"
    features = str(fixture_dir / "features.csv")
    detections = str(fixture_dir / "detections.jsonl")
    argv = {"segment": ["segment", features, "--detections", detections],
            "vocab": ["vocab", detections], "features-only": ["segment", features]}[command]
    assert main([*argv, "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("starts", ["[0, 15.5, 30]", '[0, "15", 30]', "[0, true, 30]"],
                         ids=["fractional", "string", "bool"])
def test_non_integral_starts_exit_2(fixture_dir, tmp_path, capsys, starts):
    bad = tmp_path / "pred.json"
    bad.write_text(f'{{"n": 45, "starts": {starts}}}\n')
    assert main(["evaluate", str(bad), str(fixture_dir / "ground_truth.json")]) == 2
    assert "segment start must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    (f'["m0", "m1", {_HUGE}]', "must be finite"),
    ('["m0", "m1", true]', "must be a number"),
    ('[5, "m1", 0.5]', "names a non-string meaning"),
    ('["m0", null, 0.5]', "names a non-string meaning"),
], ids=["weight-huge", "weight-bool", "meaning-int", "meaning-null"])
def test_similarity_value_of_the_wrong_type_exit_2(fixture_dir, tmp_path, capsys, entry,
                                                   message):
    table = tmp_path / "sims.json"
    table.write_text(f'{{"meanings": {{"m0": ["m0"]}}, "sims": [{entry}]}}')
    out = tmp_path / "x.json"
    rc = main(["segment", str(fixture_dir / "features.csv"),
               "--detections", str(fixture_dir / "detections.jsonl"),
               "--similarity", str(table), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ['"0.5"', "true", "null", _HUGE],
                         ids=["string", "bool", "null", "huge"])
def test_jsonl_feature_value_of_the_wrong_type_exit_2(tmp_path, capsys, value):
    bad = tmp_path / "features.jsonl"
    bad.write_text('{"id": "a", "vector": [1.0, 2.0]}\n'
                   f'{{"id": "b", "vector": [3.0, {value}]}}\n')
    out = tmp_path / "x.json"
    assert main(["segment", str(bad), "--out", str(out)]) == 2
    assert "error: row 1, column 1 must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("noise_sigma", 10 ** 400, "noise_sigma must be finite"),
    ("noise_sigma", True, "noise_sigma must be a number"),
    ("noise_sigma", "3", "noise_sigma must be a number"),
    ("seed", -1, "seed must be >= 0"),
    ("seed", 1.5, "seed must be an integer"),
    ("length", 2.7, "segment length must be an integer"),
    # generate() clips each frame's confidence, which would hide the base
    ("concepts", {"a": 5}, "segment spec: confidence 5.0 for tag 'a' outside [0, 1]"),
], ids=["noise-huge", "noise-bool", "noise-string", "seed-negative", "seed-fractional",
        "length-fractional", "base-confidence-above-1"])
def test_synth_spec_value_of_the_wrong_type_exit_2(tmp_path, capsys, key, value, message):
    spec = {"n": 5, "noise_sigma": 0.1, "seed": 0, "segments": [
        {"length": 2, "contextual_mean": [1.0, 0.0], "concepts": {"a": 0.8}},
        {"length": 3, "contextual_mean": [0.0, 1.0], "concepts": {"b": 0.7}}]}
    # a length of 2.7 would read as 2, which the total of 5 fits
    (spec["segments"][0] if key in ("length", "concepts") else spec)[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["synth", str(path), "--outdir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [_HUGE, "9999999999999999999"], ids=["huge", "past-int64"])
def test_segmentation_n_past_int64_exit_2(tmp_path, capsys, n):
    bad = tmp_path / "seg.json"
    bad.write_text(f'{{"n": {n}, "starts": [0]}}\n')
    assert main(["evaluate", str(bad), str(bad)]) == 2
    assert "segmentation n must be within int64" in capsys.readouterr().err


@pytest.mark.parametrize("members", ['["a", []]', '["a", 5]'], ids=["list", "int"])
def test_vocabulary_member_not_a_string_exit_2(fixture_dir, tmp_path, capsys, members):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(f'{{"clusters": [{{"representative": "a", "members": {members}}}]}}')
    out = tmp_path / "x.csv"
    rc = main(["featurize", str(fixture_dir / "detections.jsonl"), "--vocab", str(vocab),
               "--out", str(out)])
    assert rc == 2
    assert "is not a string" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, body", [
    ([], '{"bandwidth": NaN}'),
    ([], '{"bandwidth": Infinity}'),
    (["--cutoff", "nan"], None),
    (["--variance-threshold", "nan"], None),
    (["--softmax-temp", "inf"], None),
], ids=["config-nan", "config-inf", "cutoff-nan", "variance-threshold-nan", "softmax-temp-inf"])
def test_non_finite_config_exit_2(fixture_dir, tmp_path, capsys, flags, body):
    if body is not None:
        config = tmp_path / "config.json"
        config.write_text(body)
        flags = ["--config", str(config)]
    out = tmp_path / "x.json"
    rc = main(["segment", str(fixture_dir / "features.csv"),
               "--detections", str(fixture_dir / "detections.jsonl"),
               "--out", str(out), *flags])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["grid-file", "config-file"])
def test_grid_value_not_a_list_exit_2(fixture_dir, tmp_path, capsys, route):
    path = tmp_path / "in.json"
    grid = {"cutoff": 0.4}
    path.write_text(json.dumps(grid if route == "grid-file" else {"grid": grid}))
    rc = main(["gridsearch", str(fixture_dir / "features.csv"),
               "--gt", str(fixture_dir / "ground_truth.json"),
               "--grid" if route == "grid-file" else "--config", str(path)])
    assert rc == 2
    assert "must be a non-empty list" in capsys.readouterr().err


_LONG_INTEGER = "1" + "0" * 5000
_DEEP_ARRAY = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("case", ["features-integer", "features-nesting", "config-integer",
                                  "config-nesting", "segmentation-integer"])
def test_json_past_the_parser_limits_exit_2(fixture_dir, tmp_path, capsys, case):
    # Python's json cannot hold an integer of over 4,300 digits or nesting
    # past the recursion limit
    features = str(fixture_dir / "features.csv")
    gt = str(fixture_dir / "ground_truth.json")
    bad = tmp_path / "bad"
    out = ["--out", str(tmp_path / "x.json")]
    feature_line = {"features-integer": f'{{"id": {_LONG_INTEGER}, "vector": [1.0]}}',
                    "features-nesting": f'{{"id": 1, "vector": {_DEEP_ARRAY}}}'}
    config = {"config-integer": f'{{"seed": {_LONG_INTEGER}}}',
              "config-nesting": f'{{"seed": {_DEEP_ARRAY}}}'}
    if case in feature_line:
        bad.write_text(feature_line[case] + "\n")
        argv, named = ["segment", str(bad), *out], "row 0"
    elif case in config:
        bad.write_text(config[case])
        argv, named = ["segment", features, "--config", str(bad), *out], str(bad)
    else:
        bad.write_text(f'{{"n": {_LONG_INTEGER}, "starts": [0]}}')
        argv, named = ["evaluate", str(bad), gt], str(bad)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}: JSON past the parser's limits")
    assert not (tmp_path / "x.json").exists()


def _with_bad_byte(path: Path, text: str) -> str:
    path.write_bytes(text.encode() + b"\xff\n")
    return str(path)


@pytest.mark.parametrize("case", ["features", "features-first-byte", "detections", "config",
                                  "segmentation", "features-directory"])
def test_unreadable_input_exit_2(fixture_dir, tmp_path, capsys, case):
    features = str(fixture_dir / "features.csv")
    det = str(fixture_dir / "detections.jsonl")
    gt = fixture_dir / "ground_truth.json"
    bad = tmp_path / "bad"
    out = ["--out", str(tmp_path / "x.json")]
    argv = {
        "features": lambda: ["segment", _with_bad_byte(bad, "1,2\n"), *out],
        "features-first-byte": lambda: ["segment", _with_bad_byte(bad, ""), *out],
        "detections": lambda: ["segment", features, "--detections", _with_bad_byte(
            bad, (fixture_dir / "detections.jsonl").read_text()), *out],
        "config": lambda: ["segment", features, "--detections", det, "--config",
                           _with_bad_byte(bad, '{"cutoff": 0.4}'), *out],
        "segmentation": lambda: ["evaluate", _with_bad_byte(bad, gt.read_text()), str(gt)],
        "features-directory": lambda: ["segment", str(tmp_path), *out],
    }[case]()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(tmp_path if case == "features-directory" else bad) in err
    assert not (tmp_path / "x.json").exists()


# every flat config key with a value other than its default, in the order
# to_dict() has always written them
NON_DEFAULT = {
    "vocab_size": 7, "seed": 3, "bandwidth": 2.5, "variance_threshold": 0.01,
    "blend": 0.6, "linkage": "single", "cutoff": 0.7,
    "delta": 0.01, "p": 3, "min_subwindow": 4, "unary_mix": 0.3,
    "pairwise_weight": 0.4, "radius": 2, "softmax_temp": 0.2, "tolerance": 6,
    "grid": {"cutoff": [0.4, 0.9]},
}


def _parsed_config(*flags, argv=("segment", "f.csv", "--out", "o.json")):
    return _load_config(build_parser().parse_args([*argv, *flags]))


class TestConfigSurface:
    def test_every_key_has_a_flag(self):
        # gridsearch reads every key; the grid comes from --grid's file
        for key, value in NON_DEFAULT.items():
            if key == "grid":
                continue
            config = _parsed_config("--" + key.replace("_", "-"), str(value),
                                    argv=("gridsearch", "f.csv", "--gt", "gt.json"))
            assert config.to_dict()[key] == value, key

    @pytest.mark.parametrize("command, keys", [
        ("vocab", {"vocab_size", "seed"}),
        ("featurize", {"vocab_size", "seed", "bandwidth", "variance_threshold"}),
        ("segment", set(NON_DEFAULT) - {"tolerance", "grid"}),
        ("gridsearch", set(NON_DEFAULT) - {"grid"}),
    ])
    def test_each_subcommand_has_the_flags_of_the_keys_it_reads(self, command, keys):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        sub = subparsers.choices[command]
        # gridsearch's --grid names a file of its own, not the config key
        flags = {a.dest for a in sub._actions if a.dest in config_keys() and a.dest != "grid"}
        assert flags == keys
        assert set(sub.get_default("config_flags")) == keys

    @pytest.mark.parametrize("argv", [
        ["vocab", "d.jsonl", "--out", "o.json", "--cutoff", "0.3"],
        ["featurize", "d.jsonl", "--out", "o.csv", "--radius", "2"],
        ["segment", "f.csv", "--out", "o.json", "--tolerance", "3"],
    ], ids=["vocab-cutoff", "featurize-radius", "segment-tolerance"])
    def test_flag_a_subcommand_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_existing_flag_spellings_unchanged(self):
        config = _parsed_config(
            "--linkage", "single", "--cutoff", "0.7", "--delta", "0.01",
            "--unary-mix", "0.3", "--pairwise-weight", "0.4", "--blend", "0.6",
            "--bandwidth", "2.5", "--variance-threshold", "0.01", "--softmax-temp", "0.2",
            "--vocab-size", "7", "--seed", "3")
        assert config == PipelineConfig.from_dict({
            k: v for k, v in NON_DEFAULT.items()
            if k not in ("p", "min_subwindow", "radius", "tolerance", "grid")})

    def test_readme_lists_every_key_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("`--config` accepts")
        listing = readme[start:readme.index(". Every key", start)].split(":", 1)[1]
        assert re.findall(r"`(\w+)`", listing) == list(config_keys())

    def test_to_dict_keys_and_order(self):
        assert list(PipelineConfig.from_dict(NON_DEFAULT).to_dict().items()) == \
            list(NON_DEFAULT.items())
        assert "grid" not in PipelineConfig().to_dict()

    def test_override_keeps_grid(self, tmp_path):
        config = PipelineConfig.from_dict(NON_DEFAULT)
        assert config.override(cutoff=0.5).grid == NON_DEFAULT["grid"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(NON_DEFAULT))
        assert _parsed_config("--config", str(path), "--cutoff", "0.5").grid == \
            NON_DEFAULT["grid"]

import json
from pathlib import Path

import pytest

from photoseg.cli import _load_config, build_parser, main
from photoseg.datamodel import load_segmentation
from photoseg.pipeline import PipelineConfig
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
    assert (tmp_path / "stages" / "vocabulary.json").exists()
    assert (tmp_path / "stages" / "candidate_agglomerative.json").exists()


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


def test_validation_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    rc = main(["segment", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2

    missing = main(["evaluate", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")])
    assert missing == 2


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_features_exit_2(tmp_path, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1,2\n3,{cell}\n5,6\n")
    rc = main(["segment", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("line", [
    '{"id": "0", "tags": [{"tag": "a", "confidence": 0.5}',
    '{"id": "0", "tags": [{"tag": "a"}]}',
    '{"id": "0", "tags": [{"confidence": 0.5}]}',
], ids=["truncated", "no-confidence", "no-tag"])
def test_malformed_detections_exit_2(fixture_dir, tmp_path, line):
    good = (fixture_dir / "detections.jsonl").read_text().splitlines()
    bad = tmp_path / "detections.jsonl"
    bad.write_text("\n".join(good[:3] + [line] + good[4:]) + "\n")
    rc = main(["segment", str(fixture_dir / "features.csv"), "--detections", str(bad),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_malformed_jsonl_features_exit_2(tmp_path):
    bad = tmp_path / "features.jsonl"
    bad.write_text('{"id": "a", "vector": [1.0, 2.0]}\n{"id": "b", "vector": [3.0,\n')
    rc = main(["segment", str(bad), "--format", "jsonl", "--out", str(tmp_path / "x.json")])
    assert rc == 2


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


@pytest.mark.parametrize("body", [{"cutoff": "x"}, {"vocab_size": "x"}, {"radius": 1.5}],
                         ids=["string-float", "string-int", "fractional-int"])
def test_mistyped_config_exit_2(fixture_dir, tmp_path, capsys, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "x.json"
    rc = main(["segment", str(fixture_dir / "features.csv"), "--config", str(config),
               "--out", str(out)])
    assert rc == 2
    assert f"config value {next(iter(body))!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("starts", ["[0, 15.5, 30]", '[0, "15", 30]', "[0, true, 30]"],
                         ids=["fractional", "string", "bool"])
def test_non_integral_starts_exit_2(fixture_dir, tmp_path, capsys, starts):
    bad = tmp_path / "pred.json"
    bad.write_text(f'{{"n": 45, "starts": {starts}}}\n')
    assert main(["evaluate", str(bad), str(fixture_dir / "ground_truth.json")]) == 2
    assert "segment start must be an integer" in capsys.readouterr().err


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


def _with_bad_byte(path: Path, text: str) -> str:
    path.write_bytes(text.encode() + b"\xff\n")
    return str(path)


@pytest.mark.parametrize("case", ["features", "detections", "config", "segmentation",
                                  "features-directory"])
def test_unreadable_input_exit_2(fixture_dir, tmp_path, capsys, case):
    features = str(fixture_dir / "features.csv")
    det = str(fixture_dir / "detections.jsonl")
    gt = fixture_dir / "ground_truth.json"
    bad = tmp_path / "bad"
    out = ["--out", str(tmp_path / "x.json")]
    argv = {
        "features": lambda: ["segment", _with_bad_byte(bad, "1,2\n"), *out],
        "detections": lambda: ["segment", features, "--detections", _with_bad_byte(
            bad, (fixture_dir / "detections.jsonl").read_text()), *out],
        "config": lambda: ["segment", features, "--detections", det, "--config",
                           _with_bad_byte(bad, '{"cutoff": 0.4}'), *out],
        "segmentation": lambda: ["evaluate", _with_bad_byte(bad, gt.read_text()), str(gt)],
        "features-directory": lambda: ["segment", str(tmp_path), *out],
    }[case]()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.json").exists()


# every flat config key with a value other than its default, in the order
# to_dict() has always written them
NON_DEFAULT = {
    "vocab_size": 7, "seed": 3, "bandwidth": 2.5, "variance_threshold": 0.01,
    "blend": 0.6, "semantic_enabled": False, "linkage": "single", "cutoff": 0.7,
    "delta": 0.01, "p": 3, "min_subwindow": 4, "unary_mix": 0.3,
    "pairwise_weight": 0.4, "radius": 2, "softmax_temp": 0.2, "tolerance": 6,
    "grid": {"cutoff": [0.4, 0.9]},
}


def _parsed_config(*flags):
    return _load_config(build_parser().parse_args(["segment", "f.csv", "--out", "o.json", *flags]))


class TestConfigSurface:
    def test_every_key_has_a_flag(self):
        for key, value in NON_DEFAULT.items():
            if key in ("grid", "semantic_enabled"):
                continue
            config = _parsed_config("--" + key.replace("_", "-"), str(value))
            assert config.to_dict()[key] == value, key
        assert _parsed_config("--no-semantic").semantic_enabled is False

    def test_existing_flag_spellings_unchanged(self):
        config = _parsed_config(
            "--linkage", "single", "--cutoff", "0.7", "--delta", "0.01",
            "--unary-mix", "0.3", "--pairwise-weight", "0.4", "--blend", "0.6",
            "--bandwidth", "2.5", "--variance-threshold", "0.01", "--softmax-temp", "0.2",
            "--vocab-size", "7", "--seed", "3", "--no-semantic")
        assert config == PipelineConfig.from_dict({
            k: v for k, v in NON_DEFAULT.items()
            if k not in ("p", "min_subwindow", "radius", "tolerance", "grid")})

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

import json

import numpy as np
import pytest

from photoseg.datamodel import FeatureStream, Segmentation, ValidationError
from photoseg.evaluate import f_measure
from photoseg.agglo import LINKAGES, cosine_distance_matrix, linkage_merge_sequence
from photoseg.pipeline import (
    GRID_PARAMS,
    PipelineConfig,
    StageError,
    grid_rows_to_csv,
    grid_search,
    run_pipeline,
)
from photoseg.synth import block_spec, generate


@pytest.fixture(scope="module")
def clean_fixture():
    return generate(block_spec(num_segments=5, segment_length=30, noise_sigma=0.0, seed=0))


class TestRunPipeline:
    def test_zero_noise_recovers_ground_truth(self, clean_fixture):
        stream, det, gt = clean_fixture
        result = run_pipeline(stream, det)
        assert result.segmentation == gt
        assert f_measure(result.segmentation, gt).fmeasure == 1.0

    def test_contextual_only_path(self, clean_fixture):
        stream, _, gt = clean_fixture
        result = run_pipeline(stream, None)
        assert result.semantic is None
        assert result.vocabulary is None
        # orthogonal means separate on contextual features alone
        assert result.segmentation == gt

    def test_semantic_disabled_flag(self, clean_fixture):
        stream, det, _ = clean_fixture
        cfg = PipelineConfig().override(semantic_enabled=False)
        result = run_pipeline(stream, det, cfg)
        assert result.semantic is None

    def test_frame_count_mismatch_names_stage(self, clean_fixture):
        stream, det, _ = clean_fixture
        short = FeatureStream(contextual=stream.contextual[:-1])
        with pytest.raises(StageError, match=r"\[semantic\]"):
            run_pipeline(short, det)

    def test_deterministic(self, clean_fixture):
        stream, det, _ = clean_fixture
        a = run_pipeline(stream, det)
        b = run_pipeline(stream, det)
        assert a.segmentation == b.segmentation
        np.testing.assert_array_equal(a.fused, b.fused)

    def test_dump_intermediates(self, clean_fixture, tmp_path):
        stream, det, _ = clean_fixture
        run_pipeline(stream, det, dump_dir=tmp_path / "dump")
        names = {p.name for p in (tmp_path / "dump").iterdir()}
        assert {"config.json", "candidate_agglomerative.json", "candidate_adwin.json",
                "segmentation.json", "fused_features.csv", "semantic_features.csv",
                "kept_concepts.json", "vocabulary.json"} <= names


def _noisy_days():
    return [generate(block_spec(num_segments=4, segment_length=(12, 20, 8, 16),
                                noise_sigma=0.3 * k, seed=k)) for k in range(5)]


class TestDegenerateInputs:
    @pytest.mark.parametrize("with_detections", [True, False])
    def test_single_frame(self, with_detections):
        stream, det, _ = generate(block_spec(num_segments=1, segment_length=1))
        result = run_pipeline(stream, det if with_detections else None)
        assert result.segmentation == Segmentation(1, (0,))
        assert result.seg_ac == result.seg_adw == Segmentation(1, (0,))

    def test_every_concept_pruned_equals_contextual_only(self):
        for stream, det, _ in _noisy_days():
            stds = run_pipeline(stream, det, PipelineConfig().override(
                variance_threshold=0.0)).semantic.std(axis=0)
            pruned = run_pipeline(stream, det, PipelineConfig().override(
                variance_threshold=float(stds.max()) + 1.0))
            contextual = run_pipeline(stream, det, PipelineConfig().override(
                semantic_enabled=False))
            assert pruned.kept_concepts == []
            assert pruned.fused.tobytes() == contextual.fused.tobytes()
            assert pruned.segmentation == contextual.segmentation

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_cutoff_above_every_merge_gives_one_candidate_segment(self, linkage):
        for stream, det, _ in _noisy_days():
            fused = run_pipeline(stream, det).fused
            heights = linkage_merge_sequence(cosine_distance_matrix(fused), linkage)[:, 2]
            cutoff = float(np.nextafter(heights.max(), np.inf))
            result = run_pipeline(stream, det, PipelineConfig().override(
                linkage=linkage, cutoff=cutoff))
            assert result.seg_ac == Segmentation(stream.n, (0,))


class TestConfig:
    def test_flat_roundtrip(self):
        cfg = PipelineConfig.from_dict({
            "cutoff": 0.9, "linkage": "ward", "delta": 0.05,
            "unary_mix": 0.2, "blend": 0.7,
        })
        assert cfg.agglo.cutoff == 0.9
        assert cfg.agglo.linkage == "ward"
        assert cfg.adwin.delta == 0.05
        assert cfg.gc.unary_mix == 0.2
        back = cfg.to_dict()
        assert back["cutoff"] == 0.9 and back["blend"] == 0.7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            PipelineConfig.from_dict({"cutof": 0.9})

    def test_invalid_nested_value_rejected(self):
        with pytest.raises(ValidationError):
            PipelineConfig.from_dict({"delta": 1.5})

    @pytest.mark.parametrize("flat", [
        {"cutoff": "0.4"}, {"delta": True}, {"vocab_size": 10.5}, {"p": "2"},
        {"semantic_enabled": 1}, {"linkage": 3}, {"grid": ["cutoff"]},
    ])
    def test_mistyped_value_rejected(self, flat):
        with pytest.raises(ValidationError, match=f"config value '{next(iter(flat))}'"):
            PipelineConfig.from_dict(flat)

    def test_value_types_normalised(self):
        cfg = PipelineConfig.from_dict({"radius": 2.0, "cutoff": 1, "seed": np.int64(3)})
        assert cfg.gc.radius == 2 and type(cfg.gc.radius) is int
        assert cfg.agglo.cutoff == 1 and type(cfg.seed) is int

    def test_file_loading(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cutoff": 0.8, "grid": {"cutoff": [0.2, 0.4]}}))
        cfg = PipelineConfig.from_file(path)
        assert cfg.agglo.cutoff == 0.8
        assert cfg.grid == {"cutoff": [0.2, 0.4]}

    @pytest.mark.parametrize("body", ['{"cutoff": 0.8', '[["cutoff", 0.8]]'],
                             ids=["truncated", "not-an-object"])
    def test_malformed_file_rejected(self, tmp_path, body):
        path = tmp_path / "config.json"
        path.write_text(body)
        with pytest.raises(ValidationError):
            PipelineConfig.from_file(path)


class TestGridSearch:
    def test_single_config_equals_direct_run(self, clean_fixture):
        stream, det, gt = clean_fixture
        cfg = PipelineConfig.from_dict({"grid": {"cutoff": [0.4]}})
        rows = grid_search(stream, det, gt, cfg)
        assert len(rows) == 1
        direct = run_pipeline(stream, det, PipelineConfig().override(cutoff=0.4))
        assert rows[0].report.fmeasure == f_measure(direct.segmentation, gt).fmeasure

    def test_winning_config_ranks_first(self, clean_fixture):
        stream, det, gt = clean_fixture
        # cutoff 1.9 swallows every merge and delta 1e-6 makes the change
        # detector inert, so that combination leaves a single segment
        # (FM 0) while the default-style combination provably recovers gt
        cfg = PipelineConfig.from_dict(
            {"grid": {"cutoff": [1.9, 0.4], "delta": [1e-6, 0.1]}})
        rows = grid_search(stream, det, gt, cfg)
        assert rows[0].report.fmeasure == 1.0
        assert {"cutoff": 0.4, "delta": 0.1} in [r.params for r in rows[:3]]
        assert rows[-1].params == {"cutoff": 1.9, "delta": 1e-6}
        assert rows[-1].report.fmeasure == 0.0

    def test_smoothing_weight_helps_on_noisy_fixture(self):
        stream, det, gt = generate(block_spec(
            num_segments=5, segment_length=(35, 35, 10, 35, 35),
            contextual_dim=20, noise_sigma=0.11, seed=5))
        cfg = PipelineConfig.from_dict({"grid": {"pairwise_weight": [0.0, 1.0]}})
        rows = grid_search(stream, det, gt, cfg)
        by_weight = {row.params["pairwise_weight"]: row.report.fmeasure for row in rows}
        assert by_weight[1.0] >= by_weight[0.0]

    def test_rows_sorted_with_deterministic_ties(self, clean_fixture):
        stream, det, gt = clean_fixture
        cfg = PipelineConfig.from_dict({"grid": {"unary_mix": [0.4, 0.6], "cutoff": [0.4]}})
        rows = grid_search(stream, det, gt, cfg)
        fms = [r.report.fmeasure for r in rows]
        assert fms == sorted(fms, reverse=True)
        if fms[0] == fms[1]:   # tie: declared row-major order preserved
            assert rows[0].params["unary_mix"] == 0.4

    def test_empty_grid_rejected(self, clean_fixture):
        stream, det, gt = clean_fixture
        with pytest.raises(ValidationError, match="grid"):
            grid_search(stream, det, gt, PipelineConfig())
        cfg = PipelineConfig.from_dict({"grid": {"cutoff": []}})
        with pytest.raises(ValidationError, match="empty"):
            grid_search(stream, det, gt, cfg)

    def test_unknown_grid_key_rejected(self, clean_fixture):
        stream, det, gt = clean_fixture
        cfg = PipelineConfig.from_dict({"grid": {"vocab_size": [10]}})
        with pytest.raises(ValidationError, match="sweepable"):
            grid_search(stream, det, gt, cfg)

    def test_mistyped_grid_value_rejected(self, clean_fixture):
        stream, det, gt = clean_fixture
        cfg = PipelineConfig.from_dict({"grid": {"radius": [1, 1.5]}})
        with pytest.raises(ValidationError, match="config value 'radius'"):
            grid_search(stream, det, gt, cfg)

    def test_csv_rendering(self, clean_fixture):
        stream, det, gt = clean_fixture
        cfg = PipelineConfig.from_dict({"grid": {"cutoff": [0.4, 1.9]}})
        rows = grid_search(stream, det, gt, cfg)
        text = grid_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("cutoff,")
        assert len(lines) == 3


def test_grid_param_order_covers_paper_sweep_axes():
    for name in ("linkage", "cutoff", "unary_mix", "pairwise_weight"):
        assert name in GRID_PARAMS

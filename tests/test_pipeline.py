import json

import numpy as np
import pytest

from photoseg import agglo as agglo_module
from photoseg import graphcut as graphcut_module
from photoseg import pipeline
from photoseg.adwin import rescale_to_unit
from photoseg.datamodel import FeatureStream, Segmentation, ValidationError
from photoseg.evaluate import f_measure
from photoseg.agglo import LINKAGES, cosine_distance_matrix, linkage_merge_sequence
from photoseg.pipeline import (
    FEATURE_KEYS,
    GRID_PARAMS,
    VOCABULARY_KEYS,
    PipelineConfig,
    StageError,
    build_vocabulary,
    config_keys,
    grid_rows_to_csv,
    grid_search,
    run_pipeline,
    semantic_features,
)
from photoseg.semantic import ExactMatchProvider
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
        from photoseg.cli import _dump_intermediates

        stream, det, _ = clean_fixture
        cfg = PipelineConfig()
        result = run_pipeline(stream, det, cfg)
        # the pipeline itself writes nothing; every artifact comes from its result
        _dump_intermediates(result, cfg, tmp_path / "dump")
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
            contextual = run_pipeline(stream, None, PipelineConfig())
            assert pruned.kept_concepts == []
            assert pruned.fused.tobytes() == contextual.fused.tobytes()
            assert pruned.segmentation == contextual.segmentation

    def test_threshold_just_above_every_reported_std_prunes_every_column(self):
        for stream, det, _ in _noisy_days():
            stds = run_pipeline(stream, det, PipelineConfig().override(
                variance_threshold=0.0)).semantic.std(axis=0)
            top = float(stds.max())
            at_top = run_pipeline(stream, det, PipelineConfig().override(
                variance_threshold=top))
            above = run_pipeline(stream, det, PipelineConfig().override(
                variance_threshold=float(np.nextafter(top, np.inf))))
            assert at_top.kept_concepts
            assert above.kept_concepts == []

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

    # the inputs, not a key, decide whether the semantic half runs
    @pytest.mark.parametrize("flat", [{"cutof": 0.9}, {"semantic_enabled": False}],
                             ids=["misspelt", "semantic-switch"])
    def test_unknown_key_rejected(self, flat):
        with pytest.raises(ValidationError, match="unknown config keys"):
            PipelineConfig.from_dict(flat)

    def test_invalid_nested_value_rejected(self):
        with pytest.raises(ValidationError):
            PipelineConfig.from_dict({"delta": 1.5})

    @pytest.mark.parametrize("flat", [
        {"cutoff": "0.4"}, {"delta": True}, {"vocab_size": 10.5}, {"p": "2"},
        {"linkage": 3}, {"grid": ["cutoff"]},
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


# varies the fused matrix (blend, bandwidth), both candidates' parameters
# and the graph cut's, so equal parameters meet different fused inputs
REUSE_GRID = {"linkage": ["average", "single"], "cutoff": [0.3, 0.6], "delta": [0.05, 0.3],
              "unary_mix": [0.5], "blend": [0.3, 0.7], "bandwidth": [1.0, 3.0],
              "radius": [1, 2]}

# one fused matrix, where cutoffs 0.02 and 0.05 both leave every frame
# alone and 1.2 makes one segment under either linkage, so different
# agglomerative parameters give equal candidates
EQUAL_CANDIDATES_GRID = {"linkage": ["average", "single"], "cutoff": [0.02, 0.05, 1.2],
                         "unary_mix": [0.5, 0.85], "radius": [1, 2]}


# one non-default value for every key of a nested parameter class
NESTED_VALUES = {"linkage": "single", "cutoff": 0.7, "delta": 0.01, "p": 3, "min_subwindow": 4,
                 "unary_mix": 0.3, "pairwise_weight": 0.4, "radius": 2, "softmax_temp": 0.2,
                 "tolerance": 6}


@pytest.fixture(scope="module")
def reuse_day():
    return generate(block_spec(num_segments=4, segment_length=(12, 20, 8, 16),
                               noise_sigma=0.3, seed=1))


def _recording(monkeypatch, name):
    """Replace ``pipeline.<name>`` by a wrapper that logs its calls'
    arguments and results; returns the log."""
    calls = []
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


class TestGridSearchReuse:
    def test_rows_equal_independent_runs_bit_for_bit(self, reuse_day, monkeypatch):
        stream, det, gt = reuse_day
        runs = _recording(monkeypatch, "run_pipeline")
        rows = grid_search(stream, det, gt, PipelineConfig.from_dict({"grid": REUSE_GRID}))
        assert len(runs) == len(rows) == 64
        monkeypatch.undo()
        by_params = {tuple(r.params.items()): r.report for r in rows}
        for args, _, result in runs:
            config = args[2]
            alone = run_pipeline(stream, det, config)
            assert result.seg_ac == alone.seg_ac
            assert result.seg_adw == alone.seg_adw
            assert result.segmentation == alone.segmentation
            assert result.fused.tobytes() == alone.fused.tobytes()
            params = tuple((p, config.to_dict()[p]) for p in REUSE_GRID)
            assert by_params[params] == f_measure(alone.segmentation, gt)

    # calls expected of cluster_frames, detect_changes, the merge loop,
    # unary_energies and _pair_energies
    @pytest.mark.parametrize("grid, counts", [
        (REUSE_GRID, (16, 8, 8, 32, 8)),
        (EQUAL_CANDIDATES_GRID, (6, 1, 2, 4, 2)),
    ], ids=["reuse-grid", "equal-candidates"])
    def test_each_candidate_runs_once_per_distinct_input(self, reuse_day, monkeypatch,
                                                         grid, counts):
        stream, det, gt = reuse_day
        config = PipelineConfig.from_dict({"grid": grid})
        runs = _recording(monkeypatch, "run_pipeline")
        agglo = _recording(monkeypatch, "cluster_frames")
        adwin = _recording(monkeypatch, "detect_changes")
        unary = _recording(monkeypatch, "unary_energies")
        minimized = _recording(monkeypatch, "minimize")
        # each merge loop call, with the cluster_frames calls open around it
        open_agglo, merges = [], []
        recorded_agglo, merge = pipeline.cluster_frames, agglo_module.linkage_merge_sequence

        def nested_agglo(fused, params, **kwargs):
            open_agglo.append((fused.tobytes(), params))
            try:
                return recorded_agglo(fused, params, **kwargs)
            finally:
                open_agglo.pop()

        def recorded_merge(dist, linkage, **kwargs):
            merges.append((linkage, list(open_agglo)))
            return merge(dist, linkage, **kwargs)

        pair_tables, pair = [], graphcut_module._pair_energies

        def recorded_pair(stream, radius):
            pair_tables.append((stream.tobytes(), radius))
            return pair(stream, radius)

        monkeypatch.setattr(pipeline, "cluster_frames", nested_agglo)
        monkeypatch.setattr(agglo_module, "linkage_merge_sequence", recorded_merge)
        monkeypatch.setattr(graphcut_module, "_pair_energies", recorded_pair)
        grid_search(stream, det, gt, config)
        configs = [args[2] for args, _, _ in runs]
        fused = [result.fused.tobytes() for _, _, result in runs]
        agglo_keys = [(a[0].tobytes(), a[1]) for a, _, _ in agglo]
        adwin_keys = [(a[0].tobytes(), a[1]) for a, _, _ in adwin]
        # one call per distinct (input, parameters) pair, and no other call
        assert len(set(agglo_keys)) == len(agglo_keys)
        assert set(agglo_keys) == {(f, c.agglo) for f, c in zip(fused, configs)}
        assert len(set(adwin_keys)) == len(adwin_keys)
        assert set(adwin_keys) == {(rescale_to_unit(r.fused).tobytes(), c.adwin)
                                   for c, (_, _, r) in zip(configs, runs)}
        assert (len(agglo), len(adwin)) == counts[:2]
        # one merge table per distinct fused matrix and linkage, each built
        # inside the cluster_frames call of its first cutoff
        assert all(len(around) == 1 and around[0][1].linkage == linkage
                   for linkage, around in merges)
        merge_keys = [(around[0][0], linkage) for linkage, around in merges]
        assert len(set(merge_keys)) == len(merge_keys) == counts[2]
        assert set(merge_keys) == {(f, c.agglo.linkage) for f, c in zip(fused, configs)}
        # the unary tables read the fused matrix, the label space (so both
        # candidate segmentations) and the softmax temperature; one pair is
        # held, so they are recomputed whenever that key differs from the
        # previous run's
        unary_keys = [(f, r.seg_ac, r.seg_adw, c.gc.softmax_temp)
                      for f, c, (_, _, r) in zip(fused, configs, runs)]
        key_changes = 1 + sum(a != b for a, b in zip(unary_keys, unary_keys[1:]))
        assert len(unary) == key_changes == counts[3]
        assert not any(t.flags.writeable for a, _, _ in minimized for t in a[1:3])
        # one pair-energy table per distinct fused matrix and radius,
        # shared by every candidate pair and mix
        assert len(set(pair_tables)) == len(pair_tables) == counts[4]
        assert set(pair_tables) == {(f, c.gc.radius) for f, c in zip(fused, configs)}
        # nothing is kept across calls
        grid_search(stream, det, gt, config)
        assert (len(agglo), len(adwin), len(merges), len(unary), len(pair_tables)) == \
            tuple(2 * c for c in counts)

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_shared_pair_tables_give_the_fresh_segmentation(self, reuse_day, n):
        # one memo across radii 1-3 shares its pair tables by effective
        # radius (at n = 2 every radius is 1; at n = 1 the DP needs none)
        stream, det, _ = reuse_day
        features = FeatureStream(stream.contextual[:n])
        detections = type(det)(frames=det.frames[:n])
        memo = {}
        for radius in (1, 2, 3, 1):
            config = PipelineConfig().override(radius=radius)
            shared = run_pipeline(features, detections, config, memo=memo)
            assert shared.segmentation == run_pipeline(features, detections, config).segmentation
        tables = [v for k, v in memo.items() if k[-1:] == ("pair tables",)]
        assert len(tables) == 1
        assert sorted(tables[0]) == {1: [], 2: [1], 40: [1, 2, 3]}[n]

    def test_memo_refuses_other_inputs(self, clean_fixture, reuse_day):
        stream, det, _ = clean_fixture
        memo = {}
        run_pipeline(stream, det, memo=memo)
        other_stream, other_det, _ = reuse_day
        with pytest.raises(ValidationError, match="memo"):
            run_pipeline(other_stream, other_det, memo=memo)
        with pytest.raises(ValidationError, match="memo"):
            run_pipeline(stream, det, provider=ExactMatchProvider(), memo=memo)
        run_pipeline(stream, det, PipelineConfig().override(cutoff=0.7), memo=memo)

    def test_memo_unchanged_by_writes_to_the_callers_rows(self, reuse_day):
        stream, det, _ = reuse_day
        rows = stream.contextual.copy()
        features = FeatureStream(rows)
        memo = {}
        first = run_pipeline(features, det, memo=memo)
        rows[:] = np.random.default_rng(0).normal(size=rows.shape)
        again = run_pipeline(features, det, memo=memo)
        fresh = run_pipeline(features, det)
        assert again.seg_ac == first.seg_ac == fresh.seg_ac
        assert again.fused.tobytes() == first.fused.tobytes() == fresh.fused.tobytes()

    def test_nested_keys_leave_fused_unchanged(self, reuse_day):
        # the memo keys candidates on the top-level config values alone,
        # which holds only while no nested value reaches the fused matrix
        stream, det, _ = reuse_day
        assert set(NESTED_VALUES) == {k for k, (_, part) in config_keys().items() if part}
        fused = run_pipeline(stream, det).fused.tobytes()
        for key, value in NESTED_VALUES.items():
            config = PipelineConfig().override(**{key: value})
            assert config.to_dict()[key] != PipelineConfig().to_dict()[key], key
            assert run_pipeline(stream, det, config).fused.tobytes() == fused, key

    def test_stages_before_fusion_read_only_their_keys(self, reuse_day):
        # the keys the CLI's vocab and featurize take flags for
        _, det, _ = reuse_day
        values = {"vocab_size": 3, "seed": 5, "bandwidth": 1.0, "variance_threshold": 0.01,
                  "blend": 0.7, **NESTED_VALUES}
        assert set(values) == set(config_keys()) - {"grid"}
        vocab = build_vocabulary(det, PipelineConfig())
        matrix = semantic_features(det, vocab, PipelineConfig())[0].tobytes()
        for key, value in values.items():
            config = PipelineConfig().override(**{key: value})
            assert config.to_dict()[key] != PipelineConfig().to_dict()[key], key
            if key not in VOCABULARY_KEYS:
                assert build_vocabulary(det, config) == vocab, key
            if key not in FEATURE_KEYS:
                assert semantic_features(det, vocab, config)[0].tobytes() == matrix, key

    def test_traced_stages_fire_in_every_configuration(self, reuse_day, monkeypatch):
        # the benchmark's tracer (bench/tracing.py, bench/layers.py) wraps
        # these names and reads, per configuration, run_pipeline followed
        # by f_measure, and each stage below inside every run_pipeline call
        stream, det, gt = reuse_day
        per_call = ("build_concept_graph", "cluster_concepts", "prune_low_variance", "fuse",
                    "build_label_space", "minimize")
        events = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                out = fn(*args, **kwargs)
                events.append("/" + name)
                return out
            return wrapper

        for name in ("run_pipeline", "f_measure") + per_call:
            monkeypatch.setattr(pipeline, name, logged(name, getattr(pipeline, name)))
        rows = grid_search(stream, det, gt, PipelineConfig.from_dict({"grid": REUSE_GRID}))
        top = [e for e in events if e.lstrip("/") in ("run_pipeline", "f_measure")]
        assert top == ["run_pipeline", "/run_pipeline", "f_measure", "/f_measure"] * len(rows)
        starts = [i for i, e in enumerate(events) if e == "run_pipeline"]
        for i in starts:
            inside = events[i:events.index("/run_pipeline", i)]
            assert set(per_call) <= set(inside)


def test_grid_param_order_covers_paper_sweep_axes():
    for name in ("linkage", "cutoff", "unary_mix", "pairwise_weight"):
        assert name in GRID_PARAMS

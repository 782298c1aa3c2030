import json

import numpy as np
import pytest

from photoseg import semantic
from photoseg.datamodel import ConceptDetections, ValidationError
from photoseg.semantic import (
    MAX_BANDWIDTH,
    ConceptCluster,
    ExactMatchProvider,
    FileSimilarityProvider,
    SemanticVocabulary,
    SimilarityProvider,
    UnknownTagError,
    _centre_means,
    _farthest_point_kmeans,
    _spectral_labels,
    assemble_semantic_features,
    build_concept_graph,
    cluster_concepts,
    prune_low_variance,
    smooth_temporal,
)

from oracles import (
    best_two_partition_score,
    brute_semantic_matrix,
    loop_semantic_features,
    pairwise_tag_weights,
    per_label_centre_means,
    rescan_init_kmeans,
)


def detections(*frames):
    return ConceptDetections(frames=tuple(tuple(f) for f in frames))


def table_provider(meanings, sims):
    return FileSimilarityProvider(meanings, sims)


class TestBuildConceptGraph:
    def test_max_over_meaning_pairs(self):
        prov = table_provider(
            {"a": ["a1", "a2"], "b": ["b1"]},
            {("a1", "b1"): 0.2, ("a2", "b1"): 0.7},
        )
        det = detections([("a", 0.5), ("b", 0.5)])
        graph = build_concept_graph(det, prov)
        i, j = graph.tags.index("a"), graph.tags.index("b")
        assert graph.weights[i, j] == 0.7

    def test_single_tag(self):
        graph = build_concept_graph(detections([("solo", 0.9)]), ExactMatchProvider())
        assert graph.tags == ("solo",)
        assert graph.weights.shape == (1, 1)

    def test_unknown_tag(self):
        prov = table_provider({"a": ["a1"]}, {})
        det = detections([("a", 0.5), ("xyz", 0.5)])
        with pytest.raises(UnknownTagError, match="xyz"):
            build_concept_graph(det, prov)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        tags = [f"t{i}" for i in range(6)]
        sims = {}
        for i in range(6):
            for j in range(i + 1, 6):
                sims[(f"m{i}", f"m{j}")] = float(rng.uniform())
        prov = table_provider({t: [f"m{i}"] for i, t in enumerate(tags)}, sims)
        det = detections([(t, 0.5) for t in tags])
        graph = build_concept_graph(det, prov)
        np.testing.assert_array_equal(graph.weights, graph.weights.T)
        assert np.all(np.diag(graph.weights) == 0)


def random_table(rng):
    """Tags with 1-4 meanings drawn from a small pool, so meanings repeat
    within and across tags; sims include self pairs and pairs naming
    meanings no tag owns."""
    pool = [f"m{i}" for i in range(int(rng.integers(1, 20)))]
    meanings = {f"t{i}": [str(m) for m in rng.choice(pool, size=int(rng.integers(1, 5)))]
                for i in range(int(rng.integers(1, 12)))}
    names = pool + ["unowned0", "unowned1"]
    sims = {}
    for _ in range(int(rng.integers(0, 3 * len(names)))):
        a, b = (str(m) for m in rng.choice(names, size=2))
        sims[(a, b)] = float(rng.choice([rng.uniform(), 0.0, 1.0]))
    return meanings, sims


class TestTagWeights:
    def test_file_provider_matches_pairwise_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            meanings, sims = random_table(rng)
            prov = FileSimilarityProvider(meanings, sims)
            observed = sorted(rng.choice(sorted(meanings), size=int(rng.integers(1, len(meanings) + 1)),
                                         replace=False))
            ms = [prov.meanings(str(t)) for t in observed]
            fast = prov.tag_weights(ms)
            slow = SimilarityProvider.tag_weights(prov, ms)
            assert fast.dtype == slow.dtype == np.float64
            assert fast.tobytes() == slow.tobytes()
            np.testing.assert_array_equal(slow, pairwise_tag_weights(prov, ms))

    def test_shared_meaning_and_self_pair(self):
        prov = table_provider({"a": ["x", "y"], "b": ["y"], "c": ["z"]},
                              {("z", "z"): 0.3, ("x", "z"): 0.4, ("q", "z"): 0.9})
        w = prov.tag_weights([prov.meanings(t) for t in "abc"])
        np.testing.assert_array_equal(w, [[0.0, 1.0, 0.4], [1.0, 0.0, 0.0], [0.4, 0.0, 0.0]])

    def test_single_tag(self):
        prov = table_provider({"a": ["x", "y"]}, {("x", "y"): 0.5, ("x", "x"): 0.2})
        assert prov.tag_weights([["x", "y"]]).tobytes() == np.zeros((1, 1)).tobytes()

    def test_exact_match_provider_matches_pairwise_loop(self):
        prov = ExactMatchProvider()
        for v in (1, 2, 7):
            ms = [prov.meanings(f"t{i}") for i in range(v)]
            assert prov.tag_weights(ms).tobytes() == \
                SimilarityProvider.tag_weights(prov, ms).tobytes()


def random_points(rng, case, v, dim):
    """Unit, duplicated (argmax ties), 0/1, or unit rows with zero rows
    among them, as a zero graph's embedding has."""
    kind = case % 4
    if kind == 1:
        distinct = rng.normal(size=(int(rng.integers(1, v // 2 + 2)), dim))
        return distinct[rng.integers(len(distinct), size=v)]
    if kind == 2:
        return rng.integers(0, 2, size=(v, dim)).astype(np.float64)
    points = rng.normal(size=(v, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    if kind == 3:
        points[rng.random(v) < 0.4] = 0.0
    return points


def assert_matches_oracle(points, k, seed):
    labels, distortion = _farthest_point_kmeans(points, k, seed=seed)
    want_labels, want_distortion = rescan_init_kmeans(points, k, seed=seed)
    assert labels.tobytes() == want_labels.tobytes()
    assert distortion == want_distortion


class TestFarthestPointKmeans:
    def test_matches_rescan_init_oracle(self):
        # each kind of rows at k = 1, k = v - 1 and a random k in between
        rng = np.random.default_rng(17)
        checked = 0
        for case in range(90):
            v, dim = int(rng.integers(2, 40)), int(rng.integers(1, 8))
            points = random_points(rng, case, v, dim)
            for k in sorted({1, v - 1, int(rng.integers(1, v))}):
                assert_matches_oracle(points, k, seed=[case, k])
                checked += 1
        assert checked >= 200

    def test_matches_rescan_init_oracle_at_vocabulary_scale(self):
        rng = np.random.default_rng(23)
        for case in range(12):
            v, dim = int(rng.integers(100, 301)), int(rng.integers(1, 121))
            k = int(rng.integers(2, 101))
            assert_matches_oracle(random_points(rng, case, v, dim), k, seed=[case, k])

    def test_ties_take_the_exact_recompute(self, monkeypatch):
        # few distinct 0/1 rows against a few centres: after the first
        # step, points sit exactly between centres
        recomputes = [0]
        exact = semantic._exact_sq_dists

        def counting(points, centres):
            # several centres at once: the tie check, not a seed row
            recomputes[0] += centres.ndim == 2
            return exact(points, centres)

        monkeypatch.setattr(semantic, "_exact_sq_dists", counting)
        rng = np.random.default_rng(11)
        for case in range(300):
            v, dim = int(rng.integers(4, 16)), int(rng.integers(1, 4))
            points = rng.integers(0, 2, size=(v, dim)).astype(np.float64)
            k = int(rng.integers(2, 4))
            assert_matches_oracle(points, k, seed=[case, k])
        assert recomputes[0] > 0

    def test_near_ties_resolve_as_the_exact_expression(self):
        # centres paired with copies nudged by one ulp in some coordinates:
        # the expanded form cannot order each pair, the exact recompute must
        rng = np.random.default_rng(31)
        points = rng.normal(size=(300, 40))
        base = rng.normal(size=(25, 40))
        nudged = base.copy()
        mask = rng.random(base.shape) < 0.2
        nudged[mask] = np.nextafter(nudged[mask], rng.choice([-np.inf, np.inf], mask.sum()))
        centres = np.concatenate([base, nudged])[rng.permutation(50)]
        exact = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        got = semantic._nearest_centres(points, (points ** 2).sum(axis=1), centres)
        assert got.tobytes() == np.argmin(exact, axis=1).tobytes()


@pytest.mark.parametrize("graph", ["families", "zero", "components"])
def test_spectral_labels_match_oracle_restarts(graph, monkeypatch):
    rng = np.random.default_rng(29)
    if graph == "families":
        # 150 tags in 30 families, strong within and faint across
        family = rng.integers(30, size=150)
        weights = np.where(family[:, None] == family[None, :],
                           rng.uniform(0.3, 0.9, (150, 150)), rng.uniform(0.0, 0.05, (150, 150)))
        k = 50
    elif graph == "zero":
        weights, k = np.zeros((182, 182)), 100
    else:
        # four dense blocks and 20 isolated tags
        block = rng.integers(4, size=120)
        weights = np.zeros((140, 140))
        weights[:120, :120] = (block[:, None] == block[None, :]) * rng.uniform(0.2, 1.0, (120, 120))
        k = 30
    weights = np.triu(weights, 1)
    weights = weights + weights.T
    got = _spectral_labels(weights, k, seed=5)
    # the same embedding, clustered by the oracle's restarts
    monkeypatch.setattr(semantic, "_farthest_point_kmeans",
                        lambda points, k, seed, seed_rows: rescan_init_kmeans(points, k, seed))
    want = _spectral_labels(weights, k, seed=5)
    assert got.tobytes() == want.tobytes()


class TestClusterConcepts:
    def test_k_at_least_vertex_count_gives_singletons(self):
        det = detections([(t, 0.5) for t in "abcde"])
        graph = build_concept_graph(det, ExactMatchProvider())
        vocab = cluster_concepts(graph, 100)
        assert vocab.size == 5
        assert all(len(c.members) == 1 for c in vocab.clusters)
        assert all(c.representative == c.members[0] for c in vocab.clusters)

    def test_two_cliques_match_brute_force_cut(self):
        # cliques {a,b,c} at 0.9 and {x,y} at 0.9, cross pairs 0.05
        tags = ["a", "b", "c", "x", "y"]
        meanings = {t: [t] for t in tags}
        sims = {}
        for u, v in [("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")]:
            sims[(u, v)] = 0.9
        for u in "abc":
            for v in "xy":
                sims[(u, v)] = 0.05
        prov = table_provider(meanings, sims)
        det = detections([(t, 0.5) for t in tags])
        graph = build_concept_graph(det, prov)

        _, best_side = best_two_partition_score(graph.weights)
        oracle_groups = {
            frozenset(t for t, s in zip(graph.tags, best_side) if s == 0),
            frozenset(t for t, s in zip(graph.tags, best_side) if s == 1),
        }
        assert oracle_groups == {frozenset("abc"), frozenset("xy")}

        vocab = cluster_concepts(graph, 2, seed=0)
        got = {frozenset(c.members) for c in vocab.clusters}
        assert got == oracle_groups

    def test_representative_by_similarity_sum(self):
        # sim(a,b)=0.9, sim(a,c)=0.8, sim(b,c)=0.5: sums 1.7, 1.4, 1.3
        prov = table_provider(
            {t: [t] for t in "abc"},
            {("a", "b"): 0.9, ("a", "c"): 0.8, ("b", "c"): 0.5},
        )
        det = detections([(t, 0.5) for t in "abc"])
        graph = build_concept_graph(det, prov)
        vocab = cluster_concepts(graph, 1)
        assert vocab.size == 1
        assert vocab.clusters[0].representative == "a"

    def test_partition_and_determinism(self):
        rng = np.random.default_rng(3)
        tags = [f"t{i}" for i in range(9)]
        sims = {(f"t{i}", f"t{j}"): float(rng.uniform())
                for i in range(9) for j in range(i + 1, 9)}
        prov = table_provider({t: [t] for t in tags}, sims)
        det = detections([(t, 0.5) for t in tags])
        graph = build_concept_graph(det, prov)
        v1 = cluster_concepts(graph, 3, seed=11)
        v2 = cluster_concepts(graph, 3, seed=11)
        assert v1 == v2
        all_members = [m for c in v1.clusters for m in c.members]
        assert sorted(all_members) == sorted(tags)
        for c in v1.clusters:
            assert c.representative in c.members

    @pytest.mark.parametrize("k", [2, 5], ids=["spectral", "identity"])
    def test_negative_seed_rejected(self, k):
        graph = build_concept_graph(detections([(t, 0.5) for t in "abcde"]), ExactMatchProvider())
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            cluster_concepts(graph, k, seed=-1)

    def test_vocabulary_roundtrip(self, tmp_path):
        det = detections([(t, 0.5) for t in "abc"])
        vocab = cluster_concepts(build_concept_graph(det, ExactMatchProvider()), 10)
        path = tmp_path / "vocab.json"
        vocab.save(path)
        assert SemanticVocabulary.load(path) == vocab


class TestAssembleSemanticFeatures:
    def test_sum_then_global_rescale(self):
        det = detections([("a", 0.6), ("b", 0.3)])
        vocab = cluster_concepts(build_concept_graph(det, ExactMatchProvider()), 1)
        m = assemble_semantic_features(det, vocab)
        # single cluster j: raw cell 0.9 rescales to exactly 1.0
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(1.0)

    def test_empty_frame_is_zero_row(self):
        det = detections([("a", 0.4)], [])
        vocab = cluster_concepts(build_concept_graph(det, ExactMatchProvider()), 5)
        m = assemble_semantic_features(det, vocab)
        np.testing.assert_array_equal(m[1], np.zeros(vocab.size))

    def test_global_max_normalization(self):
        det = detections([("a", 0.9)], [("a", 0.45)])
        vocab = cluster_concepts(build_concept_graph(det, ExactMatchProvider()), 5)
        m = assemble_semantic_features(det, vocab)
        np.testing.assert_allclose(m[:, 0], [1.0, 0.5])

    def test_unmapped_tag(self):
        det_vocab = detections([("a", 0.4)])
        vocab = cluster_concepts(build_concept_graph(det_vocab, ExactMatchProvider()), 5)
        with pytest.raises(ValidationError, match="vocabulary"):
            assemble_semantic_features(detections([("zzz", 0.4)]), vocab)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(7)
        pool = [f"tag{i}" for i in range(12)]
        for _ in range(100):
            frames = []
            for _ in range(rng.integers(1, 8)):
                chosen = rng.choice(12, size=rng.integers(0, 5), replace=False)
                frames.append([(pool[c], float(rng.uniform())) for c in chosen])
            observed = sorted({t for f in frames for t, _ in f})
            if not observed:
                continue
            det = ConceptDetections(frames=tuple(tuple(f) for f in frames))
            vocab = cluster_concepts(build_concept_graph(det, ExactMatchProvider()),
                                     rng.integers(1, 15))
            raw = brute_semantic_matrix(det.frames,
                                        [set(c.members) for c in vocab.clusters])
            expected = raw / raw.max() if raw.max() > 0 else raw
            got = assemble_semantic_features(det, vocab)
            np.testing.assert_allclose(got, expected, atol=1e-12)
            # k below the tag count often puts two tags of a frame in one
            # cluster, whose sum must keep the per-detection loop's order
            assert got.tobytes() == loop_semantic_features(det, vocab).tobytes()

    def test_two_tags_of_one_frame_in_one_cluster(self):
        det = detections([("a", 0.1), ("b", 0.2), ("c", 0.7)], [("b", 0.3)])
        vocab = SemanticVocabulary((ConceptCluster("a", ("a", "b", "c")),))
        m = assemble_semantic_features(det, vocab)
        assert m.tobytes() == loop_semantic_features(det, vocab).tobytes()
        assert m[0, 0] == 1.0 and m[1, 0] == 0.3 / (0.1 + 0.2 + 0.7)

    def test_unmapped_tag_names_the_first_frame_and_tag(self):
        vocab = cluster_concepts(build_concept_graph(detections([("a", 0.4)]),
                                                     ExactMatchProvider()), 5)
        det = detections([("a", 0.4)], [("a", 0.1), ("y", 0.2)], [("x", 0.3)])
        with pytest.raises(ValidationError, match=r"^frame 1: tag 'y' not in the vocabulary$"):
            assemble_semantic_features(det, vocab)


class TestCentreMeans:
    def test_bitwise_equal_one_mean_per_label(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            v = 1 if trial % 20 == 0 else int(rng.integers(2, 40))
            k = int(rng.integers(1, v + 3))
            scale = 10.0 ** rng.choice([-150, 0, 150])
            points = rng.normal(size=(v, int(rng.integers(1, 9)))) * scale
            points[rng.random(points.shape) < 0.1] = -0.0
            kind = trial % 3
            labels = (np.zeros(v, dtype=np.int64) if kind == 0
                      else np.arange(v) % k if kind == 1
                      else rng.integers(0, k, size=v))
            centres = rng.normal(size=(k, points.shape[1]))
            want = per_label_centre_means(points, labels, centres)
            assert _centre_means(points, labels, centres).tobytes() == want.tobytes()


class TestSmoothTemporal:
    def test_constant_column_unchanged(self):
        m = np.full((40, 3), 0.5)
        np.testing.assert_allclose(smooth_temporal(m, 3.0), m, atol=1e-12)

    def test_impulse_keeps_mass(self):
        m = np.zeros((51, 1))
        m[25, 0] = 1.0
        out = smooth_temporal(m, 2.0)
        assert out[25, 0] == out.max()
        np.testing.assert_allclose(out[20:31, 0], out[30:19:-1, 0], atol=1e-12)

    def test_single_frame_identity(self):
        m = np.array([[0.3, 0.8]])
        np.testing.assert_allclose(smooth_temporal(m, 3.0), m)

    def test_range_clamped(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0, 1, size=(30, 4))
        out = smooth_temporal(m, 1.5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValidationError, match="bandwidth"):
            smooth_temporal(np.full((5, 2), 0.5), bandwidth)

    def test_bandwidth_maximum_is_exact(self):
        m = np.random.default_rng(4).uniform(size=(12, 2))
        assert np.isfinite(smooth_temporal(m, MAX_BANDWIDTH)).all()
        with pytest.raises(ValidationError, match="at most 1000 frames"):
            smooth_temporal(m, np.nextafter(MAX_BANDWIDTH, np.inf))

    @pytest.mark.parametrize("bandwidth", [5e-324, 1e-300, 1e-200])
    def test_tiny_bandwidth_keeps_only_the_centre_tap(self, bandwidth):
        # the squared offsets overflow to inf, which weighs 0, with no warning
        m = np.random.default_rng(5).uniform(size=(9, 3))
        assert np.array_equal(smooth_temporal(m, bandwidth), m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        m = np.full((5, 2), 0.5)
        m[3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            smooth_temporal(m, 1.0)


class TestPruneLowVariance:
    def test_constant_column_pruned(self):
        m = np.column_stack([np.full(10, 0.7), np.tile([0.0, 1.0], 5)])
        pruned, kept = prune_low_variance(m, 0.05)
        assert kept == [1]
        np.testing.assert_array_equal(pruned[:, 0], m[:, 1])

    def test_zero_threshold_keeps_all(self):
        m = np.column_stack([np.full(10, 0.7), np.tile([0.0, 1.0], 5)])
        pruned, kept = prune_low_variance(m, 0.0)
        assert kept == [0, 1]

    def test_alternating_column_kept(self):
        m = np.tile([0.0, 1.0], 8)[:, None]
        _, kept = prune_low_variance(m, 0.05)
        assert kept == [0]

    def test_all_pruned_gives_zero_width(self):
        m = np.full((6, 3), 0.2)
        pruned, kept = prune_low_variance(m, 0.05)
        assert pruned.shape == (6, 0) and kept == []

    def test_decides_on_the_stds_of_the_returned_columns(self):
        # each returned column's own std is the exact boundary: a threshold
        # equal to it keeps the column, the next float above prunes it
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rng.random((int(rng.integers(2, 60)), int(rng.integers(1, 12))))
            pruned, kept = prune_low_variance(m, 0.0)
            for j, std in zip(kept, pruned.std(axis=0)):
                assert j in prune_low_variance(m, float(std))[1]
                assert j not in prune_low_variance(m, float(np.nextafter(std, np.inf)))[1]


def test_file_similarity_provider_defaults(tmp_path):
    obj = {"meanings": {"cat": ["feline"], "dog": ["canine"]},
           "sims": [["feline", "canine", 0.6]]}
    path = tmp_path / "sims.json"
    path.write_text(json.dumps(obj))
    prov = FileSimilarityProvider.from_file(path)
    assert prov.similarity("feline", "canine") == 0.6
    assert prov.similarity("canine", "feline") == 0.6
    assert prov.similarity("feline", "feline") == 1.0
    assert prov.similarity("feline", "unlisted") == 0.0
    assert prov.meanings("cat") == ["feline"]
    assert prov.meanings("unknown") == []


@pytest.mark.parametrize("body", ['{"meanings": {"cat": ["feline"]}',
                                  '[]',
                                  '{"meanings": {"cat": "feline"}}',
                                  '{"meanings": {"cat": [["feline"]]}}',
                                  '{"sims": [["feline", "canine"]]}',
                                  '{"sims": [["feline", "canine", "high"]]}',
                                  '{"sims": [["feline", "canine", 1.5]]}'],
                         ids=["truncated", "not-an-object", "meanings-not-list",
                              "meaning-not-string", "short-pair", "string-value",
                              "out-of-range"])
def test_similarity_file_malformed(tmp_path, body):
    path = tmp_path / "sims.json"
    path.write_text(body)
    with pytest.raises(ValidationError):
        FileSimilarityProvider.from_file(path)


@pytest.mark.parametrize("body", ['{"clusters": [', '{}', '{"clusters": [{"members": ["a"]}]}',
                                  '{"clusters": [3]}',
                                  '{"clusters": [{"representative": "a", "members": 4}]}'],
                         ids=["truncated", "no-clusters", "no-representative",
                              "cluster-not-object", "members-not-list"])
def test_vocabulary_file_malformed(tmp_path, body):
    path = tmp_path / "vocab.json"
    path.write_text(body)
    with pytest.raises(ValidationError):
        SemanticVocabulary.load(path)

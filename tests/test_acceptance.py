"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import time

import numpy as np
import pytest

from photoseg.adwin import AdwinParams, detect_changes
from photoseg.agglo import LINKAGES, AggloParams, cluster_frames, cosine_distance_matrix, \
    linkage_merge_sequence
from photoseg.cli import main
from photoseg.datamodel import Segmentation
from photoseg.evaluate import MatchParams, f_measure, gce, lce, trivial_segmentations
from photoseg.graphcut import GcParams, build_label_space, labeling_energy, \
    labeling_from_segmentation, minimize_labels, unary_energies
from photoseg.pipeline import PipelineConfig, run_pipeline
from photoseg.semantic import ExactMatchProvider, assemble_semantic_features, \
    build_concept_graph, cluster_concepts, prune_low_variance, smooth_temporal
from photoseg.synth import block_spec, generate
from photoseg.datamodel import ConceptDetections

from oracles import (
    brute_force_min_labeling,
    brute_gce_lce,
    brute_semantic_matrix,
    full_rescan_adwin,
    naive_merge_sequence,
)


def _random_segmentation(rng, n):
    k = int(rng.integers(0, n))
    starts = sorted(set(rng.choice(np.arange(1, n), size=k, replace=False).tolist())) if k else []
    return Segmentation(n, tuple([0] + starts))


def _report(num, name, start, budget):
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_metric_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        a = _random_segmentation(rng, n)
        b = _random_segmentation(rng, n)
        assert lce(a, b) <= gce(a, b) + 1e-12

    for _ in range(50):
        n = int(rng.integers(2, 201))
        other = _random_segmentation(rng, n)
        whole, per_frame = trivial_segmentations(n)
        for trivial in (whole, per_frame):
            assert gce(trivial, other) == 0.0
            assert lce(trivial, other) == 0.0

    seg_a = Segmentation(4, (0, 2))
    seg_b = Segmentation(4, (0, 3))
    assert gce(seg_a, seg_b) == 0.25
    assert lce(seg_a, seg_b) == 0.125
    assert brute_gce_lce(seg_a.starts, seg_b.starts, 4) == (0.25, 0.125)

    _report(1, "metric identities", start, 5)


def test_criterion_2_fmeasure_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(202)

    for _ in range(50):
        n = int(rng.integers(2, 101))
        pred = _random_segmentation(rng, n)
        if pred.boundaries:
            assert f_measure(pred, pred).fmeasure == 1.0

    gt = Segmentation(100, (0, 20, 50, 90))
    pred = Segmentation(100, (0, 21, 49, 70))
    report = f_measure(pred, gt)
    assert (report.tp, report.fp, report.fn) == (2, 1, 1)
    assert abs(report.fmeasure - 2.0 / 3.0) <= 1e-12

    for _ in range(200):
        n = int(rng.integers(2, 201))
        pred = _random_segmentation(rng, n)
        gt = _random_segmentation(rng, n)
        tps = [f_measure(pred, gt, MatchParams(t)).tp for t in (0, 1, 3, 5, 10, 20)]
        assert tps == sorted(tps)

    _report(2, "F-measure contract", start, 1)


def test_criterion_3_adwin():
    start = time.perf_counter()

    rng = np.random.default_rng(42)
    fixture = np.concatenate([
        0.1 + rng.uniform(-0.02, 0.02, 100),
        0.9 + rng.uniform(-0.02, 0.02, 100),
    ])[:, None]
    seg = detect_changes(fixture, AdwinParams(delta=0.1))
    assert len(seg.boundaries) == 1
    assert abs(seg.boundaries[0] - 100) <= 5

    delta = 0.1
    with_false = 0
    for replicate in range(50):
        r = np.random.default_rng(1000 + replicate)
        stream = r.uniform(0, 1, size=(500, 4))
        if detect_changes(stream, AdwinParams(delta=delta)).boundaries:
            with_false += 1
    assert with_false / 50 <= 3 * delta

    r = np.random.default_rng(303)
    for trial in range(25):
        n = int(r.integers(4, 65))
        k = int(r.integers(1, 5))
        stream = r.uniform(0, 1, size=(n, k))
        if trial % 2 == 0:
            stream[n // 2:] = np.clip(stream[n // 2:] + 0.5, 0, 1)
        for d in (0.05, 0.2):
            got = detect_changes(stream, AdwinParams(delta=d)).boundaries
            assert got == tuple(full_rescan_adwin(stream, d))

    _report(3, "adaptive windowing", start, 30)


def test_criterion_4_agglomerative_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        rows = rng.normal(size=(n, 4))
        dist = cosine_distance_matrix(rows)
        for linkage in LINKAGES:
            got = linkage_merge_sequence(dist, linkage)
            want = naive_merge_sequence(dist, linkage)
            assert [(int(a), int(b)) for a, b, _, _ in got] == [(a, b) for a, b, _ in want]
            np.testing.assert_allclose(got[:, 2], [h for _, _, h in want],
                                       rtol=1e-9, atol=1e-12)

    for trial in range(10):
        rows = rng.normal(size=(20, 5))
        scale = float(rng.uniform(0.01, 250.0))
        for linkage in LINKAGES:
            params = AggloParams(linkage=linkage, cutoff=0.6)
            assert cluster_frames(rows, params).starts \
                == cluster_frames(scale * rows, params).starts

    _report(4, "agglomerative clustering oracle", start, 10)


def test_criterion_5_graphcut_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(505)

    # 200 instances built from real candidate pairs whose boundary union
    # induces at most 4 atomic intervals, so monotone labelings can be
    # enumerated exhaustively
    for _ in range(200):
        n = int(rng.integers(2, 11))
        union_size = int(rng.integers(0, min(4, n)))
        union = sorted(rng.choice(np.arange(1, n), size=union_size,
                                  replace=False).tolist()) if union_size else []
        pick = rng.uniform(size=len(union))
        seg_ac = Segmentation(n, tuple([0] + [b for b, u in zip(union, pick) if u < 0.7]))
        seg_adw = Segmentation(n, tuple([0] + [b for b, u in zip(union, pick) if u >= 0.3]))
        stream = rng.normal(size=(n, 3))
        ls = build_label_space(seg_ac, seg_adw, stream)
        assert ls.num_labels <= 4
        mix, weight = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        # the chain minimiser is exact at every radius
        for radius in (1, 2, 3):
            params = GcParams(unary_mix=mix, pairwise_weight=weight, radius=radius)
            u_ac, u_adw = unary_energies(ls, stream, params)
            mixed = (1.0 - params.unary_mix) * u_ac + params.unary_mix * u_adw

            labels = minimize_labels(ls, u_ac, u_adw, stream, params)
            got = labeling_energy(labels, u_ac, u_adw, stream, params)
            want, _ = brute_force_min_labeling(mixed, stream, weight, radius)
            assert got == pytest.approx(want, abs=1e-9)

            for cand in (seg_ac, seg_adw):
                cand_labels = labeling_from_segmentation(cand, ls)
                assert got <= labeling_energy(cand_labels, u_ac, u_adw, stream, params) + 1e-9

    _report(5, "chain energy exactness", start, 20)


def test_criterion_6_end_to_end_oracle():
    start = time.perf_counter()

    stream, det, gt = generate(block_spec(
        num_segments=5, segment_length=30, noise_sigma=0.0, seed=0))
    result = run_pipeline(stream, det, PipelineConfig())
    assert f_measure(result.segmentation, gt).fmeasure == 1.0

    # calibrated-noise complementarity: one segment too short for the
    # sample-hungry change detector, noise high enough that clustering
    # over-segments, and the fused result at least matches both
    wins = 0
    ac_scores, adw_scores, fused_scores = [], [], []
    for seed in range(10):
        spec = block_spec(num_segments=5, segment_length=(35, 35, 10, 35, 35),
                          contextual_dim=20, noise_sigma=0.11, seed=seed)
        stream, det, gt = generate(spec)
        result = run_pipeline(stream, det, PipelineConfig())
        fm_ac = f_measure(result.seg_ac, gt).fmeasure
        fm_adw = f_measure(result.seg_adw, gt).fmeasure
        fm_fused = f_measure(result.segmentation, gt).fmeasure
        ac_scores.append(fm_ac)
        adw_scores.append(fm_adw)
        fused_scores.append(fm_fused)
        if fm_fused >= fm_ac and fm_fused >= fm_adw:
            wins += 1
    assert all(fm <= 0.8 for fm in ac_scores), "noise must over-segment the clustering pass"
    assert wins >= 8, f"fusion beat both candidates on only {wins}/10 seeds"
    print(f"\n  fused {np.mean(fused_scores):.3f} vs AC {np.mean(ac_scores):.3f} "
          f"and ADWIN {np.mean(adw_scores):.3f}; wins {wins}/10")

    _report(6, "end-to-end synthetic oracle", start, 120)


def test_criterion_7_semantic_features():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    pool = [f"tag{i}" for i in range(12)]
    for _ in range(100):
        frames = []
        for _ in range(int(rng.integers(1, 8))):
            chosen = rng.choice(12, size=int(rng.integers(0, 5)), replace=False)
            frames.append(tuple((pool[c], float(rng.uniform())) for c in chosen))
        det = ConceptDetections(frames=tuple(frames))
        if not det.unique_tags():
            continue
        vocab = cluster_concepts(build_concept_graph(det, ExactMatchProvider()),
                                 int(rng.integers(1, 15)))
        raw = brute_semantic_matrix(det.frames, [set(c.members) for c in vocab.clusters])
        expected = raw / raw.max() if raw.max() > 0 else raw
        np.testing.assert_allclose(assemble_semantic_features(det, vocab),
                                   expected, atol=1e-12)

    constant = np.full((60, 4), 0.37)
    np.testing.assert_allclose(smooth_temporal(constant, 3.0), constant, atol=1e-12)

    m = rng.uniform(0, 1, size=(50, 8))
    m[:, 2] = 0.5
    m[:, 5] = np.clip(0.4 + 0.01 * rng.normal(size=50), 0, 1)
    threshold = 0.05
    _, kept = prune_low_variance(m, threshold)
    assert kept == [j for j in range(8) if m[:, j].std() >= threshold]

    _report(7, "semantic features", start, 5)


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    spec = block_spec(num_segments=4, segment_length=20, noise_sigma=0.05, seed=11)
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    data = tmp_path / "data"
    assert main(["synth", str(spec_path), "--outdir", str(data)]) == 0

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"seg_{run}.json"
        dump = tmp_path / f"dump_{run}"
        rc = main([
            "segment", str(data / "features.csv"),
            "--detections", str(data / "detections.jsonl"),
            "--seed", "7",
            "--out", str(out),
            "--dump-intermediates", str(dump),
        ])
        assert rc == 0
        outputs.append((out.read_bytes(), sorted(
            (p.name, p.read_bytes()) for p in dump.iterdir())))
    assert outputs[0] == outputs[1]

    _report(8, "byte-identical reruns", start, 60)

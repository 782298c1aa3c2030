"""Per-layer metrics of one traced pass, and the output checks they need.

Times are per pass and summed over every call of a stage (a sweep runs
each stage once per configuration). Counts, F-measures and energies come
from one pipeline call: the only one, or on a sweep the call of the
best-ranked configuration.
"""

from __future__ import annotations

from tracing import CLI, PIPE, Tracer


class CheckFailed(Exception):
    """The program's output broke a property the benchmark checks."""


def check_starts(starts, n: int) -> list[int]:
    """Segment starts of a valid segmentation of n frames, as plain ints."""
    starts = [int(s) for s in starts]
    if not starts or starts[0] != 0 or starts[-1] >= n:
        raise CheckFailed(f"starts do not partition {n} frames: {starts[:5]}...")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise CheckFailed("starts are not strictly increasing")
    return starts


def boundary_f(pred_starts, true_starts, tolerance: int = 5) -> float:
    """Boundary F-measure: each predicted boundary, in order, takes the
    earliest unmatched true boundary within the tolerance."""
    truth = sorted(true_starts[1:])
    tp = g = 0
    for p in sorted(pred_starts[1:]):
        while g < len(truth) and truth[g] < p - tolerance:
            g += 1
        if g < len(truth) and truth[g] <= p + tolerance:
            tp += 1
            g += 1
    predicted = len(pred_starts) - 1
    if tp == 0:
        return 0.0
    precision, recall = tp / predicted, tp / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def _config_of(span):
    return span.args[2] if len(span.args) > 2 else span.kwargs["config"]


def _energies(call: dict) -> tuple[float, float, float]:
    """Energy of the fused labelling and of the two candidates' labellings."""
    from photoseg.graphcut import labeling_energy, labeling_from_segmentation

    ls, unary_ac, unary_adw, stream, params = call[f"{PIPE}.minimize"].args
    fused = call["photoseg.graphcut.minimize_labels"].result
    return tuple(
        labeling_energy(labels, unary_ac, unary_adw, stream, params)
        for labels in (fused, labeling_from_segmentation(ls.seg_ac, ls),
                       labeling_from_segmentation(ls.seg_adw, ls))
    )


def layer_metrics(tracer: Tracer, truth: list[int], input_mb: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass; raises CheckFailed when
    the chain optimum loses to a candidate or an F-measure disagrees."""
    spans = tracer.spans
    own = tracer.self_seconds()

    def total(*names):
        return sum(s.seconds for s in spans if s.name in names)

    def self_total(*names):
        return sum(t for s, t in zip(spans, own) if s.name in names)

    roots = [i for i, s in enumerate(spans)
             if s.name in (f"{CLI}.run_pipeline", f"{PIPE}.run_pipeline")]
    calls = [{spans[j].name: spans[j] for j in tracer.descendants(i)} for i in roots]
    results = [spans[i].result for i in roots]

    chosen = 0
    sweeps = [s for s in spans if s.name == f"{PIPE}.grid_search"]
    if sweeps:
        best = sweeps[0].result[0].params
        chosen = next(k for k, i in enumerate(roots)
                      if all(_config_of(spans[i]).to_dict()[p] == v for p, v in best.items()))

    # the chain DP is exact for radius 1, so no candidate labelling may beat it
    energies = {}
    for k, call in enumerate(calls):
        exact = call[f"{PIPE}.minimize"].args[4].radius == 1
        if exact or k == chosen:
            energies[k] = _energies(call)
        if exact:
            fused, ac, adw = energies[k]
            if fused > min(ac, adw) + 1e-9 * max(1.0, abs(fused)):
                raise CheckFailed(f"radius-1 chain optimum {fused} above a candidate "
                                  f"labelling (ac {ac}, adwin {adw})")
    scores = [s.result for s in spans if s.name == f"{PIPE}.f_measure"]
    for result, score in zip(results, scores):
        own_f = boundary_f(result.segmentation.starts, truth)
        if abs(own_f - score.fmeasure) > 1e-12:
            raise CheckFailed(f"program F {score.fmeasure} disagrees with {own_f}")

    call, result = calls[chosen], results[chosen]

    graph = call[f"{PIPE}.build_concept_graph"]
    meanings = [len(graph.args[1].meanings(t)) for t in graph.result.tags]
    clusters = call[f"{PIPE}.cluster_concepts"].result.size
    _, kept = call[f"{PIPE}.prune_low_variance"].result
    labels = result.segmentation
    space = call[f"{PIPE}.build_label_space"].result
    energy_fused, energy_ac, energy_adwin = energies[chosen]

    keyed = [s for s in spans if s.key is not None]
    seen, recomputed = set(), 0.0
    for s in keyed:
        if s.key in seen:
            recomputed += s.seconds
        seen.add(s.key)

    return {
        "datamodel.load_s": total(f"{CLI}.load_feature_stream", f"{CLI}.load_concept_detections"),
        "datamodel.save_s": total(f"{CLI}.save_segmentation"),
        "datamodel.input_mb": input_mb,
        "semantic.graph_s": total(f"{PIPE}.build_concept_graph"),
        "semantic.tags": graph.result.num_tags,
        "semantic.meaning_pairs": (sum(meanings) ** 2 - sum(m * m for m in meanings)) // 2,
        "semantic.vocab_s": total(f"{PIPE}.cluster_concepts"),
        "semantic.clusters": clusters,
        "semantic.features_s": total(f"{PIPE}.assemble_semantic_features",
                                     f"{PIPE}.smooth_temporal", f"{PIPE}.prune_low_variance"),
        "semantic.kept_share": len(kept) / clusters,
        "fusion.s": total(f"{PIPE}.signed_root_normalize", f"{PIPE}.fuse"),
        "fusion.dim": call[f"{PIPE}.fuse"].result.shape[1],
        "agglo.s": total(f"{PIPE}.cluster_frames"),
        "agglo.distance_s": self_total("photoseg.agglo.cosine_distance_matrix"),
        "agglo.linkage_s": self_total("photoseg.agglo.linkage_merge_sequence"),
        "agglo.cut_s": self_total("photoseg.agglo.cut_merge_sequence"),
        "agglo.segments": result.seg_ac.num_segments,
        "agglo.f": boundary_f(result.seg_ac.starts, truth),
        "adwin.s": total(f"{PIPE}.rescale_to_unit", f"{PIPE}.detect_changes"),
        "adwin.segments": result.seg_adw.num_segments,
        "adwin.f": boundary_f(result.seg_adw.starts, truth),
        "graphcut.label_space_s": total(f"{PIPE}.build_label_space"),
        "graphcut.unary_s": total(f"{PIPE}.unary_energies"),
        "graphcut.minimize_s": total(f"{PIPE}.minimize"),
        "graphcut.labels": space.num_labels,
        "graphcut.dp_cells": labels.n * space.num_labels,
        "graphcut.label_use": labels.num_segments / space.num_labels,
        "graphcut.energy_fused": energy_fused,
        "graphcut.energy_ac": energy_ac,
        "graphcut.energy_adwin": energy_adwin,
        "graphcut.f": boundary_f(labels.starts, truth),
        "evaluate.s": total(f"{PIPE}.f_measure"),
        "pipeline.glue_s": self_total(f"{CLI}.run_pipeline", f"{PIPE}.run_pipeline",
                                      f"{PIPE}.grid_search"),
        "pipeline.recomputed_share": recomputed / sum(s.seconds for s in keyed),
    }

"""Command-line entry points for the segmentation toolkit.

Subcommands mirror the pipeline stages::

    photoseg vocab       build the day's concept vocabulary
    photoseg featurize   semantic feature matrix from detections
    photoseg segment     full pipeline on a feature/detections pair
    photoseg evaluate    score one segmentation file against another
    photoseg gridsearch  sweep hyper-parameters against ground truth
    photoseg synth       materialize a synthetic fixture

Exit code 0 on success, 2 on any validation error and on any input or
output file that cannot be opened, read or decoded as UTF-8 (a missing
file, a directory, a non-UTF-8 byte).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .datamodel import (
    ValidationError,
    load_concept_detections,
    load_feature_stream,
    load_segmentation,
    read_json_object,
    report_csv_header,
    report_csv_row,
    save_concept_detections,
    save_feature_stream,
    save_segmentation,
)
from .evaluate import MatchParams, evaluate_pair
from .pipeline import PipelineConfig, config_keys, grid_rows_to_csv, grid_search, run_pipeline
from .semantic import (
    ExactMatchProvider,
    FileSimilarityProvider,
    SemanticVocabulary,
    assemble_semantic_features,
    build_concept_graph,
    cluster_concepts,
    prune_low_variance,
    smooth_temporal,
)
from .synth import SynthSpec, generate


# one --<key-with-dashes> flag per flat config key; the grid comes from a
# file and semantic processing is switched off by --no-semantic instead
_FLAG_KEYS = tuple(key for key in config_keys() if key not in ("grid", "semantic_enabled"))


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    overrides = {key: getattr(args, key) for key in _FLAG_KEYS
                 if getattr(args, key) is not None}
    if args.no_semantic:
        overrides["semantic_enabled"] = False
    return config.override(**overrides) if overrides else config


def _provider(args):
    if getattr(args, "similarity", None):
        return FileSimilarityProvider.from_file(args.similarity)
    return ExactMatchProvider()


def _add_config_flags(sub):
    sub.add_argument("--config", help="JSON pipeline configuration file")
    keys = config_keys()
    for key in _FLAG_KEYS:
        sub.add_argument("--" + key.replace("_", "-"), type=keys[key][0])
    sub.add_argument("--no-semantic", dest="no_semantic", action="store_true")


def _cmd_vocab(args) -> int:
    detections = load_concept_detections(args.detections)
    config = _load_config(args)
    graph = build_concept_graph(detections, _provider(args))
    vocab = cluster_concepts(graph, config.vocab_size, seed=config.seed)
    vocab.save(args.out)
    print(f"wrote {vocab.size} concept clusters to {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    detections = load_concept_detections(args.detections)
    config = _load_config(args)
    if args.vocab:
        vocab = SemanticVocabulary.load(args.vocab)
    else:
        graph = build_concept_graph(detections, _provider(args))
        vocab = cluster_concepts(graph, config.vocab_size, seed=config.seed)
    matrix = assemble_semantic_features(detections, vocab)
    matrix = smooth_temporal(matrix, config.bandwidth)
    matrix, kept = prune_low_variance(matrix, config.variance_threshold)
    np.savetxt(args.out, matrix, delimiter=",")
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} semantic matrix to {args.out} "
          f"(kept columns {kept})")
    return 0


def _cmd_segment(args) -> int:
    features = load_feature_stream(args.features, format=args.format)
    detections = load_concept_detections(args.detections) if args.detections else None
    config = _load_config(args)
    result = run_pipeline(features, detections, config,
                          provider=_provider(args),
                          dump_dir=args.dump_intermediates)
    save_segmentation(result.segmentation, args.out)
    print(f"wrote segmentation with {result.segmentation.num_segments} segments to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    pred = load_segmentation(args.pred)
    gt = load_segmentation(args.gt)
    report = evaluate_pair(pred, gt, MatchParams(tolerance=args.tolerance))
    if args.csv:
        print(report_csv_header())
        print(report_csv_row(report))
    else:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    if args.out:
        with Path(args.out).open("w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_gridsearch(args) -> int:
    features = load_feature_stream(args.features, format=args.format)
    detections = load_concept_detections(args.detections) if args.detections else None
    gt = load_segmentation(args.gt)
    config = _load_config(args)
    if args.grid:
        config = config.override(grid=read_json_object(args.grid))
    rows = grid_search(features, detections, gt, config, provider=_provider(args))
    csv_text = grid_rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    print(csv_text, end="")
    best = rows[0]
    print(f"best: {best.params} fmeasure={best.fmeasure:.4f}", file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec.from_file(args.spec)
    stream, detections, gt = generate(spec)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_feature_stream(stream, outdir / "features.csv", format="csv")
    save_concept_detections(detections, outdir / "detections.jsonl")
    save_segmentation(gt, outdir / "ground_truth.json")
    print(f"wrote features, detections and ground truth for {spec.n} frames to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photoseg",
        description="Temporal event segmentation for egocentric photo streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="build the day's concept vocabulary")
    p.add_argument("detections", help="JSON-lines concept detections")
    p.add_argument("--similarity", help="JSON meaning-similarity table")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_vocab)

    p = sub.add_parser("featurize", help="semantic feature matrix from detections")
    p.add_argument("detections")
    p.add_argument("--similarity")
    p.add_argument("--vocab", help="reuse a saved vocabulary instead of clustering")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_featurize)

    p = sub.add_parser("segment", help="run the full segmentation pipeline")
    p.add_argument("features", help="contextual feature file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--detections")
    p.add_argument("--similarity")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-intermediates", dest="dump_intermediates",
                   help="directory for per-stage artifacts")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("evaluate", help="score a segmentation against another")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--tolerance", type=int, default=5)
    p.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("gridsearch", help="sweep hyper-parameters against ground truth")
    p.add_argument("features")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--detections")
    p.add_argument("--similarity")
    p.add_argument("--gt", required=True)
    p.add_argument("--grid", help="JSON file mapping parameter names to value lists")
    p.add_argument("--out", help="CSV output path")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_gridsearch)

    p = sub.add_parser("synth", help="generate a synthetic fixture")
    p.add_argument("spec", help="JSON synthetic stream spec")
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

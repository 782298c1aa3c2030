"""End-to-end segmentation pipeline and hyper-parameter grid search.

Stage order: semantic vocabulary from the day's detections, per-frame
concept confidences, temporal smoothing, low-variance pruning, fusion
with the normalized contextual features, the two candidate segmenters
(agglomerative and adaptive windowing), and finally the energy-based
arbitration between them.

Every stage is deterministic given the configuration, so a pipeline run
is reproducible byte for byte. Stage failures carry the stage name.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .adwin import AdwinParams, detect_changes, rescale_to_unit
from .agglo import AggloParams, cluster_frames
from .datamodel import (
    ConceptDetections,
    EvalReport,
    FeatureStream,
    Segmentation,
    ValidationError,
    _as_index,
    _as_number,
    _held,
    read_json_object,
)
from .evaluate import MatchParams, f_measure
from .fusion import fuse, signed_root_normalize
from .graphcut import GcParams, build_label_space, minimize, unary_energies
from .semantic import (
    ExactMatchProvider,
    SemanticVocabulary,
    SimilarityProvider,
    assemble_semantic_features,
    build_concept_graph,
    cluster_concepts,
    prune_low_variance,
    smooth_temporal,
)


class StageError(ValidationError):
    """A pipeline stage failed; carries which one."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the pipeline in one place.

    ``grid`` optionally maps flat parameter names (see ``GRID_PARAMS``) to
    candidate value lists for :func:`grid_search`. Whether the semantic
    half runs is no knob: the inputs decide it (see :func:`run_pipeline`).
    """

    vocab_size: int = 100
    seed: int = 0
    bandwidth: float = 3.0
    variance_threshold: float = 0.05
    blend: float = 0.5
    agglo: AggloParams = field(default_factory=AggloParams)
    adwin: AdwinParams = field(default_factory=AdwinParams)
    gc: GcParams = field(default_factory=GcParams)
    match: MatchParams = field(default_factory=MatchParams)
    grid: Optional[dict] = None

    def __post_init__(self):
        # the rules and messages of the stages that read these values; the
        # stages keep their own checks for library callers
        if self.vocab_size < 1:
            raise ValidationError(f"cluster count must be >= 1, got {self.vocab_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValidationError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if self.variance_threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {self.variance_threshold}")
        if not 0.0 <= self.blend <= 1.0:
            raise ValidationError(f"blend must lie in [0, 1], got {self.blend}")

    @classmethod
    def from_dict(cls, flat: dict) -> "PipelineConfig":
        """Build from flat keys (see :func:`config_keys`). An unknown key or a
        value of the wrong type raises :class:`ValidationError`."""
        keys = config_keys()
        unknown = set(flat) - set(keys)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        parts: dict = {name: {} for _, name in keys.values()}
        for key, value in flat.items():
            kind, part = keys[key]
            parts[part][key] = _checked(key, kind, value)
        hints = _field_types(cls)
        nested = {name: hints[name](**values) for name, values in parts.items() if name}
        return cls(**nested, **parts[None])

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_json_object(path))

    def to_dict(self) -> dict:
        """Flat keys in :func:`config_keys` order; ``grid`` only when set."""
        out = {key: getattr(getattr(self, part) if part else self, key)
               for key, (_, part) in config_keys().items()}
        if not self.grid:
            del out["grid"]
        return out

    def override(self, **flat) -> "PipelineConfig":
        """A copy with flat parameter overrides applied."""
        return PipelineConfig.from_dict({**self.to_dict(), **flat})


@functools.cache
def _field_types(cls) -> dict:
    """``cls``'s resolved field types, read-only; one entry per config class."""
    return get_type_hints(cls)


@functools.cache
def config_keys() -> dict:
    """Every flat config key, in field order, mapped to ``(type, part)``.

    The keys are :class:`PipelineConfig`'s own fields, with each nested
    parameter field replaced by that class's fields; ``part`` names the
    nested field a key belongs to, or is None for a top-level field.
    Read-only.
    """
    hints = _field_types(PipelineConfig)
    keys = {}
    for f in fields(PipelineConfig):
        kind = hints[f.name]
        if is_dataclass(kind):
            keys.update({g.name: (_field_types(kind)[g.name], f.name) for g in fields(kind)})
        else:
            keys[f.name] = (kind, None)
    return keys


def _checked(name: str, kind, value):
    """``value`` checked against the field type ``kind``.

    Integer fields go through :func:`_as_index`, float fields through
    :func:`_as_number` but keep their value as given (an int stays one in
    ``to_dict``); any other field must be an instance of its type.
    """
    if kind is int:
        return _as_index(value, f"config value {name!r}")
    if kind is float:
        _as_number(value, f"config value {name!r}")
    elif not isinstance(value, get_args(kind) or kind):
        allowed = " or ".join(t.__name__ for t in get_args(kind) or (kind,))
        raise ValidationError(f"config value {name!r} must be {allowed}, got {value!r}")
    return value


# declared order for grid expansion and tie-breaking
GRID_PARAMS = ("linkage", "cutoff", "delta", "unary_mix", "pairwise_weight",
               "blend", "bandwidth", "variance_threshold", "softmax_temp", "radius")


@dataclass
class PipelineResult:
    """Final segmentation plus every intermediate worth inspecting."""

    segmentation: Segmentation
    seg_ac: Segmentation
    seg_adw: Segmentation
    fused: np.ndarray
    semantic: Optional[np.ndarray] = None
    kept_concepts: Optional[list[int]] = None
    vocabulary: Optional[SemanticVocabulary] = None


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except ValidationError as exc:
        raise StageError(name, str(exc)) from exc


def _adwin_candidate(fused: np.ndarray, params: AdwinParams) -> Segmentation:
    return detect_changes(rescale_to_unit(fused), params)


# the flat config keys build_vocabulary reads
VOCABULARY_KEYS = ("vocab_size", "seed")


def build_vocabulary(detections: ConceptDetections, config: PipelineConfig,
                     provider: Optional[SimilarityProvider] = None) -> SemanticVocabulary:
    """The day's concept vocabulary, as the stage "vocabulary".

    The similarity provider defaults to exact tag matching, which degrades
    the vocabulary to one cluster per distinct tag while ``vocab_size`` is
    at least the number of distinct tags; past that, the tag graph is all
    zero and its clusters are arbitrary (the all-zero tag graph defect in
    ROADMAP.md's open items).
    """
    prov = provider if provider is not None else ExactMatchProvider()
    graph = _stage("vocabulary", build_concept_graph, detections, prov)
    return _stage("vocabulary", cluster_concepts, graph, config.vocab_size, seed=config.seed)


# the flat config keys semantic_features reads, with those of its vocabulary
FEATURE_KEYS = VOCABULARY_KEYS + ("bandwidth", "variance_threshold")


def semantic_features(detections: ConceptDetections, vocab: SemanticVocabulary,
                      config: PipelineConfig) -> tuple[np.ndarray, list[int]]:
    """Per-frame concept confidences over ``vocab``, smoothed in time and
    with low-variance columns pruned, plus the kept column indices. The
    unpruned matrices go out of scope here, before fusion."""
    raw = _stage("semantic", assemble_semantic_features, detections, vocab)
    smoothed = _stage("smoothing", smooth_temporal, raw, config.bandwidth)
    return _stage("pruning", prune_low_variance, smoothed, config.variance_threshold)


def run_pipeline(features: FeatureStream,
                 detections: Optional[ConceptDetections],
                 config: PipelineConfig = PipelineConfig(),
                 provider: Optional[SimilarityProvider] = None,
                 *, memo: Optional[dict] = None) -> PipelineResult:
    """Segment one day-long stream.

    ``detections``, when given, must have one entry per frame. The
    pipeline runs on contextual features alone when it is None or no
    frame has a tag, and adds the semantic features otherwise. The
    similarity provider defaults as in :func:`build_vocabulary`.

    ``memo`` holds the tables shared by runs on the same inputs, keyed as
    :func:`grid_search` lists; by default a fresh dict. It refuses, with
    :class:`ValidationError`, a run on other ``features``, ``detections``
    or ``provider`` objects than its first. Features and detections are
    immutable; a provider changed in place goes unseen.
    """
    memo = {} if memo is None else memo
    inputs = (features, detections, provider)
    if any(a is not b for a, b in zip(memo.setdefault("inputs", inputs), inputs)):
        raise ValidationError("memo holds results for other features, detections "
                              "or similarity provider")
    n = features.n
    vocab: Optional[SemanticVocabulary] = None

    if detections is not None and detections.n != n:
        raise StageError(
            "semantic", f"feature stream has {n} frames but detections have {detections.n}"
        )
    use_semantic = detections is not None and any(detections.frames)

    if use_semantic:
        vocab = build_vocabulary(detections, config, provider)
        semantic_matrix, kept = semantic_features(detections, vocab, config)
    else:
        semantic_matrix, kept = np.zeros((n, 0)), []

    contextual = _stage("fusion", signed_root_normalize, features.contextual)
    fused = _stage("fusion", fuse, contextual, semantic_matrix, config.blend)
    # nothing below reads the blocks fusion consumed
    del contextual

    # every top-level value but the grid; a new one only adds misses
    key = tuple(getattr(config, name) for name, (_, part) in config_keys().items()
                if part is None and name != "grid")
    # the merge tables by linkage of this fused matrix, built by the
    # first cut that needs one
    seg_ac = _held(memo, (key, config.agglo), _stage, "agglomerative", cluster_frames, fused,
                   config.agglo, merge_tables=memo.setdefault((key, "merge tables"), {}))
    seg_adw = _held(memo, (key, config.adwin), _stage, "adwin", _adwin_candidate, fused,
                    config.adwin)

    ls = _stage("graphcut", build_label_space, seg_ac, seg_adw, fused)
    # the unary tables read the fused matrix, the label space (a function
    # of it and both candidates) and softmax_temp. One pair is held: the
    # old one goes before a new one is built, which would otherwise raise
    # the peak memory by one pair
    unary_key = (key, seg_ac, seg_adw, config.gc.softmax_temp)
    if unary_key not in memo.get("unaries", {}):
        memo["unaries"] = {}
    unary_ac, unary_adw = _held(memo["unaries"], unary_key, _stage, "graphcut",
                                unary_energies, ls, fused, config.gc)
    # the pair-energy tables by effective radius of this fused matrix
    final = _stage("graphcut", minimize, ls, unary_ac, unary_adw, fused, config.gc,
                   pair_tables=memo.setdefault((key, "pair tables"), {}))

    return PipelineResult(
        segmentation=final,
        seg_ac=seg_ac,
        seg_adw=seg_adw,
        fused=fused,
        semantic=semantic_matrix if use_semantic else None,
        kept_concepts=kept if use_semantic else None,
        vocabulary=vocab,
    )


@dataclass
class GridRow:
    params: dict
    report: EvalReport

    @property
    def fmeasure(self) -> float:
        return self.report.fmeasure


def grid_search(features: FeatureStream,
                detections: Optional[ConceptDetections],
                gt: Segmentation,
                config: PipelineConfig,
                provider: Optional[SimilarityProvider] = None) -> list[GridRow]:
    """Evaluate the Cartesian product of the configured grid lists.

    Rows come back sorted by F-measure descending; ties keep the row-major
    enumeration order over ``GRID_PARAMS``, so results are reproducible.

    Every configuration runs the full pipeline, but one rule shares work
    within this call: a table is looked up by what it reads, or built,
    made read-only and stored (:func:`~photoseg.datamodel._held`). The
    inputs are fixed, so the top-level config values key the fused matrix
    (``agglo``, ``adwin`` and ``gc`` act after fusion, ``match`` only in
    scoring). Each candidate segmentation is keyed by that key and its own
    parameters; the agglomerative merge table by that key and ``linkage``,
    so each cutoff only cuts it; the chain DP's pair-energy table by that
    key and effective radius; the unary pair by that key, both candidate
    segmentations and ``softmax_temp``, and only the last pair is held.
    Nothing is kept across calls.
    """
    if not config.grid:
        raise ValidationError("configuration declares no grid")
    unknown = set(config.grid) - set(GRID_PARAMS)
    if unknown:
        raise ValidationError(f"grid keys not sweepable: {sorted(unknown)}")
    names = [p for p in GRID_PARAMS if p in config.grid]
    for p in names:
        if not isinstance(config.grid[p], list) or not config.grid[p]:
            raise ValidationError(
                f"grid value for {p!r} must be a non-empty list, got {config.grid[p]!r}")

    rows: list[GridRow] = []
    memo: dict = {}
    for combo in itertools.product(*(config.grid[p] for p in names)):
        overrides = dict(zip(names, combo))
        run_config = config.override(**overrides)
        result = run_pipeline(features, detections, run_config, provider=provider, memo=memo)
        report = f_measure(result.segmentation, gt, config.match)
        rows.append(GridRow(params=overrides, report=report))
    rows.sort(key=lambda r: -r.fmeasure)   # stable: ties keep declared order
    return rows


def grid_rows_to_csv(rows: list[GridRow]) -> str:
    """Plot-ready CSV table of a grid search, one row per configuration."""
    if not rows:
        return ""
    names = list(rows[0].params)
    lines = [",".join(names + ["precision", "recall", "fmeasure", "tp", "fp", "fn"])]
    for row in rows:
        r = row.report
        lines.append(",".join(
            [str(row.params[p]) for p in names]
            + [repr(r.precision), repr(r.recall), repr(r.fmeasure),
               str(r.tp), str(r.fp), str(r.fn)]
        ))
    return "\n".join(lines) + "\n"

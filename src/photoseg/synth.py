"""Deterministic generator of piecewise-stationary streams with known truth.

Each synthetic day is a sequence of stationary segments: contextual rows
are the segment mean plus seeded Gaussian noise, and every frame of a
segment reports that segment's active concepts with the base confidence
plus clamped noise. The ground-truth segmentation is the spec itself, so
end-to-end behaviour can be scored without any real dataset.

Generation is a pure function of the spec, including its seed: the same
spec yields bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import (
    ConceptDetections,
    FeatureStream,
    Segmentation,
    ValidationError,
    _as_index,
    _as_number,
    read_json_object,
    write_json_object,
)


@dataclass(frozen=True)
class SegmentSpec:
    """One stationary stretch: its length, contextual mean, and the
    concepts visible throughout it with their base confidences."""

    length: int
    contextual_mean: tuple[float, ...]
    concepts: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "length", _as_index(self.length, "segment length"))
        if self.length < 1:
            raise ValidationError(f"segment length must be >= 1, got {self.length}")
        object.__setattr__(self, "contextual_mean", tuple(
            _as_number(x, "contextual mean entry") for x in self.contextual_mean))
        # the tags are checked where generate() builds ConceptDetections
        object.__setattr__(self, "concepts", tuple(
            (t, _as_number(c, f"confidence of concept {t!r}")) for t, c in self.concepts))


@dataclass(frozen=True)
class SynthSpec:
    n: int
    segments: tuple[SegmentSpec, ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, rule in (("n", _as_index), ("noise_sigma", _as_number), ("seed", _as_index)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        total = sum(s.length for s in self.segments)
        if total != self.n:
            raise ValidationError(
                f"segment lengths sum to {total}, expected n={self.n}"
            )
        dims = {len(s.contextual_mean) for s in self.segments}
        if len(dims) > 1:
            raise ValidationError("all contextual means must share one dimension")

    @classmethod
    def from_file(cls, path: str | Path) -> "SynthSpec":
        obj = read_json_object(path)
        try:
            segments = tuple(
                SegmentSpec(
                    length=s["length"],
                    contextual_mean=tuple(s["contextual_mean"]),
                    concepts=tuple(sorted(s.get("concepts", {}).items())),
                )
                for s in obj["segments"]
            )
            return cls(n=obj["n"], segments=segments, noise_sigma=obj.get("noise_sigma", 0.0),
                       seed=obj.get("seed", 0))
        except KeyError as exc:
            raise ValidationError(f"synth spec missing field {exc}") from None
        except (TypeError, AttributeError) as exc:   # a value of another JSON type
            raise ValidationError(f"{path}: malformed synth spec ({exc})") from None

    def save(self, path: str | Path) -> None:
        obj = {
            "n": self.n,
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
            "segments": [
                {
                    "length": s.length,
                    "contextual_mean": list(s.contextual_mean),
                    "concepts": dict(s.concepts),
                }
                for s in self.segments
            ],
        }
        write_json_object(path, obj)


def generate(spec: SynthSpec) -> tuple[FeatureStream, ConceptDetections, Segmentation]:
    """Materialize a spec into a stream, detections, and its ground truth."""
    rng = np.random.default_rng(spec.seed)
    rows = []
    det_frames = []
    starts = []
    cursor = 0
    for seg in spec.segments:
        starts.append(cursor)
        mean = np.asarray(seg.contextual_mean, dtype=np.float64)
        for _ in range(seg.length):
            noise = rng.normal(0.0, spec.noise_sigma, mean.shape) if spec.noise_sigma else 0.0
            rows.append(mean + noise)
            frame_tags = []
            for tag, base in seg.concepts:
                jitter = rng.normal(0.0, spec.noise_sigma) if spec.noise_sigma else 0.0
                frame_tags.append((tag, float(np.clip(base + jitter, 0.0, 1.0))))
            det_frames.append(tuple(frame_tags))
        cursor += seg.length
    stream = FeatureStream(contextual=np.asarray(rows, dtype=np.float64))
    detections = ConceptDetections(frames=tuple(det_frames))
    return stream, detections, Segmentation(spec.n, tuple(starts))


def block_spec(num_segments: int = 5, segment_length: int | tuple[int, ...] = 30,
               contextual_dim: int = 12, concepts_per_segment: int = 2,
               noise_sigma: float = 0.0, seed: int = 0) -> SynthSpec:
    """Convenience spec with orthogonal contextual means and disjoint
    concept sets, so segments are perfectly separated at zero noise.

    ``segment_length`` may be a single length or one per segment; a short
    segment among long ones is the classic case a sample-hungry change
    detector misses while clustering still sees it.
    """
    if contextual_dim < num_segments:
        raise ValidationError("need contextual_dim >= num_segments for orthogonal means")
    if isinstance(segment_length, int):
        lengths = (segment_length,) * num_segments
    else:
        lengths = tuple(segment_length)
        if len(lengths) != num_segments:
            raise ValidationError("need one length per segment")
    segments = []
    for s in range(num_segments):
        mean = np.zeros(contextual_dim)
        mean[s] = 1.0
        concepts = tuple(
            (f"concept_{s}_{k}", 0.8 - 0.2 * k / max(1, concepts_per_segment - 1))
            for k in range(concepts_per_segment)
        )
        segments.append(SegmentSpec(lengths[s], tuple(mean), concepts))
    return SynthSpec(n=sum(lengths), segments=tuple(segments),
                     noise_sigma=noise_sigma, seed=seed)

"""Core types shared by every pipeline stage, plus all on-disk formats.

Values are immutable after construction and safe to share across threads.
Loaders are single threaded and validate eagerly, so a value that exists
is a value that satisfies its invariants.

File formats
------------
contextual features   CSV (one frame per row) or JSON lines
                      ``{"id": ..., "vector": [...]}``
concept detections    JSON lines ``{"id": ..., "tags": [{"tag": ...,
                      "confidence": ...}]}``
segmentation          JSON ``{"n": ..., "starts": [...]}``
evaluation report     JSON object or a CSV row (see ``report_csv_row``)
"""

from __future__ import annotations

import csv
import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """An input file or constructed value violates its contract."""


def _as_index(value, what: str) -> int:
    """``value`` as an int: ints, numpy integers and integral floats pass;
    fractional, non-finite, boolean and non-numeric values are rejected."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not integral or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Segmentation:
    """An ordered partition of ``{0, ..., n-1}`` into contiguous segments.

    Stored as segment start indices: segment ``k`` spans
    ``[starts[k], starts[k+1] - 1]`` and the last segment ends at ``n - 1``.
    ``starts[0]`` is always 0, so the partition invariant is structural.
    """

    n: int
    starts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _as_index(self.n, "segmentation n"))
        if self.n < 1:
            raise ValidationError(f"segmentation needs n >= 1, got n={self.n}")
        starts = tuple(_as_index(s, "segment start") for s in self.starts)
        object.__setattr__(self, "starts", starts)
        if not starts or starts[0] != 0:
            raise ValidationError(f"first segment must start at 0, got starts={starts[:3]}...")
        for a, b in zip(starts, starts[1:]):
            if b <= a:
                raise ValidationError(f"starts must be strictly increasing, got {a} then {b}")
        if starts[-1] >= self.n:
            raise ValidationError(f"start {starts[-1]} out of range for n={self.n}")

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Internal boundaries, i.e. every start except frame 0."""
        return self.starts[1:]

    @property
    def num_segments(self) -> int:
        return len(self.starts)

    def segments(self) -> list[tuple[int, int]]:
        """Inclusive (first, last) frame index per segment."""
        ends = list(self.starts[1:]) + [self.n]
        return [(s, e - 1) for s, e in zip(self.starts, ends)]

    def labels(self) -> np.ndarray:
        """Per-frame segment index, shape (n,)."""
        lengths = np.diff(self.starts, append=self.n)
        return np.repeat(np.arange(self.num_segments, dtype=np.int64), lengths)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Segmentation":
        """Boundaries wherever consecutive entries differ."""
        lab = np.asarray(labels)
        if lab.size == 0:
            raise ValidationError("cannot build a segmentation from zero frames")
        starts = np.flatnonzero(lab[1:] != lab[:-1]) + 1
        return cls(int(lab.size), (0, *starts.tolist()))

    @classmethod
    def from_boundaries(cls, n: int, boundaries: Iterable[int]) -> "Segmentation":
        return cls(n, tuple([0] + sorted(set(int(b) for b in boundaries))))


@dataclass(frozen=True)
class ConceptDetections:
    """Per-frame (tag, confidence) pairs from an external tagger.

    Frames with zero tags are permitted. Within one frame tags are unique
    and confidences lie in [0, 1].
    """

    frames: tuple[tuple[tuple[str, float], ...], ...]
    ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        frames = tuple(tuple((str(t), float(c)) for t, c in fr) for fr in self.frames)
        object.__setattr__(self, "frames", frames)
        for i, fr in enumerate(frames):
            seen = set()
            for tag, conf in fr:
                if tag in seen:
                    raise ValidationError(f"frame {i}: duplicate tag {tag!r}")
                seen.add(tag)
                if not 0.0 <= conf <= 1.0:
                    raise ValidationError(
                        f"frame {i}: confidence {conf} for tag {tag!r} outside [0, 1]"
                    )
        if self.ids is not None and len(self.ids) != len(frames):
            raise ValidationError("ids and frames length mismatch")

    @property
    def n(self) -> int:
        return len(self.frames)

    def unique_tags(self) -> list[str]:
        """All distinct tags observed in the stream, sorted."""
        return sorted({tag for fr in self.frames for tag, _ in fr})


@dataclass(frozen=True)
class FeatureStream:
    """Ordered per-frame contextual feature vectors for one day-long sequence.

    ``contextual`` has shape (n, d_c) with d_c >= 1 and finite entries. The
    stream holds its own read-only float64 copy, so later writes to the
    caller's array do not reach it. ``ids`` optionally names each row,
    such as by the photo's filename. The semantic and fused blocks built
    from it live on the pipeline's result.
    """

    contextual: np.ndarray
    ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        rows = np.array(self.contextual, dtype=np.float64)
        rows.flags.writeable = False
        object.__setattr__(self, "contextual", rows)
        if self.contextual.ndim != 2:
            raise ValidationError("contextual features must be a 2-d array")
        if self.contextual.shape[0] == 0:
            raise ValidationError("feature stream is empty")
        if self.contextual.shape[1] == 0:
            raise ValidationError("feature vectors have zero width")
        finite = np.isfinite(self.contextual)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValidationError(
                f"row {row}, column {col}: non-finite contextual value "
                f"{self.contextual[row, col]}"
            )
        if self.ids is not None and len(self.ids) != self.n:
            raise ValidationError("ids and rows length mismatch")

    @property
    def n(self) -> int:
        return self.contextual.shape[0]

    @property
    def contextual_dim(self) -> int:
        return self.contextual.shape[1]


@dataclass(frozen=True)
class EvalReport:
    """Boundary detection scores plus segmentation consistency errors.

    ``gce``/``lce`` are None when only the F-measure half was computed.
    """

    precision: float
    recall: float
    fmeasure: float
    tp: int
    fp: int
    fn: int
    gce: Optional[float] = None
    lce: Optional[float] = None

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValidationError("boundary counts must be non-negative")
        if self.gce is not None and self.lce is not None:
            if self.lce > self.gce + 1e-9:
                raise ValidationError(
                    f"lce={self.lce} cannot exceed gce={self.gce}"
                )

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "fmeasure": self.fmeasure,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "gce": self.gce,
            "lce": self.lce,
        }


# ---------------------------------------------------------------- loaders

def _parse_float(cell: str, row: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValidationError(f"row {row}, column {col}: non-numeric cell {cell!r}") from None


@contextmanager
def _decoding(path: str | Path):
    """Turn a :class:`UnicodeDecodeError` inside the block into a
    :class:`ValidationError` naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json_object(path: str | Path) -> dict:
    """Parse a JSON file whose top level must be an object.

    Malformed JSON, text that is not UTF-8 and any other top-level value
    raise :class:`ValidationError` naming the file.
    """
    with _decoding(path), Path(path).open() as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: malformed JSON at line {exc.lineno} ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return obj


def _parse_json_line(line: str, row: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"row {row}: malformed JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"row {row}: expected a JSON object")
    return obj


def _csv_rows(path: Path) -> list[list[float]]:
    """Every CSV cell through ``float()``, skipping empty lines.

    The fallback for files ``np.loadtxt`` refuses: it also reads quoted
    cells and underscores (``"1.0"``, ``1_0``), and its errors name the
    offending row and column.
    """
    rows = []
    with path.open(newline="") as fh:
        for r, record in enumerate(csv.reader(fh)):
            if record:
                rows.append([_parse_float(c, r, j) for j, c in enumerate(record)])
    return rows


def load_feature_stream(path: str | Path, format: str = "csv") -> FeatureStream:
    """Load contextual feature vectors, one frame per row.

    ``format`` is ``"csv"`` (numeric columns) or ``"jsonl"`` (objects with
    an ``id`` and a ``vector``), whose ids become the stream's ``ids``.
    Row order defines frame order. Raises :class:`ValidationError` on an
    empty file, text that is not UTF-8, a non-numeric or non-finite cell,
    a malformed JSON line, or rows of differing or zero width; the
    non-finite and zero-width errors name the file.
    """
    path = Path(path)
    with _decoding(path):
        if format == "csv":
            try:
                with warnings.catch_warnings():
                    # an empty file warns here; it is rejected below
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                      dtype=np.float64)
            except ValueError:
                rows = _csv_rows(path)
            ids = None
        elif format == "jsonl":
            rows = []
            ids = []
            with path.open() as fh:
                for r, line in enumerate(fh):
                    if not line.strip():
                        continue
                    obj = _parse_json_line(line, r)
                    vec = obj.get("vector")
                    if not isinstance(vec, list):
                        raise ValidationError(f"row {r}: missing or non-list 'vector' field")
                    rows.append([_parse_float(str(c), r, j) for j, c in enumerate(vec)])
                    ids.append(str(obj.get("id", r)))
            ids = tuple(ids)
        else:
            raise ValidationError(f"unknown feature format {format!r}")

    if len(rows) == 0:
        raise ValidationError(f"empty feature file: {path}")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"row {r} has {len(row)} columns, expected {width}")
    try:
        return FeatureStream(contextual=np.asarray(rows, dtype=np.float64), ids=ids)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_feature_stream(stream: FeatureStream, path: str | Path, format: str = "csv") -> None:
    path = Path(path)
    if format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in stream.contextual:
                writer.writerow([repr(float(x)) for x in row])
    elif format == "jsonl":
        with path.open("w") as fh:
            for k, row in enumerate(stream.contextual):
                fid = stream.ids[k] if stream.ids else str(k)
                fh.write(json.dumps({"id": fid, "vector": [float(x) for x in row]}) + "\n")
    else:
        raise ValidationError(f"unknown feature format {format!r}")


def load_concept_detections(path: str | Path) -> ConceptDetections:
    """Load per-frame tag detections from a JSON-lines file.

    One object per frame: ``{"id": ..., "tags": [{"tag": ..., "confidence":
    ...}]}``. Frames with an empty tag list are accepted. A malformed JSON
    line or a tag entry without ``tag`` or ``confidence`` raises
    :class:`ValidationError` naming its row; a file without frames, or
    text that is not UTF-8, one naming the file.
    """
    frames: list[tuple[tuple[str, float], ...]] = []
    ids: list[str] = []
    with _decoding(path), Path(path).open() as fh:
        for r, line in enumerate(fh):
            if not line.strip():
                continue
            obj = _parse_json_line(line, r)
            try:
                frames.append(tuple((str(t["tag"]), float(t["confidence"]))
                                    for t in obj.get("tags", [])))
            except KeyError as exc:
                raise ValidationError(f"row {r}: tag entry missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"row {r}: malformed tag entry ({exc})") from None
            ids.append(str(obj.get("id", r)))
    if not frames:
        raise ValidationError(f"empty detections file: {path}")
    return ConceptDetections(frames=tuple(frames), ids=tuple(ids))


def save_concept_detections(det: ConceptDetections, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for k, fr in enumerate(det.frames):
            fid = det.ids[k] if det.ids else str(k)
            obj = {
                "id": fid,
                "tags": [{"tag": t, "confidence": c} for t, c in fr],
            }
            fh.write(json.dumps(obj) + "\n")


def save_segmentation(seg: Segmentation, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        json.dump({"n": seg.n, "starts": list(seg.starts)}, fh)
        fh.write("\n")


def load_segmentation(path: str | Path) -> Segmentation:
    obj = read_json_object(path)
    try:
        n, starts = obj["n"], obj["starts"]
    except KeyError as exc:
        raise ValidationError(f"segmentation file missing field {exc}") from None
    if not isinstance(starts, list):
        raise ValidationError(f"{path}: 'starts' must be a list, got {starts!r}")
    return Segmentation(n=n, starts=tuple(starts))


def save_report(report: EvalReport, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_report(path: str | Path) -> EvalReport:
    obj = read_json_object(path)
    try:
        fields = {k: obj[k] for k in REPORT_CSV_FIELDS}
    except KeyError as exc:
        raise ValidationError(f"report file missing field {exc}") from None
    try:
        return EvalReport(**fields)
    except TypeError as exc:  # a non-numeric count or score
        raise ValidationError(f"{path}: malformed report ({exc})") from None


REPORT_CSV_FIELDS = ("precision", "recall", "fmeasure", "tp", "fp", "fn", "gce", "lce")


def report_csv_header() -> str:
    return ",".join(REPORT_CSV_FIELDS)


def report_csv_row(report: EvalReport) -> str:
    d = report.to_dict()
    return ",".join("" if d[k] is None else repr(d[k]) if isinstance(d[k], float) else str(d[k])
                    for k in REPORT_CSV_FIELDS)

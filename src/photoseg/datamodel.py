"""Core types shared by every pipeline stage, plus all on-disk formats.

Values are immutable after construction and safe to share across threads.
Loaders are single threaded and validate eagerly, so a value that exists
is a value that satisfies its invariants.

File formats
------------
contextual features   CSV (one frame per row) or JSON lines
                      ``{"id": ..., "vector": [...]}``, told apart by
                      the first non-blank line
concept detections    JSON lines ``{"id": ..., "tags": [{"tag": ...,
                      "confidence": ...}]}``
segmentation          JSON ``{"n": ..., "starts": [...]}``
evaluation report     JSON object or a CSV row (see ``report_csv_row``)

A JSON number must be finite (:func:`_as_number`), and an integer must lie
within int64 (:func:`_as_index`); booleans, strings and ``null`` are not
numbers. CSV cells are text, parsed by ``float()``.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """An input file or constructed value violates its contract."""


def _as_number(value, what: str) -> float:
    """``value`` as a float: finite ints, floats and numpy numbers pass;
    booleans, strings, None, containers, NaN, infinities and ints too large
    for a float are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if isinstance(value, np.generic):
        value = value.item()   # compared below as a Python number, without numpy's casts
    if not abs(value) <= sys.float_info.max:   # false for NaN, ±inf and ints past a float
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return float(value)


def _as_index(value, what: str) -> int:
    """``value`` as an int within int64: ints, numpy integers and integral
    floats pass; fractional, non-finite, boolean and non-numeric values are
    rejected."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not integral or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not -2**63 <= int(value) < 2**63:
        raise ValidationError(f"{what} must be within int64, got {value!r}")
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
        starts = tuple(self.starts)
        # plain ints (not bool, a subclass) need no conversion
        if not all(type(s) is int for s in starts):
            starts = tuple(_as_index(s, "segment start") for s in starts)
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
        return cls(n, tuple([0] + sorted(set(boundaries))))


def _checked_tags(pairs, where: str) -> tuple[tuple[str, float], ...]:
    """One frame's ``(tag, confidence)`` pairs with each confidence through
    :func:`_as_number`; a tag that is not a string or repeats, or a
    confidence outside [0, 1], raises :class:`ValidationError` naming
    ``where``."""
    checked, seen = [], set()
    for tag, conf in pairs:
        if not isinstance(tag, str):
            raise ValidationError(f"{where}: tag {tag!r} is not a string")
        if tag in seen:
            raise ValidationError(f"{where}: duplicate tag {tag!r}")
        seen.add(tag)
        if type(conf) is not float:   # a float needs only the range test, which NaN fails
            conf = _as_number(conf, f"{where}: tag {tag!r} confidence")
        if not 0.0 <= conf <= 1.0:
            raise ValidationError(f"{where}: confidence {conf} for tag {tag!r} outside [0, 1]")
        checked.append((tag, conf))
    return tuple(checked)


@dataclass(frozen=True)
class ConceptDetections:
    """Per-frame (tag, confidence) pairs from an external tagger.

    Frames with zero tags are permitted. Within one frame tags are unique
    strings and confidences are numbers in [0, 1].
    """

    frames: tuple[tuple[tuple[str, float], ...], ...]
    ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        frames = tuple(_checked_tags(fr, f"frame {i}") for i, fr in enumerate(self.frames))
        object.__setattr__(self, "frames", frames)
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
    Counts are integers and every other score a number.
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
        for f in fields(self):
            value, rule = getattr(self, f.name), _as_index if f.type == "int" else _as_number
            if value is not None or f.default is not None:   # gce and lce may be None
                object.__setattr__(self, f.name, rule(value, f"report field {f.name!r}"))
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValidationError("boundary counts must be non-negative")
        if self.gce is not None and self.lce is not None:
            if self.lce > self.gce + 1e-9:
                raise ValidationError(
                    f"lce={self.lce} cannot exceed gce={self.gce}"
                )

    def to_dict(self) -> dict:
        """Every field, in declaration order (the CSV column order too)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------- loaders

@contextmanager
def _decoding(path: str | Path):
    """Turn a :class:`UnicodeDecodeError` inside the block into a
    :class:`ValidationError` naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _json_object(text: str, where: str, lineno: bool = False) -> dict:
    """``text`` as a JSON object. Malformed JSON (at its line when ``lineno``),
    JSON that Python cannot hold (an integer past its digit limit, nesting
    past its recursion limit) or another top-level value raise
    :class:`ValidationError` prefixed with ``where``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        line = f" at line {exc.lineno}" if lineno else ""
        raise ValidationError(f"{where}: malformed JSON{line} ({exc.msg})") from None
    # text is decoded already, so no UnicodeDecodeError (a ValueError) lands here
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: JSON past the parser's limits ({exc})") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    return obj


def read_json_object(path: str | Path) -> dict:
    """Parse a JSON file whose top level must be an object.

    Malformed JSON, JSON that Python cannot hold, text that is not UTF-8
    and any other top-level value raise :class:`ValidationError` naming
    the file.
    """
    with _decoding(path), Path(path).open() as fh:
        return _json_object(fh.read(), str(path), lineno=True)


def write_json_object(path: str | Path, obj: dict) -> None:
    """Write ``obj`` as JSON with sorted keys, indented by two spaces and
    ending in a newline: the inverse of :func:`read_json_object`."""
    with Path(path).open("w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _json_lines(path: str | Path) -> Iterable[tuple[int, str, dict]]:
    """``(row, id, object)`` per non-blank line of a JSON-lines file. Rows
    count every line from 0, and an ``id`` defaults to the row number. A
    malformed line or a non-object raises :class:`ValidationError` naming
    its row, as does JSON that Python cannot hold; text that is not UTF-8,
    one naming the file."""
    with _decoding(path), Path(path).open() as fh:
        for r, line in enumerate(fh):
            if not line.strip():
                continue
            obj = _json_object(line, f"row {r}")
            yield r, str(obj.get("id", r)), obj


def _write_json_lines(path: str | Path, ids: Optional[Sequence[str]],
                      bodies: Iterable[dict]) -> None:
    """Write one JSON object per line: its ``id``, taken from ``ids`` or,
    when there are none, the row number as a string, then the body's keys."""
    with Path(path).open("w") as fh:
        for k, body in enumerate(bodies):
            fh.write(json.dumps({"id": ids[k] if ids else str(k), **body}) + "\n")


def _csv_rows(path: Path) -> list[list[float]]:
    """Every CSV cell through ``float()``, skipping empty lines.

    The fallback for files ``np.loadtxt`` refuses: it also reads quoted
    cells and underscores (``"1.0"``, ``1_0``), and its errors name the
    offending row and column. An error of ``csv`` itself, such as an
    unclosed quote that outgrows its field size limit, names the row.
    """
    rows, r = [], 0
    with path.open(newline="") as fh:
        try:
            for record in csv.reader(fh):
                if record:
                    rows.append(row := [])
                    for j, cell in enumerate(record):
                        try:
                            row.append(float(cell))
                        except ValueError:
                            raise ValidationError(
                                f"row {r}, column {j}: non-numeric cell {cell!r}") from None
                r += 1
        except csv.Error as exc:
            raise ValidationError(f"row {r}: malformed CSV ({exc})") from None
    return rows


def load_feature_stream(path: str | Path) -> FeatureStream:
    """Load contextual feature vectors, one frame per row.

    The file is JSON lines when its first non-blank line starts with
    ``{``: objects with an ``id`` and a ``vector``, whose ids become the
    stream's ``ids``. Otherwise it is CSV with numeric columns. Row order
    defines frame order. Raises :class:`ValidationError` on a file with no
    non-blank line, text that is not UTF-8, a non-numeric or non-finite
    cell, a malformed JSON line, or rows of differing or zero width; the
    empty, non-UTF-8, non-finite and zero-width errors name the file.
    """
    path = Path(path)
    with _decoding(path):
        with path.open() as fh:
            first = next((line for line in fh if line.strip()), "")
        if not first:
            raise ValidationError(f"empty feature file: {path}")
        if first.lstrip().startswith("{"):
            rows, ids = [], []
            for r, fid, obj in _json_lines(path):
                vec = obj.get("vector")
                if not isinstance(vec, list):
                    raise ValidationError(f"row {r}: missing or non-list 'vector' field")
                rows.append([_as_number(c, f"row {r}, column {j}") for j, c in enumerate(vec)])
                ids.append(fid)
            ids = tuple(ids)
        else:
            try:
                # loadtxt warns only on a file without data, rejected above
                rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                  dtype=np.float64)
            except ValueError:
                rows = _csv_rows(path)
            ids = None

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
        _write_json_lines(path, stream.ids,
                          ({"vector": [float(x) for x in row]} for row in stream.contextual))
    else:
        raise ValidationError(f"unknown feature format {format!r}")


def load_concept_detections(path: str | Path) -> ConceptDetections:
    """Load per-frame tag detections from a JSON-lines file.

    One object per frame: ``{"id": ..., "tags": [{"tag": ..., "confidence":
    ...}]}``. Frames with an empty tag list are accepted. A malformed JSON
    line, or a tag entry that is incomplete or breaks the rules of
    :class:`ConceptDetections`, raises :class:`ValidationError` naming its
    row; a file without frames, or text that is not UTF-8, one naming the
    file.
    """
    frames, ids, rows = [], [], []
    for r, fid, obj in _json_lines(path):
        try:
            frames.append(tuple((t["tag"], t["confidence"]) for t in obj.get("tags", [])))
        except KeyError as exc:
            raise ValidationError(f"row {r}: tag entry missing key {exc}") from None
        except TypeError as exc:   # tags or a tag entry of another JSON type
            raise ValidationError(f"row {r}: malformed tag entry ({exc})") from None
        ids.append(fid)
        rows.append(r)
    if not frames:
        raise ValidationError(f"empty detections file: {path}")
    try:
        return ConceptDetections(frames=tuple(frames), ids=tuple(ids))
    except ValidationError:
        for r, fr in zip(rows, frames):   # name the first bad frame by its row
            _checked_tags(fr, f"row {r}")
        raise


def save_concept_detections(det: ConceptDetections, path: str | Path) -> None:
    _write_json_lines(path, det.ids, ({"tags": [{"tag": t, "confidence": c} for t, c in fr]}
                                      for fr in det.frames))


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
        values = {f.name: obj[f.name] for f in fields(EvalReport)}
    except KeyError as exc:
        raise ValidationError(f"report file missing field {exc}") from None
    return EvalReport(**values)


def report_csv_header() -> str:
    return ",".join(f.name for f in fields(EvalReport))


def report_csv_row(report: EvalReport) -> str:
    return ",".join("" if v is None else str(v) for v in report.to_dict().values())

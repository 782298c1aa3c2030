"""Timing spans around photoseg's public functions, set from outside.

The traced run replaces functions on photoseg's module namespaces with
wrappers that record a span (name, start, end, parent) per call, then
puts the originals back. ``src/`` is not edited. A name is patched where
its caller looks it up: ``photoseg.pipeline.cluster_frames`` is the name
``run_pipeline`` calls, while ``photoseg.agglo.linkage_merge_sequence``
is looked up inside the agglo module itself.

A layer's self time is its span's duration minus the time covered by its
child spans and by the tracer's own bookkeeping for them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional

import numpy as np

CLI, PIPE = "photoseg.cli", "photoseg.pipeline"

# Every wrapped function, as "<module>.<attribute>".
TARGETS = (
    f"{CLI}.main",
    f"{CLI}.load_feature_stream",
    f"{CLI}.load_concept_detections",
    f"{CLI}.save_segmentation",
    f"{CLI}.run_pipeline",
    f"{PIPE}.run_pipeline",
    f"{PIPE}.grid_search",
    f"{PIPE}.build_concept_graph",
    f"{PIPE}.cluster_concepts",
    f"{PIPE}.assemble_semantic_features",
    f"{PIPE}.smooth_temporal",
    f"{PIPE}.prune_low_variance",
    f"{PIPE}.signed_root_normalize",
    f"{PIPE}.fuse",
    f"{PIPE}.cluster_frames",
    "photoseg.agglo.cosine_distance_matrix",
    "photoseg.agglo.linkage_merge_sequence",
    "photoseg.agglo.cut_merge_sequence",
    f"{PIPE}.rescale_to_unit",
    f"{PIPE}.detect_changes",
    f"{PIPE}.build_label_space",
    f"{PIPE}.unary_energies",
    f"{PIPE}.minimize",
    "photoseg.graphcut.minimize_labels",
    f"{PIPE}.f_measure",
)

# spans whose direct children are pipeline stages
PIPELINE_SPANS = (f"{CLI}.run_pipeline", f"{PIPE}.run_pipeline", f"{PIPE}.grid_search")

_STAGES_ON_EVERY_WORKLOAD = tuple(
    t for t in TARGETS if not t.startswith(CLI) and t not in PIPELINE_SPANS
    and t != f"{PIPE}.f_measure"
)

# spans that must fire at least once in every traced pass of a workload
EXPECTED = {
    "day": _STAGES_ON_EVERY_WORKLOAD + tuple(t for t in TARGETS if t.startswith(CLI)),
    "concepts": _STAGES_ON_EVERY_WORKLOAD + (f"{PIPE}.run_pipeline",),
    "sweep": _STAGES_ON_EVERY_WORKLOAD + (f"{PIPE}.run_pipeline", f"{PIPE}.grid_search",
                                          f"{PIPE}.f_measure"),
}


class MissingSpanError(RuntimeError):
    """A span the workload relies on never fired, or its target is gone."""


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    args: tuple
    kwargs: dict
    result: Any
    key: Optional[bytes] = None   # input digest, set on pipeline stages only
    book: float = 0.0             # tracer bookkeeping right after this span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one pass. Not thread safe: the pipeline is
    single threaded and so is every pass of the benchmark."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._memo: dict[int, tuple[Any, bytes]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, args, kwargs, None))
            self._stack.append(index)
            span = self.spans[index]
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if (parent is not None and self.spans[parent].name in PIPELINE_SPANS
                    and name not in PIPELINE_SPANS):
                span.key = fingerprint((name, args, kwargs), self._memo)
            span.book = time.perf_counter() - span.end
            return span.result

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(module_name)
                if not callable(getattr(module, attr, None)):
                    raise MissingSpanError(f"trace target {target} no longer exists")
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(target, saved[-1][2]))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def check_fired(self, expected) -> None:
        fired = {s.name for s in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise MissingSpanError(f"expected spans never fired: {', '.join(missing)}")

    def self_seconds(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds + span.book
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def descendants(self, root: int) -> list[int]:
        """Indices of every span below ``root`` (spans are in call order)."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(i)
        return out


def fingerprint(obj: Any, memo: dict) -> bytes:
    """Content digest of a call's inputs; equal inputs give equal digests.

    Objects other than arrays and containers are digested once per pass
    and remembered by identity (the pipeline never mutates its inputs).
    """
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj, memo)
    return h.digest()


def _feed(h, obj: Any, memo: dict) -> None:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, np.generic):
        h.update(f"np:{obj.dtype.str}:{obj.item()!r};".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"nd:{obj.dtype.str}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}:{len(obj)}(".encode())
        for item in obj:
            _feed(h, item, memo)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(f"dict:{len(obj)}(".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key, memo)
            _feed(h, obj[key], memo)
        h.update(b")")
    else:
        if id(obj) not in memo:
            if dataclasses.is_dataclass(obj):
                state = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
            else:
                state = getattr(obj, "__dict__", None) or {"id": id(obj)}
            inner = hashlib.blake2b(type(obj).__qualname__.encode(), digest_size=16)
            _feed(inner, state, memo)
            memo[id(obj)] = (obj, inner.digest())
        h.update(memo[id(obj)][1])

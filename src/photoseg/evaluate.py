"""Segmentation scoring: boundary F-measure and consistency errors.

The F-measure treats the internal segment starts as detected boundaries
and matches them against ground truth within a frame tolerance. GCE and
LCE compare two segmentations of the same stream as annotations, scoring
how far each is from being a refinement of the other; they are the tools
for checking that independent annotators segment a day consistently.
Both are zero against the two trivial segmentations (a single segment,
or one frame per segment), so they complement rather than replace the
F-measure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .datamodel import EvalReport, Segmentation, ValidationError


@dataclass(frozen=True)
class MatchParams:
    tolerance: int = 5

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValidationError(f"tolerance must be >= 0, got {self.tolerance}")


def match_boundaries(predicted: Sequence[int], truth: Sequence[int],
                     tolerance: int) -> tuple[int, int, int]:
    """Greedy one-to-one matching in increasing index order.

    Each predicted boundary takes the earliest still-unmatched true
    boundary within the tolerance. Returns (tp, fp, fn).
    """
    truth = sorted(truth)
    predicted = sorted(predicted)
    tp = 0
    g = 0
    for p in predicted:
        # truth before the tolerance window can never match a later
        # prediction either, so it is safe to skip past it
        while g < len(truth) and truth[g] < p - tolerance:
            g += 1
        if g < len(truth) and truth[g] <= p + tolerance:
            tp += 1
            g += 1
    fp = len(predicted) - tp
    fn = len(truth) - tp
    return tp, fp, fn


def f_measure(pred: Segmentation, gt: Segmentation,
              params: MatchParams = MatchParams()) -> EvalReport:
    """Boundary precision, recall and F-measure under the frame tolerance.

    Frame 0 starts every segmentation and is never counted as a boundary.
    F is 0 when precision and recall are both 0.
    """
    if pred.n != gt.n:
        raise ValidationError(f"frame counts disagree: pred={pred.n}, gt={gt.n}")
    tp, fp, fn = match_boundaries(pred.boundaries, gt.boundaries, params.tolerance)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fm = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(precision=precision, recall=recall, fmeasure=fm,
                      tp=tp, fp=fp, fn=fn)


def local_refinement_error(seg_a: Segmentation, seg_b: Segmentation, i: int) -> float:
    """At frame ``i``, the fraction of A's containing segment that lies
    outside B's containing segment. Zero whenever one segment contains the
    other."""
    profile = _local_error_profile(seg_a, seg_b)
    if not 0 <= i < seg_a.n:
        raise ValidationError(f"frame index {i} out of range for n={seg_a.n}")
    return float(profile[i])


def _local_error_profile(seg_a: Segmentation, seg_b: Segmentation) -> np.ndarray:
    """:func:`local_refinement_error` at every frame, as one array. Its
    frame-count check is the only one its callers have."""
    if seg_a.n != seg_b.n:
        raise ValidationError(f"frame counts disagree: {seg_a.n} vs {seg_b.n}")
    bounds_a = np.asarray(seg_a.segments())
    bounds_b = np.asarray(seg_b.segments())
    la = seg_a.labels()
    lb = seg_b.labels()
    sa, ea = bounds_a[la, 0], bounds_a[la, 1]
    sb, eb = bounds_b[lb, 0], bounds_b[lb, 1]
    len_a = ea - sa + 1
    overlap = np.maximum(0, np.minimum(ea, eb) - np.maximum(sa, sb) + 1)
    return (len_a - overlap) / len_a


def gce(seg_a: Segmentation, seg_b: Segmentation) -> float:
    """Global consistency error: refinement must go one way for the whole
    sequence. Symmetric, in [0, 1], zero iff one segmentation refines the
    other everywhere in the same direction."""
    e_ab, e_ba = _local_error_profile(seg_a, seg_b), _local_error_profile(seg_b, seg_a)
    return float(min(e_ab.sum(), e_ba.sum()) / seg_a.n)


def lce(seg_a: Segmentation, seg_b: Segmentation) -> float:
    """Local consistency error: refinement direction may flip per frame,
    so LCE(A, B) <= GCE(A, B) always."""
    e_ab, e_ba = _local_error_profile(seg_a, seg_b), _local_error_profile(seg_b, seg_a)
    return float(np.minimum(e_ab, e_ba).sum() / seg_a.n)


def trivial_segmentations(n: int) -> tuple[Segmentation, Segmentation]:
    """The two degenerate segmentations that score zero consistency error
    against anything: all frames in one segment, and one frame per segment."""
    return Segmentation(n, (0,)), Segmentation(n, tuple(range(n)))


def evaluate_pair(pred: Segmentation, gt: Segmentation,
                  params: MatchParams = MatchParams()) -> EvalReport:
    """F-measure plus consistency errors in one report."""
    return replace(f_measure(pred, gt, params), gce=gce(pred, gt), lce=lce(pred, gt))


def macro_fmeasure(reports: Sequence[EvalReport]) -> float:
    """Mean F-measure across sequences."""
    if not reports:
        raise ValidationError("no reports to average")
    return float(np.mean([r.fmeasure for r in reports]))

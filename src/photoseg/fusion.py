"""Contextual feature normalization and contextual/semantic fusion.

The raw contextual vectors have a heavy-tailed value distribution that
distorts distance computations; the signed square root flattens it. The
fused representation concatenates the two per-frame blocks after giving
each unit length, with an explicit blend weight, so neither block can
dominate distances merely through its dimensionality or scale.
"""

from __future__ import annotations

import numpy as np

from .datamodel import ValidationError


def signed_root_normalize(x: np.ndarray) -> np.ndarray:
    """Elementwise sign(x) * sqrt(|x|), then L2 normalization.

    Accepts a single vector or a matrix of row vectors. Zero vectors map
    to zero vectors.
    """
    arr = np.asarray(x, dtype=np.float64)
    rooted = np.sign(arr) * np.sqrt(np.abs(arr))
    if rooted.ndim == 1:
        norm = np.linalg.norm(rooted)
        return rooted / norm if norm > 0 else rooted
    if rooted.ndim == 2:
        return unit_rows(rooted)[0]
    raise ValidationError("expected a vector or a matrix of row vectors")


def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m``'s rows scaled to unit L2 norm, and the mask of nonzero rows.

    Rows of norm 0 are copied unchanged (so a ``-0.0`` entry keeps its
    sign); callers that need a defined value for them read the mask.
    """
    norms = np.linalg.norm(m, axis=1)
    out = m.copy()
    nz = norms > 0
    out[nz] = out[nz] / norms[nz, None]
    return out, nz


def fuse(contextual: np.ndarray, semantic: np.ndarray, blend: float = 0.5) -> np.ndarray:
    """Concatenate per-frame contextual and semantic blocks.

    Each block is L2-normalized per frame (zero rows stay zero), then the
    contextual block is scaled by ``1 - blend`` and the semantic block by
    ``blend``. A zero-width semantic block degrades to contextual-only.
    """
    c = np.asarray(contextual, dtype=np.float64)
    s = np.asarray(semantic, dtype=np.float64)
    if c.ndim != 2 or s.ndim != 2:
        raise ValidationError("fuse expects 2-d blocks")
    if c.shape[0] != s.shape[0]:
        raise ValidationError(
            f"row-count mismatch: contextual has {c.shape[0]} frames, semantic {s.shape[0]}"
        )
    if not 0.0 <= blend <= 1.0:
        raise ValidationError(f"blend must lie in [0, 1], got {blend}")
    return np.hstack([(1.0 - blend) * unit_rows(c)[0], blend * unit_rows(s)[0]])

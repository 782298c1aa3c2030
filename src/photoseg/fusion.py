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

# rows per block of a row-wise pass, so its temporaries stay at
# BLOCK_ROWS x width floats however long the stream
BLOCK_ROWS = 128


def signed_root_normalize(x: np.ndarray) -> np.ndarray:
    """Elementwise sign(x) * sqrt(|x|), then L2 normalization.

    Accepts a single vector or a matrix of row vectors. Zero vectors map
    to zero vectors.
    """
    arr = np.asarray(x, dtype=np.float64)
    # sign(x) * sqrt(|x|) in one buffer; copysign keeps the sign of -0.0,
    # which sign() maps to +0.0, until the added 0.0 clears it
    rooted = np.abs(arr)
    np.sqrt(rooted, out=rooted)
    np.copysign(rooted, arr, out=rooted)
    rooted += 0.0
    if rooted.ndim not in (1, 2):
        raise ValidationError("expected a vector or a matrix of row vectors")
    return unit_rows(np.atleast_2d(rooted)).reshape(rooted.shape)


def unit_rows(m: np.ndarray) -> np.ndarray:
    """``m``'s rows scaled to unit L2 norm, as a new C-ordered float64
    matrix; the one norm in the package.

    Rows of norm 0 are copied unchanged (so a ``-0.0`` entry keeps its
    sign), and their products with any unit row are 0, which is how every
    cosine here gives zero vectors similarity 0. The norms are
    ``np.linalg.norm``'s arithmetic on the C-ordered rows, taken
    ``BLOCK_ROWS`` rows at a time, so the only whole-matrix array is the
    returned one.
    """
    out = np.array(m, dtype=np.float64, order="C")
    for lo in range(0, out.shape[0], BLOCK_ROWS):
        block = out[lo:lo + BLOCK_ROWS]
        norms = np.sqrt(np.add.reduce(block * block, axis=1))[:, None]
        np.divide(block, norms, out=block, where=norms > 0)
    return out


def slice_means(m: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``m[starts[i]:stops[i]].mean(axis=0)``, bit for bit;
    every slice must be non-empty.

    Each longer slice is summed by ``np.add.reduce`` straight into its
    output row and the table is then divided by the slice lengths once,
    which is ``mean``'s own arithmetic without its per-call overhead.
    ``np.add.reduceat`` adds in another order and is not bit-equal. The
    one-row slices are gathered by one index instead, plus 0.0, which
    turns ``-0.0`` into 0.0 as the reduction's start from 0.0 does.
    """
    lengths = stops - starts
    out = np.empty((len(starts), m.shape[1]))
    one = lengths == 1
    out[one] = m[starts[one]] + 0.0
    longer = np.flatnonzero(~one)
    for row, lo, hi in zip(longer.tolist(), starts[longer].tolist(), stops[longer].tolist()):
        np.add.reduce(m[lo:hi], axis=0, out=out[row])
    out /= lengths[:, None]
    return out


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
    return np.hstack([(1.0 - blend) * unit_rows(c), blend * unit_rows(s)])

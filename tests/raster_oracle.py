"""Brute-force references for the exact integrals of twowell.analysis.

A point-sampled raster of a piecewise-constant field, its L1 distance and
grid-direction BV, and the L1 distance of nested states through the
child->parent map.  Used by the equivalence tests only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from twowell import covering
from twowell.errors import InvalidPairError, InvalidParameterError


def l1_diff(coarse, fine, which: str = "chi1") -> float:
    """Exact L1 distance of piecewise-constant fields on nested states.

    fine must refine coarse: every fine cell carries prev_index, the
    position of the coarse cell it came from (its own position if
    carried over unchanged).
    """
    prev = getattr(fine, "prev_index", None)
    if prev is None:
        raise InvalidPairError("fine state lacks the child->parent map")
    prev = np.asarray(prev)
    if prev.shape[0] != fine.verts.shape[0] or (prev.ndim != 1) \
            or prev.min() < 0 or prev.max() >= coarse.verts.shape[0]:
        raise InvalidPairError("states are not nested")
    areas = np.abs(covering.tri_areas(fine.verts))
    if which in ("chi1", "chi2"):
        target = 1 if which == "chi1" else 2
        fv = (fine.phases == target).astype(float)
        cv = (coarse.phases == target).astype(float)
        return float(np.sum(areas * np.abs(fv - cv[prev])))
    if which == "grad":
        d = np.linalg.norm(fine.grads - coarse.grads[prev], axis=(1, 2))
        return float(np.sum(areas * d))
    raise InvalidParameterError(f"unknown field {which!r}")


def rasterize_cells(verts: np.ndarray, values: np.ndarray, n: int = 512,
                    bounds: Optional[Tuple[float, float, float, float]] = None):
    """Point-sample a piecewise-constant field on an n x n pixel grid.

    Pixel centers are assigned by point-in-triangle tests; pixels outside
    the mesh stay at zero.  Returns (grid, pixel_size).
    """
    if bounds is None:
        lo = verts.reshape(-1, 2).min(axis=0)
        hi = verts.reshape(-1, 2).max(axis=0)
        pad = 1e-9 * max(float(hi[0] - lo[0]), float(hi[1] - lo[1]), 1.0)
        bounds = (lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad)
    x0, y0, x1, y1 = bounds
    px = max(x1 - x0, y1 - y0) / n
    xs = x0 + (np.arange(n) + 0.5) * px
    ys = y0 + (np.arange(n) + 0.5) * px
    grid = np.zeros((n, n))
    for tri, val in zip(verts, values):
        tlo = tri.min(axis=0)
        thi = tri.max(axis=0)
        ix = np.flatnonzero((xs >= tlo[0]) & (xs <= thi[0]))
        iy = np.flatnonzero((ys >= tlo[1]) & (ys <= thi[1]))
        if ix.size == 0 or iy.size == 0:
            continue
        gx, gy = np.meshgrid(xs[ix], ys[iy], indexing="ij")
        p = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d0 = p - tri[0]
        e1 = tri[1] - tri[0]
        e2 = tri[2] - tri[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        u = (d0[:, 0] * e2[1] - d0[:, 1] * e2[0]) / det
        v = (e1[0] * d0[:, 1] - e1[1] * d0[:, 0]) / det
        inside = (u >= 0) & (v >= 0) & (u + v <= 1)
        sub = grid[np.ix_(ix, iy)]
        sub.ravel()[inside] = val
        grid[np.ix_(ix, iy)] = sub
    return grid, px


def raster_l1(grid_a: np.ndarray, grid_b: np.ndarray, px: float) -> float:
    return float(np.abs(grid_a - grid_b).sum() * px * px)


def raster_bv(grid: np.ndarray, px: float) -> float:
    """Anisotropic (grid-direction) BV of a rasterized field."""
    dx = np.abs(np.diff(grid, axis=0)).sum()
    dy = np.abs(np.diff(grid, axis=1)).sum()
    return float((dx + dy) * px)

"""Quadrature rules on reference simplices.

Rules are built as collapsed Gauss-Legendre products (Duffy map from the unit
cube onto the unit simplex), which keeps every weight positive in any
dimension and any exactness degree.  Nodes are stored barycentrically;
weights are normalized to sum to 1, so

    integral over a physical simplex s of f  ~=  vol(s) * sum_i w_i f(x_i).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    dim: int
    points: np.ndarray   # (N, dim+1) barycentric coordinates
    weights: np.ndarray  # (N,), positive, summing to 1
    degree: int          # polynomial exactness

    def physical_points(self, coords: np.ndarray) -> np.ndarray:
        """Map nodes onto simplices given as (m, dim+1, n): returns (m, N, n)."""
        return self.points @ coords


@lru_cache(maxsize=None)
def simplex_rule(dim: int, degree: int = 4) -> QuadratureRule:
    """Rule on the reference ``dim``-simplex exact for total degree ``degree``."""
    if dim < 0 or degree < 0:
        raise ValueError("dim and degree must be nonnegative")
    if dim == 0:
        return QuadratureRule(0, np.ones((1, 1)), np.ones(1), degree)
    # A total-degree-q polynomial pulls back through the Duffy map to per-axis
    # degree <= q + dim - 1 (Jacobian included); Gauss with p points is exact
    # to 2p-1 per axis.
    p = max(1, math.ceil((degree + dim) / 2))
    nodes, wts = np.polynomial.legendre.leggauss(p)
    nodes = 0.5 * (nodes + 1.0)  # onto [0, 1]
    wts = 0.5 * wts

    pts = []
    ws = []
    for combo in product(range(p), repeat=dim):
        xi = nodes[list(combo)]
        w = float(np.prod(wts[list(combo)]))
        x = np.empty(dim)
        rest = 1.0
        for i in range(dim):
            w *= rest  # Jacobian factor r_{i-1} of x_i = xi_i * r_{i-1}
            x[i] = xi[i] * rest
            rest -= x[i]
        pts.append(x)
        ws.append(w)
    x = np.array(pts)
    w = np.array(ws)
    w = w / w.sum()  # raw sum is vol(reference simplex) = 1/dim!
    bary = np.concatenate([1.0 - x.sum(axis=1, keepdims=True), x], axis=1)
    return QuadratureRule(dim, bary, w, degree)


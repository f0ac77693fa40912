"""Kernels as they were written before they were rewritten for speed, kept as
the oracles that the rewritten ones must equal bit for bit.

From before the consistency path ran over contiguous columns: the
quadrature kernel on a stacked (b, k+1, n) corner block, the pointwise star
as zeros plus a scatter of the values times an integer sign array, the
fragment table grown by one ``hstack`` per step, and the jitter, orientation
and diameter expressions that reduce over an axis of length n.  From before
the interior prolongation was built directly: the full interpolation, then
its interior rows and columns.  From before the dual's kernels took numpy's
fast paths: the circumcenter and the unsigned volume on the stacked
(m, k, k) Gram of ``e @ e.transpose``, with the determinant, Cramer's rule
(one column swapped out at a time) and the coordinates' row sum over its
short axes.

Beside them, kernels that ``declab`` no longer holds: ``cramer_solve``,
Cramer's rule on a stack by ``geometry._cramer``, which the Whitney basis
and the geometry tests use; ``cotan_stiffness``, the 2D P1 stiffness
assembled per triangle by the cotangent formula, which the DEC stiffness
must equal; and ``lapack_circumcenter``, the circumcenters by LAPACK's
solve, the one independent circumcenter oracle of the geometry and dual
tests.  ``bits`` is the int64 view that every bit-for-bit comparison takes.

These oracles judge kernels.  Whole outputs are judged by
``output_manifest.py``: its manifest is the one list of files that CI
requires to stay byte-identical."""
import math
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp

from declab import geometry
from declab.complex import DEGENERATE_REL_TOL
from declab.errors import DegenerateSimplexError
from declab.fields import FormField, _perm_sign, index_tuples
from declab.quadrature import simplex_rule


def integrate(fields, corner, index, degree):
    """``fields._integrate`` on the stacked corner block."""
    k = fields[0].degree
    rule = simplex_rule(k, degree)
    m, n = len(index), fields[0].dim
    integ = np.zeros((len(fields), m))
    for rows in geometry.row_blocks(m, len(rule.weights)):
        block = np.stack([corner(j, i) for j, i in enumerate(index[rows].T)], axis=1)
        pts = rule.physical_points(block)
        frame = block[:, 1:, :] - block[:, :1, :]
        minors = [geometry.det(frame[:, :, rho]) for rho in index_tuples(n, k)]
        for field, out in zip(fields, integ[:, rows]):
            vals = field(pts.reshape(-1, n)).reshape(*pts.shape[:2], -1)
            for c, minor in enumerate(minors):
                out += np.einsum("bq,q->b", vals[:, :, c], rule.weights) * minor
    integ /= math.factorial(k)
    return integ


def hodge_field(field):
    """``fields.hodge_field`` as zeros plus a scatter of the signed values."""
    n, k = field.dim, field.degree
    src = index_tuples(n, k)
    dst = index_tuples(n, n - k)
    perm = np.empty(len(src), dtype=np.int64)
    sign = np.empty(len(src), dtype=np.int64)
    for i, rho in enumerate(src):
        comp = tuple(sorted(set(range(n)) - set(rho)))
        perm[i] = dst.index(comp)
        sign[i] = _perm_sign(rho + comp)

    def ev(points):
        out = np.zeros((len(points), len(dst)))
        out[:, perm] = field(points) * sign
        return out

    return FormField(n - k, n, ev)


def jittered_vertices(cx, amplitude, seed):
    """The vertices ``jitter_interior`` places, with its norms taken by
    ``np.linalg.norm`` over fancy-indexed edge vectors."""
    edges = cx.simplices[1]
    lengths = np.linalg.norm(cx.vertices[edges[:, 1]] - cx.vertices[edges[:, 0]], axis=1)
    local = np.full(cx.num(0), np.inf)
    np.minimum.at(local, edges[:, 0], lengths)
    np.minimum.at(local, edges[:, 1], lengths)
    rng = np.random.default_rng(seed)
    disp = rng.standard_normal(cx.vertices.shape)
    nrm = np.linalg.norm(disp, axis=1, keepdims=True)
    disp = disp / np.maximum(nrm, 1e-300)
    radii = amplitude * local * rng.random(cx.num(0)) ** (1.0 / cx.dim)
    disp = disp * radii[:, None]
    disp[cx.boundary_vertex_mask()] = 0.0
    return cx.vertices + disp


def fragments(cx, k, cells=slice(None)):
    """``dualmesh.fragments`` as a chain grown by one ``hstack`` per step."""
    n = cx.dim
    top = np.arange(cx.num(n), dtype=np.int32)[cells]
    chain = top[:, None]
    for j in range(n, k, -1):
        f = cx.faces[j][chain[:, 0]]
        chain = np.hstack([f.reshape(-1, 1), np.repeat(chain, j + 1, axis=0)])
    steps = range(n, k, -1)
    parity = np.array([1 - 2 * (sum(j - i for j, i in zip(steps, drops)) % 2)
                       for drops in product(*(range(j + 1) for j in steps))], dtype=np.int8)
    sign = np.tile(parity, len(top))
    sign *= cx.orientation[n][chain[:, -1]]
    sign *= cx.orientation[k][chain[:, 0]]
    return chain, sign


def signed_volume(coords):
    return geometry.det(coords[:, 1:, :] - coords[:, :1, :]) / math.factorial(coords.shape[2])


def diameter(coords):
    sq = np.zeros(len(coords))
    for i, j in combinations(range(coords.shape[1]), 2):
        np.maximum(sq, np.sum((coords[:, i] - coords[:, j]) ** 2, axis=-1), out=sq)
    return np.sqrt(sq)


def cell_orientation(vertices, cells):
    """``complex.cell_orientation`` on fancy-indexed stacked corners: the
    signs, and where the cells are degenerate."""
    coords = vertices[cells]
    svol = signed_volume(coords)
    scale = diameter(coords) ** (cells.shape[1] - 1)
    degenerate = np.abs(svol) <= DEGENERATE_REL_TOL * np.maximum(scale, 1e-300)
    return np.where(svol > 0, 1, -1).astype(np.int8), degenerate


def prolongation(coarse):
    """Linear interpolation of vertex values from ``coarse`` to ``refine(coarse)``.

    A ``(N_0 fine, N_0 coarse)`` matrix, exact: fine vertex ``v < nv`` is coarse
    vertex ``v`` and fine vertex ``nv + e`` the midpoint of coarse edge ``e``.
    """
    nv = coarse.num(0)
    edges = coarse.simplices[1]
    ends = [np.concatenate([np.arange(nv), edges[:, j]]) for j in (0, 1)]
    nf = len(ends[0])
    rows = np.tile(np.arange(nf), 2)
    # a fine vertex that is a coarse vertex gets its two halves summed to 1
    return sp.csr_matrix((np.full(2 * nf, 0.5), (rows, np.concatenate(ends))),
                         shape=(nf, nv))


def interior_prolongation(coarse, fine):
    """``generators.interior_prolongation`` as the full interpolation's
    interior rows, then its interior columns, by two fancy-index copies."""
    p = prolongation(coarse)[fine.interior_vertex_indices()]
    return p[:, coarse.interior_vertex_indices()]


def det(a):
    """``geometry.det`` on the stacked (..., k, k) entries."""
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[:-2])
    if k == 1:
        return a[..., 0, 0].copy()
    if k == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if k == 3:
        return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
                - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
                + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
    return np.linalg.det(a)


def solve(a, b, den):
    """Cramer's rule, each column of ``a`` swapped out in place and put back."""
    x = np.empty(b.shape)
    for i in range(a.shape[-1]):
        col = a[..., :, i].copy()
        for j in range(b.shape[-1]):
            a[..., :, i] = b[..., :, j]
            x[..., i, j] = det(a) / den
        a[..., :, i] = col
    return x


def cramer_solve(a, b, den):
    """x with a x = b by Cramer's rule: a (..., k, k), b (..., k, r), den = det(a).

    x[..., i, j] = det(a with column i replaced by b[..., j]) / den, by
    ``geometry._cramer`` on each column of b.
    """
    x = np.empty(b.shape)
    entries = np.moveaxis(a, (-2, -1), (0, 1))
    for j in range(b.shape[-1]):
        geometry._cramer(entries, np.moveaxis(b[..., j], -1, 0), den,
                         np.moveaxis(x[..., j], -1, 0))
    return x


def cotan_stiffness(cx):
    """The P1 stiffness of a triangle mesh, assembled per triangle: the edge
    opposite vertex k gets weight cot(angle at k) / 2."""
    tri = cx.simplices[2]
    x = cx.vertices
    nv = cx.num(0)
    rows, cols, vals = [], [], []
    for a, b, c in tri:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            u = x[i] - x[k]
            v = x[j] - x[k]
            cross = abs(u[0] * v[1] - u[1] * v[0])
            w = 0.5 * (u @ v) / cross
            rows += [i, j, i, j]
            cols += [j, i, i, j]
            vals += [-w, -w, w, w]
    return sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()


def unsigned_volume(coords):
    """``geometry.unsigned_volume`` with the Gram of ``e @ np.transpose(e)``."""
    coords = np.asarray(coords, dtype=float)
    m, kp1, n = coords.shape
    k = kp1 - 1
    if k == 0:
        return np.ones(m)
    e = coords[:, 1:, :] - coords[:, :1, :]
    if k == n:
        return np.abs(det(e)) / math.factorial(k)
    return np.sqrt(np.maximum(det(e @ np.transpose(e, (0, 2, 1))), 0.0)) / math.factorial(k)


def circumcenter(coords, check=True):
    """``geometry.circumcenter`` on the stacked (m, k, k) Gram."""
    coords = np.asarray(coords, dtype=float)
    m, kp1, n = coords.shape
    k = kp1 - 1
    if k == 0:
        return coords[:, 0, :].copy(), np.ones((m, 1))
    e = coords[:, 1:, :] - coords[:, :1, :]
    gram = 2.0 * (e @ np.transpose(e, (0, 2, 1)))
    rhs = np.einsum("mkd,mkd->mk", e, e)
    den = det(gram)
    if check:
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_det = den / np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
        bad = ~(rel_det * geometry.CIRCUMCENTER_COND_MAX > 1.0)
        if bad.any():
            raise DegenerateSimplexError("near-degenerate simplex")
    alpha = solve(gram, rhs[..., None], den)[..., 0]
    lam = np.concatenate([1.0 - alpha.sum(axis=1, keepdims=True), alpha], axis=1)
    return coords[:, 0, :] + np.einsum("mk,mkd->md", alpha, e), lam


def lapack_circumcenter(coords, check=True):
    """Circumcenters by LAPACK's solve of 2 E E^T a = diag(E E^T), in the
    signature of ``geometry.circumcenter``."""
    coords = np.asarray(coords, dtype=float)
    m, kp1, _ = coords.shape
    if kp1 == 1:
        return coords[:, 0, :].copy(), np.ones((m, 1))
    e = geometry.edge_matrix(coords)
    gram = 2.0 * (e @ np.transpose(e, (0, 2, 1)))
    rhs = np.einsum("mkd,mkd->mk", e, e)
    alpha = np.linalg.solve(gram, rhs[..., None])[..., 0]
    lam = np.concatenate([1.0 - alpha.sum(axis=1, keepdims=True), alpha], axis=1)
    return coords[:, 0, :] + np.einsum("mk,mkd->md", alpha, e), lam


def bits(a):
    """The float64 entries of ``a`` as int64, to compare bit for bit."""
    return np.ascontiguousarray(a).view(np.int64)

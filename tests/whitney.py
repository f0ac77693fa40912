"""Whitney forms as an analysis tool: the Gram matrix of the Whitney k-basis.

Acceptance criterion 11 and the Whitney tests of ``test_fields.py`` compare
the L2 norm of a cochain's Whitney interpolant with the discrete norm of the
diagonal Hodge star; nothing in ``declab`` needs the Whitney basis itself.
"""
import math

import numpy as np
import scipy.sparse as sp

from declab import geometry
from declab.complex import SimplicialComplex
from declab.fields import index_tuples


def _barycentric_gradients(cx: SimplicialComplex) -> np.ndarray:
    """Gradients of the n+1 barycentric hat functions per top cell: (m, n+1, n)."""
    e = geometry.edge_matrix(cx.coords_of(cx.dim, slice(None)))
    # rows of inv(E)^T are grad lam_i, with inv(E) the solution X of E X = I
    inv = geometry.solve(e, np.broadcast_to(np.eye(cx.dim), e.shape), geometry.det(e))
    grads = np.transpose(inv, (0, 2, 1))
    g0 = -grads.sum(axis=1, keepdims=True)
    return np.concatenate([g0, grads], axis=1)


def whitney_mass_matrix(cx: SimplicialComplex, k: int) -> sp.csr_matrix:
    """Gram matrix of the Whitney k-basis: ||W c||_L2^2 = c^T G c, in closed form.

    On a top cell T the basis form of the face [a_0..a_k] is
    k! sum_i (-1)^i lam_{a_i} dlam_{a_0} ^ .. (no a_i) .. ^ dlam_{a_k}.  Two such
    terms pair to the integral of lam_a lam_b, |T| (1 + [a = b]) / ((n+1)(n+2)),
    times the inner product of their wedges of gradients, which is a k x k
    minor of the Gram matrix grad lam grad lam^T.
    """
    n = cx.dim
    grads = _barycentric_gradients(cx)
    gram = grads @ np.transpose(grads, (0, 2, 1))              # (m, n+1, n+1)
    sides = index_tuples(n + 1, k)
    rows = np.array(sides, dtype=np.int64).reshape(len(sides), k)
    minors = geometry.det(gram[:, rows[:, None, :, None], rows[None, :, None, :]])
    # inc[v, a, u] = (-1)^i where face a, without its i-th vertex v, is side u
    faces = index_tuples(n + 1, k + 1)
    inc = np.zeros((n + 1, len(faces), len(sides)))
    for a, face in enumerate(faces):
        for i, v in enumerate(face):
            inc[v, a, sides.index(face[:i] + face[i + 1:])] = (-1) ** i
    # the 1 of 1 + [a = b] pairs all terms, the [a = b] those dropping one vertex
    total = inc.sum(axis=0)
    local = (np.einsum("au,muv,bv->mab", total, minors, total, optimize=True)
             + np.einsum("xau,muv,xbv->mab", inc, minors, inc, optimize=True))
    cells = cx.simplices[n]
    idx = np.stack([cx.index_of(k, cells[:, list(face)]) for face in faces], axis=1)
    sign = cx.orientation[k][idx]
    vols = geometry.unsigned_volume(cx.coords_of(n, slice(None)))
    local *= (math.factorial(k) ** 2 / ((n + 1) * (n + 2)) * vols[:, None, None]
              * sign[:, :, None] * sign[:, None, :])
    return sp.coo_matrix(
        (local.ravel(), (np.repeat(idx, len(faces), axis=1).ravel(),
                         np.tile(idx, (1, len(faces))).ravel())),
        shape=(cx.num(k),) * 2).tocsr()

"""Cochains and the discrete operator algebra: d, star, codifferential, Laplace.

Dual k-cochains are stored as vectors indexed by the base (n-k)-simplices of
their dual cells.  Diagonal operators keep separate numerator/denominator
factors so that compositions like the double Hodge star reduce to exact
signed identities instead of accumulating rounding from reciprocals.

The sparse d, codifferential and Laplacians are the tests' reference; no
runtime path composes them.  The solver and the Laplace probe take d_0 and
d_0^T on the edge list (``edge_differences``, ``edge_sums``).

Sign conventions (pinned by the adjointness and worked-example tests):

* primal d_k = transpose of the signed boundary incidence of (k+1)-cells;
* dual-cell boundary carries the extra parity (-1)^(k+1) making it compatible
  with integration by parts, so the dual derivative realizes (-1)^k d^T on
  star-weighted vectors;
* the codifferential composes to star^-1 d star with overall sign +1, the
  adjoint of d under the discrete inner products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complex import SimplicialComplex
from .dualmesh import DualComplex
from .errors import SingularStarError, TagMismatchError, ids

Tag = tuple[int, str]  # (degree, "primal" | "dual")


@dataclass(frozen=True)
class Cochain:
    degree: int
    side: str  # "primal" | "dual"
    values: np.ndarray

    def __post_init__(self):
        if self.side not in ("primal", "dual"):
            raise TagMismatchError(f"side must be primal|dual, got {self.side!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def tag(self) -> Tag:
        return (self.degree, self.side)


def _check_compose(left_domain: Tag, right_codomain: Tag):
    if left_domain != right_codomain:
        raise TagMismatchError(
            f"cannot compose: left expects {left_domain}, right produces {right_codomain}")


class LinearOperator:
    """A tagged sparse operator: tag checking, application, composition."""

    def __init__(self, mat: sp.spmatrix, domain: Tag, codomain: Tag):
        self.mat = mat.tocsr()
        self.domain = domain
        self.codomain = codomain
        self.shape = self.mat.shape

    def apply(self, x):
        if isinstance(x, Cochain):
            if x.tag != self.domain:
                raise TagMismatchError(f"operator domain {self.domain}, cochain {x.tag}")
            return Cochain(self.codomain[0], self.codomain[1], self._matvec(x.values))
        return self._matvec(np.asarray(x, dtype=float))

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ v

    def as_matrix(self) -> sp.csr_matrix:
        return self.mat

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        _check_compose(self.domain, other.codomain)
        if isinstance(self, DiagonalOperator) and isinstance(other, DiagonalOperator):
            return DiagonalOperator(self.num * other.num, self.den * other.den,
                                    other.domain, self.codomain)
        mat = (self.as_matrix() @ other.as_matrix()).tocsr()
        return LinearOperator(mat, other.domain, self.codomain)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise TagMismatchError("operator sum needs matching tags")
        return LinearOperator((self.as_matrix() + other.as_matrix()).tocsr(),
                              self.domain, self.codomain)


class DiagonalOperator(LinearOperator):
    def __init__(self, num: np.ndarray, den: np.ndarray, domain: Tag, codomain: Tag):
        self.num = np.asarray(num, dtype=float)
        self.den = np.asarray(den, dtype=float)
        self.domain = domain
        self.codomain = codomain
        self.shape = (len(self.num), len(self.num))

    def _matvec(self, v):
        return v * self.num / self.den

    def diagonal(self) -> np.ndarray:
        return self.num / self.den

    def as_matrix(self) -> sp.csr_matrix:
        return sp.diags(self.diagonal()).tocsr()


# -- constructors --------------------------------------------------------------


def hodge_star(dual: DualComplex, k: int, side: str = "primal") -> DiagonalOperator:
    """Diagonal Hodge star.

    primal: C^k(K) -> C^(n-k)(dual), diag |dual t| / |t|.
    dual:   C^k(dual) -> C^(n-k)(K), diag (-1)^(k(n-k)) |t| / |dual t|; raises
    on zero dual volumes since that direction divides by them.
    """
    n = dual.complex.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree out of range: {k}")
    if side == "primal":
        num, den = dual.hodge_ratios(k)
        return DiagonalOperator(num, den, (k, "primal"), (n - k, "dual"))
    if side != "dual":
        raise TagMismatchError(f"side must be primal|dual, got {side!r}")
    base = n - k  # dual k-cochains are indexed by (n-k)-simplices
    dvol, pvol = dual.hodge_ratios(base)
    if np.any(dvol == 0):
        i = int(np.argmax(dvol == 0))
        raise SingularStarError(
            f"dual volume of {base}-simplex {ids(dual.complex.simplices[base][i])} "
            "is zero; inverse star undefined")
    sign = -1 if (k * (n - k)) % 2 else 1
    return DiagonalOperator(sign * pvol, dvol, (k, "dual"), (n - k, "primal"))


def exterior_derivative(dual: DualComplex, k: int, side: str = "primal") -> LinearOperator:
    """Discrete exterior derivative C^k -> C^(k+1) on either side.

    The dual-side matrix is the transpose of the dual-cell boundary operator,
    realizing (-1)^(n-k) times the base boundary incidence.
    """
    cx = dual.complex
    n = cx.dim
    if side == "primal":
        if not 0 <= k <= n - 1:
            raise ValueError(f"primal derivative defined for 0 <= k <= {n - 1}")
        mat = cx.boundary_matrix(k + 1).T.tocsr()
        return LinearOperator(mat, (k, "primal"), (k + 1, "primal"))
    if side != "dual":
        raise TagMismatchError(f"side must be primal|dual, got {side!r}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"dual derivative defined for 0 <= k <= {n - 1}")
    mat = ((-1) ** (n - k) * cx.boundary_matrix(n - k)).tocsr()
    return LinearOperator(mat, (k, "dual"), (k + 1, "dual"))


def codifferential(dual: DualComplex, k: int) -> LinearOperator:
    """delta_k : C^k(K) -> C^(k-1)(K), the adjoint of d under ( , )_h.

    Composed as (-1)^(n(k-1)+1) star d star, which reduces to star^-1 d star
    with overall sign +1; the degree-0 codifferential is the zero map into the
    empty space of (-1)-cochains.
    """
    n = dual.complex.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree out of range: {k}")
    if k == 0:
        mat = sp.csr_matrix((0, dual.complex.num(0)))
        return LinearOperator(mat, (0, "primal"), (-1, "primal"))
    sign = -1 if (n * (k - 1) + 1) % 2 else 1
    comp = hodge_star(dual, n - k + 1, side="dual") \
        @ exterior_derivative(dual, n - k, side="dual") \
        @ hodge_star(dual, k, side="primal")
    mat = (sign * comp.as_matrix()).tocsr()
    return LinearOperator(mat, (k, "primal"), (k - 1, "primal"))


def laplace(dual: DualComplex, k: int) -> LinearOperator:
    """Hodge-Laplace operator on primal k-cochains: delta d + d delta."""
    n = dual.complex.dim
    if not 0 <= k <= n:
        raise ValueError(f"degree out of range: {k}")
    terms = []
    if k < n:
        terms.append(codifferential(dual, k + 1) @ exterior_derivative(dual, k))
    if k > 0:
        terms.append(exterior_derivative(dual, k - 1) @ codifferential(dual, k))
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


# -- inner products and norms ---------------------------------------------------


def _weights(dual: DualComplex, c: Cochain) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, denominator) of the metric weight per entry of c."""
    n = dual.complex.dim
    base = c.degree if c.side == "primal" else n - c.degree
    dvol, pvol = dual.hodge_ratios(base)
    if c.side == "primal":
        return dvol, pvol
    return pvol, dvol  # dual norm uses inverse ratios

def inner_product(dual: DualComplex, a: Cochain, b: Cochain) -> float:
    """(a, b)_h = sum over cells of a * (weight) * b; sides and degrees must match."""
    if a.tag != b.tag:
        raise TagMismatchError(f"inner product needs matching tags, got {a.tag} and {b.tag}")
    num, den = _weights(dual, a)
    prod = a.values * b.values
    zero = den == 0
    if zero.any():
        if np.any(prod[zero] != 0):
            return float(np.inf)
        prod, num, den = prod[~zero], num[~zero], den[~zero]
    prod *= num
    prod /= den
    return float(np.sum(prod))


def discrete_l2(dual: DualComplex, c: Cochain) -> float:
    return float(np.sqrt(max(inner_product(dual, c, c), 0.0)))


def discrete_l2_dual(dual: DualComplex, c: Cochain) -> float:
    """Dual-side L2 norm (inverse volume ratios); c must be a dual cochain."""
    if c.side != "dual":
        raise TagMismatchError("discrete_l2_dual expects a dual cochain")
    return discrete_l2(dual, c)


def max_norm(c: Cochain) -> float:
    return float(np.max(np.abs(c.values))) if c.values.size else 0.0


def h1_seminorm(dual: DualComplex, c: Cochain) -> float:
    """|| d c ||_h for a primal 0-cochain, d taken by ``edge_differences``."""
    if c.tag != (0, "primal"):
        raise TagMismatchError(f"h1_seminorm expects a primal 0-cochain, got {c.tag}")
    return discrete_l2(dual, Cochain(1, "primal", edge_differences(dual.complex, c.values)))


def edge_differences(cx: SimplicialComplex, values: np.ndarray) -> np.ndarray:
    """d_0 of vertex ``values``: o_e v[e1] - o_e v[e0] per edge e = (e0, e1).

    The two products of the edge's row of ``exterior_derivative(dual, 0)``,
    taken by two gathers instead of through the incidence matrix.  Their sum
    rounds once, as the sparse product's does, so the two agree bit for bit
    (up to the sign of a zero).
    """
    edges, o = cx.simplices[1], cx.orientation[1]
    d = values[edges[:, 1]]
    d *= o
    tail = values[edges[:, 0]]
    tail *= o
    d -= tail
    return d


def edge_sums(cx: SimplicialComplex, values: np.ndarray) -> np.ndarray:
    """d_0^T of edge ``values`` g, ``cx.boundary_matrix(1) @ g`` by one ``bincount``
    over the edge ends: -o_e g[e] at e0 and o_e g[e] at e1.  Each vertex sums its
    terms in edge order from zero, as the CSR product does, so the two agree bit
    for bit."""
    og = cx.orientation[1] * values
    return np.bincount(cx.simplices[1].ravel(), weights=np.column_stack([-og, og]).ravel(),
                       minlength=cx.num(0))

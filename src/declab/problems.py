"""Named analytic solution bundles for manufactured Dirichlet problems.

Each bundle supplies the scalar solution u, its differential du, and the
source f = delta d u (the positive-semidefinite convention, i.e. minus the
classical Laplacian of u).  Boundary data is the trace of u, taken by vertex
evaluation.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fields import FormField, scalar_field


@dataclass(frozen=True)
class ProblemBundle:
    name: str
    dim: int
    u: FormField
    du: FormField
    f: FormField

    def u_at(self, points: np.ndarray) -> np.ndarray:
        return self.u(points)[:, 0]

    def f_at(self, points: np.ndarray) -> np.ndarray:
        return self.f(points)[:, 0]


def trig2d() -> ProblemBundle:
    """u(x, y) = x^2 sin(y)."""
    def u(p):
        return p[:, 0] ** 2 * np.sin(p[:, 1])

    def du(p):
        return np.stack([2 * p[:, 0] * np.sin(p[:, 1]),
                         p[:, 0] ** 2 * np.cos(p[:, 1])], axis=1)

    def f(p):
        return (p[:, 0] ** 2 - 2.0) * np.sin(p[:, 1])

    return ProblemBundle("trig2d", 2, scalar_field(2, u), FormField(1, 2, du),
                         scalar_field(2, f))


def trig3d() -> ProblemBundle:
    """u(x, y, z) = x^2 sin(y) + cos(z)."""
    def u(p):
        return p[:, 0] ** 2 * np.sin(p[:, 1]) + np.cos(p[:, 2])

    def du(p):
        return np.stack([2 * p[:, 0] * np.sin(p[:, 1]),
                         p[:, 0] ** 2 * np.cos(p[:, 1]),
                         -np.sin(p[:, 2])], axis=1)

    def f(p):
        return (p[:, 0] ** 2 - 2.0) * np.sin(p[:, 1]) + np.cos(p[:, 2])

    return ProblemBundle("trig3d", 3, scalar_field(3, u), FormField(1, 3, du),
                         scalar_field(3, f))


def corner(mu: float = 5.0 / 8.0) -> ProblemBundle:
    """Harmonic u = r^mu sin(mu theta) on a re-entrant corner, f = 0.

    The angle theta is taken in [0, 2 pi), so the branch cut lies inside the
    missing sector of the corner domains built by the generators.
    """
    def polar(p):
        r = np.hypot(p[:, 0], p[:, 1])
        th = np.mod(np.arctan2(p[:, 1], p[:, 0]), 2 * math.pi)
        return r, th

    def u(p):
        r, th = polar(p)
        return r ** mu * np.sin(mu * th)

    def du(p):
        r, th = polar(p)
        safe = np.where(r > 0, r, 1.0)
        scale = np.where(r > 0, mu * safe ** (mu - 1.0), 0.0)
        return np.stack([scale * np.sin((mu - 1.0) * th),
                         scale * np.cos((mu - 1.0) * th)], axis=1)

    def f(p):
        return np.zeros(len(p))

    return ProblemBundle(f"corner({mu:g})", 2, scalar_field(2, u),
                         FormField(1, 2, du), scalar_field(2, f))


def linear(dim: int, coeffs=None, const: float = 1.0) -> ProblemBundle:
    """Affine u = const + sum c_i x_i; reproduced exactly by the solver."""
    c = np.ones(dim) if coeffs is None else np.asarray(coeffs, dtype=float)

    def u(p):
        return const + p @ c

    def du(p):
        return np.repeat(c[None, :], len(p), axis=0)

    def f(p):
        return np.zeros(len(p))

    return ProblemBundle(f"linear{dim}d", dim, scalar_field(dim, u),
                         FormField(1, dim, du), scalar_field(dim, f))


# every named problem, by the factory of its bundle; a factory takes the
# corner exponent mu, which only ``corner`` reads
PROBLEMS: dict[str, Callable[[float], ProblemBundle]] = {
    "trig2d": lambda mu: trig2d(),
    "trig3d": lambda mu: trig3d(),
    "corner": corner,
    "linear2d": lambda mu: linear(2),
    "linear3d": lambda mu: linear(3),
}


def get_problem(name: str, mu: float = 5.0 / 8.0) -> ProblemBundle:
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem '{name}' (known: {', '.join(PROBLEMS)})")
    return PROBLEMS[name](mu)

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from declab import quadrature
from declab.quadrature import simplex_rule


def reference_monomial_integral(exponents) -> float:
    """Oracle: exact integral of prod x_i^{a_i} over the unit simplex, prod(a_i!) / (sum a + m)!."""
    a = list(exponents)
    num = 1.0
    for ai in a:
        num *= math.factorial(ai)
    return num / math.factorial(sum(a) + len(a))


@pytest.mark.parametrize("dim,degree", list(product([1, 2, 3], [2, 4, 6])))
def test_weights_positive_and_normalized(dim, degree):
    rule = simplex_rule(dim, degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert rule.points.shape[1] == dim + 1
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-13)
    assert np.all(rule.points >= -1e-15)


@pytest.mark.parametrize("dim,degree", list(product([1, 2, 3], [2, 4, 6])) + [(2, 5)])
def test_exact_on_monomials_up_to_degree(dim, degree):
    rule = simplex_rule(dim, degree)
    vol = reference_monomial_integral([0] * dim)
    for exps in product(range(degree + 1), repeat=dim):
        if sum(exps) > degree:
            continue
        vals = np.prod(rule.points[:, 1:] ** np.array(exps), axis=1)
        approx = vol * float(vals @ rule.weights)
        exact = reference_monomial_integral(exps)
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-15), exps


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_not_exact_only_beyond_degree_sanity(a, b):
    # degree-4 rule stays exact for total degree <= 4
    rule = simplex_rule(2, 4)
    if a + b > 4:
        return
    vol = reference_monomial_integral([0, 0])
    vals = rule.points[:, 1] ** a * rule.points[:, 2] ** b
    assert vol * float(vals @ rule.weights) == pytest.approx(
        reference_monomial_integral([a, b]), rel=1e-12, abs=1e-15)


def test_physical_points_affine_map():
    rule = simplex_rule(2, 2)
    tri = np.array([[(1.0, 1.0), (3.0, 1.0), (1.0, 4.0)]])
    pts = rule.physical_points(tri)
    assert pts.shape == (1, len(rule.weights), 2)
    assert np.all(pts[0, :, 0] >= 1.0 - 1e-12)
    # integrating 1 gives the area
    area = 3.0
    vals = np.ones((1, len(rule.weights)))
    assert area * (vals @ rule.weights)[0] == pytest.approx(area)


def test_dim0_rule_is_evaluation():
    rule = simplex_rule(0, 4)
    assert rule.points.shape == (1, 1)
    assert rule.weights[0] == 1.0


@pytest.mark.parametrize("degree", [5, 6])
def test_triangle_rule_of_degree_5_and_6_has_12_interior_nodes(degree):
    rule = simplex_rule(2, degree)
    assert rule.points.shape == (12, 3) and rule.degree == 6
    assert np.all(rule.weights > 0) and np.all(rule.points > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-15)
    # three orbits of the symmetric group on the corners: 3 + 3 + 6 nodes
    orbits = {tuple(sorted(p)) for p in rule.points.tolist()}
    assert len(orbits) == 3
    assert len({tuple(p) for p in rule.points.tolist()}) == 12


@pytest.mark.parametrize("dim,degree,nodes", [
    (1, 6, 4), (2, 4, 9), (2, 7, 25), (3, 6, 125)])
def test_other_rules_stay_collapsed_gauss(dim, degree, nodes):
    # p Gauss points per axis, p = ceil((degree + dim) / 2)
    assert len(simplex_rule(dim, degree).weights) == nodes


def _moment_residuals(v):
    """Degree <= 6 moment equations of the 12-node rule, each residual taken
    exactly in rational arithmetic and rounded once: in floating point the
    residuals' own rounding moves the root by up to about 3e-15."""
    w1, a, w2, b, w3, p, q = map(Fraction, v)
    nodes = []
    for w, s in ((w1, a), (w2, b)):
        nodes += [(w, s, s), (w, s, 1 - 2 * s), (w, 1 - 2 * s, s)]
    c = 1 - p - q
    nodes += [(w3, x, y) for x, y in ((p, q), (q, p), (p, c), (c, p), (q, c), (c, q))]
    # the oracle's integral over the unit triangle, normalized by its area 1/2
    return np.array([float(sum(w * x ** i * y ** j for w, x, y in nodes)
                           - Fraction(2 * math.factorial(i) * math.factorial(j),
                                      math.factorial(i + j + 2)))
                     for i in range(7) for j in range(7 - i)])


@pytest.mark.parametrize("start", [(0.1, 0.25, 0.05, 0.06, 0.08, 0.05, 0.3),
                                   (0.15, 0.2, 0.04, 0.08, 0.1, 0.06, 0.33)])
def test_triangle_rule_literals_are_the_root_of_the_moment_equations(start):
    fit = least_squares(_moment_residuals, start, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    (w1, a), (w2, b) = quadrature.TRIANGLE_6_S21
    w3, p, q = quadrature.TRIANGLE_6_S111
    assert np.allclose(fit.x, [w1, a, w2, b, w3, p, q], rtol=0, atol=1e-15)

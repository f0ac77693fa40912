import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("dim,degree", list(product([1, 2, 3], [2, 4, 6])))
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

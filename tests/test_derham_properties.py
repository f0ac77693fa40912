"""Property tests of the deRham maps on generic (jittered) well-centered meshes."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from declab.dualmesh import build_dual
from declab.fields import FormField, derham_dual, derham_primal, scalar_field
from declab.operators import exterior_derivative
from forms import volume_field
from strategies import jittered_wheels


def _rel_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@settings(deadline=None, max_examples=50)
@given(cx=jittered_wheels, c=st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3))
def test_derham_identities_on_jittered_wheels(cx, c):
    dual = build_dual(cx)

    # Stokes: d0 R(u) = R(du)
    u = scalar_field(2, lambda p: p[:, 0] ** 2 * p[:, 1] + p[:, 1] ** 3)
    du = FormField(1, 2, lambda p: np.stack(
        [2 * p[:, 0] * p[:, 1], p[:, 0] ** 2 + 3 * p[:, 1] ** 2], axis=1))
    d0 = exterior_derivative(dual, 0, "primal")
    assert _rel_gap(d0.apply(derham_primal([u], cx)[0]).values,
                    derham_primal([du], cx)[0].values) <= 1e-12

    # the vertex duals tile the domain
    w = volume_field(2, lambda p: 1 + p[:, 0] + p[:, 0] ** 2 * p[:, 1] + 0.5 * p[:, 1] ** 3)
    total_dual = derham_dual([w], dual)[0].values.sum()
    total_primal = derham_primal([w], cx)[0].values.sum()
    assert abs(total_dual - total_primal) <= 1e-12 * abs(total_primal)

    # a constant 2-form integrates to c times the dual volumes
    const = volume_field(2, lambda p: np.full(len(p), c))
    assert _rel_gap(derham_dual([const], dual)[0].values, c * dual.volumes[0]) <= 1e-12

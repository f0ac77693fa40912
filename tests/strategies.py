"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from declab.generators import FamilySpec, generate, jitter_interior


def jittered_wheel(n_gon, level, amplitude, seed):
    return jitter_interior(generate(FamilySpec("pentagon_wheel", level, n_gon=n_gon)),
                           amplitude=amplitude, seed=seed)


def strictly_well_centered(cx):
    return cx.shape_report().well_centered == "strict"


# n_gon = 5 is left out: at amplitude 0.125 its jittered wheels lose
# well-centeredness.  For n_gon = 6..8 a loss is rare but happens (the draw
# pinned by test_dualmesh.py::test_an_off_centered_jittered_wheel_is_filtered_out),
# so the strategy keeps only strictly well-centered meshes, the class every
# test drawing from it assumes.
jittered_wheels = st.builds(
    jittered_wheel, n_gon=st.integers(6, 8), level=st.integers(1, 3),
    amplitude=st.floats(0.0, 0.14), seed=st.integers(0, 2 ** 32 - 1),
).filter(strictly_well_centered)

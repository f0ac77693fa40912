"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from declab.generators import FamilySpec, generate, jitter_interior

# n_gon = 5 is left out: at amplitude 0.125 its jittered wheels lose
# well-centeredness.  For n_gon = 6..8 a loss is rare but happens (octagon
# wheel level 2, amplitude 0.1328125, seed 498318: a triangle's smallest
# circumcenter coordinate is -3.5e-3), so the strategy keeps only strictly
# well-centered meshes, the class every test drawing from it assumes.
jittered_wheels = st.builds(
    lambda n_gon, level, amplitude, seed: jitter_interior(
        generate(FamilySpec("pentagon_wheel", level, n_gon=n_gon)),
        amplitude=amplitude, seed=seed),
    n_gon=st.integers(6, 8), level=st.integers(1, 3),
    amplitude=st.floats(0.0, 0.14), seed=st.integers(0, 2 ** 32 - 1),
).filter(lambda cx: cx.shape_report().well_centered == "strict")

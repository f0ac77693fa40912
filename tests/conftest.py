import os

import numpy as np
import pytest
from hypothesis import settings

from declab.complex import build_complex
from declab.dualmesh import build_dual
from declab.generators import FamilySpec, generate

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no
# database, so a failure reproduces from the commit alone
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def mesh_cache():
    """Shared generated meshes/duals; keyed by (family, level, kwargs)."""
    cache = {}

    def get(family, level, dual=False, **kw):
        key = (family, level, tuple(sorted(kw.items())))
        if key not in cache:
            cache[key] = generate(FamilySpec(family, level, **kw))
        cx = cache[key]
        if not dual:
            return cx
        dkey = key + ("dual",)
        if dkey not in cache:
            cache[dkey] = build_dual(cx)
        return cx, cache[dkey]

    return get


@pytest.fixture()
def worked_triangle():
    """Positively oriented acute triangle with circumcenter at (2, 1)."""
    cx = build_complex(2, [(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)], [(0, 1, 2)])
    return cx, build_dual(cx)


@pytest.fixture()
def right_triangle():
    return build_complex(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


@pytest.fixture()
def line_mesh():
    """Two unit segments on the real line."""
    cx = build_complex(1, [[0.0], [1.0], [2.0]], [(0, 1), (1, 2)])
    return cx, build_dual(cx)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)

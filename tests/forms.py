"""Form fields that only the tests build."""
import numpy as np

from declab.fields import FormField


def volume_field(dim, fn):
    """fn(points) * dx_1 ^ ... ^ dx_n."""
    return FormField(dim, dim, lambda p: np.asarray(fn(p), dtype=float).reshape(len(p), 1))

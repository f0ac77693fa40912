"""Exception types shared across the package."""


def ids(row) -> tuple[int, ...]:
    """A row of simplex or vertex indices as Python ints, which print plainly in messages."""
    return tuple(int(v) for v in row)


class MeshError(ValueError):
    """Invalid mesh input."""


class DegenerateSimplexError(MeshError):
    """A cell has (numerically) zero volume or an ill-conditioned equidistance system."""


class InvertedCellError(MeshError):
    """Moving vertices turned a top cell inside out (its orientation sign flipped)."""


class NonConformingError(MeshError):
    """Two cells intersect in something other than a common face."""


class WellCenteredError(MeshError):
    """Construction requires (weak) well-centeredness and the mesh violates it."""


class SingularStarError(ValueError):
    """A Hodge star inversion was requested on a simplex with zero dual volume."""


class TagMismatchError(ValueError):
    """Operator/cochain degree or side tags do not line up."""


class IterativeSolveError(RuntimeError):
    """Iterative solver failed to reach tolerance; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class MemoryGuardError(RuntimeError):
    """Requested study level exceeds the configured unknown-count cap."""


class TrivialProblemError(ValueError):
    """The mesh has no interior vertices: nothing to solve or probe there."""

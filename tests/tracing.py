"""The memory tests' one tracemalloc window."""
import tracemalloc


def traced(fn):
    """``(fn(), kept, peak)``: the result, and the bytes traced as held when
    ``fn`` returned and at their peak while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak

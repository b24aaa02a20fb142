"""Reproducing kernel of the weighted ball: no public names.

No result of the package goes through the kernel; every limit comes from the
explicit spectrum, the matrix path, the transform or the chart geometry.
"""

# Kept only because perfbench/tracer.py's LAYERS imports this module and reads __all__.
__all__ = []

"""Toric K-stability toolkit.

Exact rational geometry of moment polytopes, the stability functional and
crease search, Futaki invariants by lattice-point counting and filtrations,
a numerical solver for Abreu's constant-scalar-curvature equation on
segments and boxes, and finite-dimensional Kempf-Ness moment-map flows.

Each exported name is imported from its module on first access (PEP 562),
so the exact layers (polytope, stability) run without loading numpy.
"""

from importlib import import_module

# module -> the names kstab exports from it
_EXPORTS = {
    "futaki": ("count_and_weigh", "expansion", "expansion_exact", "filtration_futaki"),
    "geometry": ("PotentialGrid", "abreu_S", "guillemin", "legendre"),
    "kempfness": ("OnePS", "SphereConfig", "hm_weight", "kn_function", "matrix_flow",
                  "sphere_flow", "sphere_moment"),
    "polytope": ("BoundaryMeasure", "DegenerateInputError", "EmptyClip", "Facet", "Polytope",
                 "clip", "is_delzant", "measures", "parse_polytope_text"),
    "solver": ("SolveReport", "mabuchi", "ray_slope", "solve"),
    "stability": ("PLConvexFunction", "StabilityVerdict", "L", "crease_search",
                  "futaki_linear", "test_configuration"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # not stored in the package's globals: a name rebound in its module
    # (a test's or a tracer's patch) is what the next access returns
    if name in _MODULE_OF:
        return getattr(import_module(f"kstab.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

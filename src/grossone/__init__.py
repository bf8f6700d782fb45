"""Exact grossone arithmetic, interval sets and explicit set measurement.

Names are resolved lazily: ``grossone.intersect`` imports ``grossone.sets``
on first access and caches the function here, so a caller (such as one CLI
verb) pays only for the submodules it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each public name, grouped under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "BelowRange",
        "BoundExceeded",
        "DivideByZero",
        "EmptyIntervalRejected",
        "EmptySet",
        "GrossoneError",
        "InvalidArgument",
        "InvalidMeasurement",
        "NoFiniteNumerals",
        "NoInfiniteNumerals",
        "NonIntegerEndpoint",
        "NonIntegerOffset",
        "NotABijection",
        "NotASubset",
        "NotExact",
        "NotExpressible",
        "NotFinite",
        "NotSubsetOfRange",
        "OverlappingTargets",
        "ParseError",
        "PreconditionViolated",
    ),
    "derived": (
        "INCOMPARABLE",
        "Affine",
        "DefinedNumeral",
        "DefinitionSession",
        "ExpBase",
        "Pow",
        "cmp_defined",
        "define_by_inverse",
        "resolve_finite",
    ),
    "geometry": (
        "HalfPlaneReport",
        "RealInterval",
        "Strip",
        "halfplane_demo",
        "reflect_strip",
        "strip_subset",
        "uncovered_extent",
    ),
    "gnum": (
        "GROSSONE",
        "ONE",
        "ZERO",
        "GrossNumber",
        "NumberClass",
        "Sign",
        "add",
        "classify",
        "cmp",
        "div_exact",
        "finite",
        "format_numeral",
        "gross_term",
        "mul",
        "parse_numeral",
        "sub",
    ),
    "measure": (
        "AffinePiece",
        "Measurement",
        "canonical_injection",
        "canonical_measurement",
        "compare_measured",
        "complement_measurement",
        "concat",
        "intersection_split",
        "min_extraction_measurement",
        "transport",
    ),
    "numeral_system": (
        "BoundedFinite",
        "GrossBudget",
        "NumeralSystem",
        "Piraha",
        "expressible",
        "max_finite",
        "measure_in",
        "min_infinite",
        "parse_system",
    ),
    "sets": (
        "EMPTY",
        "GrossInterval",
        "IntervalSet",
        "cardinality",
        "contains",
        "convex_hull",
        "difference",
        "extrema",
        "intersect",
        "interval",
        "is_final_segment",
        "is_initial_segment",
        "is_subset",
        "make_set",
        "map_affine",
        "parse_set_expression",
        "union",
        "union_initial_segments",
    ),
}

_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """Import a submodule, or the submodule defining a public name, on first use."""
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))

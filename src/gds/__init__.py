"""Exact and heuristic concentration / box distances for finite geometric data sets.

The package imports lazily (PEP 562): `import gds` loads no submodule,
and a public name loads its home module on first access, so a CLI
process compiles only the modules its subcommand runs.
"""

from importlib import import_module as _import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "core": (
        "DiscreteMeasure",
        "FeatureFamily",
        "GeometricDataSet",
        "MmSpace",
        "gds_to_mm",
        "induced_metric",
        "mm_lip1_generators",
        "mm_to_gds",
        "pushforward",
        "pushforward_vector",
        "sample_lip1",
    ),
    "coupling": (
        "Coupling",
        "coupling_prohorov",
        "enumerate_couplings",
        "feasibility_lp",
        "glue",
        "max_mass_on_set",
        "product_coupling",
        "transportation_vertices",
    ),
    "metrics": (
        "CellSet",
        "hausdorff",
        "ky_fan",
        "ky_fan_coupling",
        "observable_diameter",
        "od_breakpoints",
        "partial_diameter",
        "prohorov",
        "sup_pseudometric",
    ),
    "observable": (
        "DconcResult",
        "dconc_at_coupling",
        "dconc_exact",
        "dconc_heuristic",
        "dconc_lower_witness",
        "feature_transfer",
    ),
    "box": (
        "BoxResult",
        "box_exact",
        "box_fixed_coupling",
        "box_heuristic",
        "box_mm_exact",
        "box_objective",
        "dis_coupling",
        "distortion",
        "lip1_witness",
    ),
    "spaces": (
        "levy_sequence",
        "levy_table",
        "n_point_discrete",
        "product_gds",
        "quotient_gds",
        "random_gds",
        "singleton_gds",
    ),
    "order": ("check_domination", "check_isomorphism"),
    "suite": (
        "PropertyOutcome",
        "SuiteReport",
        "property_names",
        "run_property",
        "verify_theorem_suite",
    ),
    "dataio": ("csv_text", "doc_to_gds", "emit_gds", "gds_to_doc", "parse_gds"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# The submodules that are public names themselves: each home module, and
# three that define no exported name.
_SUBMODULES = (*_EXPORTS, "errors", "flows", "numerics")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Exact and heuristic concentration / box distances for finite geometric data sets."""

from .core import (
    DiscreteMeasure,
    FeatureFamily,
    GeometricDataSet,
    MmSpace,
    gds_to_mm,
    induced_metric,
    mm_lip1_generators,
    mm_to_gds,
    pushforward,
    pushforward_vector,
    sample_lip1,
)
from .coupling import (
    Coupling,
    coupling_prohorov,
    enumerate_couplings,
    feasibility_lp,
    glue,
    max_mass_on_set,
    product_coupling,
    transportation_vertices,
)
from .metrics import (
    CellSet,
    hausdorff,
    ky_fan,
    ky_fan_coupling,
    observable_diameter,
    od_breakpoints,
    partial_diameter,
    prohorov,
    sup_pseudometric,
)
from .observable import (
    DconcResult,
    dconc_at_coupling,
    dconc_exact,
    dconc_heuristic,
    dconc_lower_witness,
    feature_transfer,
)
from .box import (
    BoxResult,
    box_exact,
    box_fixed_coupling,
    box_heuristic,
    box_mm_exact,
    box_objective,
    dis_coupling,
    distortion,
    lip1_witness,
)
from .spaces import (
    levy_sequence,
    levy_table,
    n_point_discrete,
    product_gds,
    quotient_gds,
    random_gds,
    singleton_gds,
)
from .order import check_domination, check_isomorphism
from .suite import (
    PropertyOutcome,
    SuiteReport,
    property_names,
    run_property,
    verify_theorem_suite,
)
from .dataio import csv_text, doc_to_gds, emit_gds, gds_to_doc, parse_gds

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact computer algebra for isolated complete intersection
singularities: Milnor numbers as local colengths, discriminant and
generic-line tests, and deformation-family theorem checks."""

from .poly import (
    Polynomial,
    divexact,
    format_poly,
    gcd,
    lowest_degree_form,
    order_of_vanishing,
    squarefree_part,
)
from .orders import elimination_order, grevlex, lex
from .basis import (
    StandardBasis,
    colength,
    complete_basis,
    local_colength,
    normal_form,
    step_budget,
)
from .ideals import (
    IdealPresentation,
    distinct_point_count,
    elimination_ideal,
    jacobian_matrix,
    maximal_minors,
    radical_membership,
)
from .germs import (
    GermFunction,
    IcisPresentation,
    LineDirection,
    discriminant,
    fiber_milnor_total,
    function_on_icis_milnor,
    hypersurface_milnor,
    icis_milnor,
    is_generic_line,
    line_intersection_number,
    milnor_at_point,
    multiplicity,
)
from .families import (
    CurveProbe,
    DeformationFamily,
    conservation_check,
    zero_fiber_forces_origin_check,
    critical_locus_report,
    greuel_conditions,
    splitting_check,
    radical_implies_axis_check,
)

__version__ = "0.1.0"

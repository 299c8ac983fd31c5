"""Realizability of finite 2-groups as unit groups of finite rings.

Constructs realizing residue rings for exponent-4 groups in characteristic
2, applies non-realizability screeners, searches for realizing ideals in
modular group rings, and emits machine-checkable certificates.
"""

from .errors import Fuchs2Error
from .gring import (
    IdealBasis,
    QuotientRing,
    RingElement,
    UnitGroup,
    cyclic_quotient_order,
    full_group_ring,
    ideal_closure,
    quotient_ring,
    scalar_unit_identity_check,
    unit_group,
)
from .groups import (
    CayleyGroup,
    Presentation,
    StructureReport,
    build_group,
    catalog_group,
    direct_product,
    is_indecomposable,
    is_isomorphic,
    isomorphism,
    structure_report,
)
from .parsing import (
    GroupSpec,
    element_literal,
    parse_element_literal,
    parse_group_spec,
    parse_presentation_file,
)
from .screeners import (
    Verdict,
    characteristic_candidates,
    exponent_bound,
    screen,
)
from .search import (
    FixtureResult,
    SearchConfig,
    enumerate_candidates,
    run_fixtures,
    search_realizing_ideal,
    verify_certificate,
)
from .star import (
    Certificate,
    PcSequence,
    complement_ideal,
    pc_sequence,
    realize_exponent4,
    star_table,
    star_table_from_elements,
    verify_star_conditions,
)

__version__ = "0.1.0"

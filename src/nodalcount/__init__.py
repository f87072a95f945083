"""Exact Burnside-ring verification of nodal-orbit counts in invariant conic pencils."""

from .burnside import (
    BurnsideElement,
    be_equal,
    decompose,
    inflate,
    table_of_marks,
)
from .geometry import (
    Conic,
    FieldExtensionError,
    IrrationalNodalParameter,
    NotGeneral,
    PencilAnalysis,
    PencilCase,
    ProjPoint,
    QuadExt,
    analyze_pencil,
    base_locus,
    collinear,
    d8_case_suite,
    d8_representation,
    factor_degenerate,
    field_sqrt,
    induced_sigma,
    klein_counterexample,
    klein_representation,
    nodal_members,
    pencil_invariant,
    pencil_through,
    sym2,
)
from .nodal import (
    ALL_PAIRINGS,
    NodalOrbitReport,
    Pairing,
    SigmaConfig,
    VerificationReport,
    enumerate_sigma_configs,
    nodal_orbit_reports,
    pairing_action,
    sigma_from_classes,
    verify,
    verify_all,
)
from .permgroup import (
    InvalidActionError,
    PermGroup,
    Permutation,
    SubgroupClass,
    all_subgroups,
    class_index_of,
    generate_group,
    orbit_and_stabilizer,
    parse_permutation,
    subgroup_classes,
    subgroup_label,
    verify_action,
)
from .presets import PRESET_ORDER, resolve_group

__version__ = "0.1.0"

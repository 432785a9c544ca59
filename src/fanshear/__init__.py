"""fanshear: exact deformation calculus for smooth complete toric fans.

Split a fan along a fibration over the line, shear the lower half-fan,
identify the deformed fan, and classify Fano / weak Fano behavior, all in
exact integer arithmetic.
"""

from .catalog import CatalogEntry, ExpectedOutcome, builtin, entry, verify_weakened
from .deform import (
    ConditionsReport,
    FiberKind,
    FiberType,
    Splitting,
    endpoint,
    endpoint_conditions,
    fiber_type,
    find_splittings,
    shear_lower,
    split_with_frame,
    star_equivalent,
)
from .divisor import (
    DivisorClassData,
    FanoClass,
    FanoReport,
    IrrelevantData,
    NefAmpleStatus,
    anticanonical,
    class_group,
    classify_fano,
    irrelevant_data,
    nef_ample_status,
)
from .errors import (
    BadFaceStructure,
    ConditionsNotSatisfied,
    DanglingRay,
    DimensionMismatch,
    FanError,
    InconsistentRelations,
    InternalError,
    NoContainingCone,
    NonPrimitiveRay,
    NotAPrimitiveCollection,
    ParseError,
    PreconditionViolated,
    ResultNotAFan,
    ResultNotComplete,
    ResultSingular,
    SingularCone,
    UnderdeterminedRelations,
    UnknownName,
)
from .fan import (
    Cone,
    Fan,
    FormalRelation,
    PrimitiveRelation,
    Ray,
    fan_from_relations,
    fan_isomorphism,
    is_complete,
    make_fan,
    primitive_collections,
    primitive_relation,
    primitive_relations,
)
from .fileformats import (
    format_relation,
    parse_fan,
    parse_relation_presentation,
    serialize_fan,
)
from .lattice import UnimodularMap, extends_to_basis, is_primitive, shear_map
from .scroll import (
    BundleSpec,
    DeformationChain,
    ReduceStep,
    bundle_fan,
    deformation_chain,
    reduce_step,
)

__version__ = "0.1.0"

"""Quantum-angle geometry of complex projective space.

Core objects: lines with a canonical phase gauge, the quantum angle
(arccos of the overlap modulus), closed-form alpha-set descriptors, circle
classification, Wigner symmetries, a brute-force numerical oracle, and the
verification checks that judge every closed form against it.
"""

from .alphasets import (
    AlphaSetDescriptor,
    AthetaFamily,
    Cardinality,
    CircleComponent,
    PointComponent,
    SphereSliceComponent,
    SymmetryVerdict,
    atheta_cardinality,
    classify_circle,
    collinear_triple_alpha_set,
    counterexample_witness,
    double_alpha_set_classify,
    pair_alpha_set,
    theta0_and_rho,
)
from .errors import (
    CaseError,
    DegeneratePairError,
    DegenerateTripleError,
    DegenerateVectorError,
    DimensionError,
    DomainError,
    NotAWignerMapError,
    NotCollinearError,
    ParameterError,
    QAngleError,
    RangeError,
    SchemaError,
    SpanError,
    WitnessRangeError,
)
from .oracle import (
    SampleCloud,
    alpha_set_numeric,
    discover_alpha_set,
    funnel_alpha_set,
    refine_alpha_members,
    root_count_on_circle,
    root_count_on_disk,
    sample_lines,
)
from .projspace import (
    AlphaConfig,
    Line,
    PairCanonicalForm,
    TripleCanonicalForm,
    canonical_line,
    canonical_pair_form,
    canonical_triple_form,
    inner,
    is_collinear,
    lines_equal,
    quantum_angle,
)
from .verify import empirical_high_symmetry_check, verify_basic_relations
from .wigner import (
    PreservationReport,
    WignerSymmetry,
    apply_symmetry,
    bridge_basis,
    circle_intersection,
    compose_symmetries,
    exotic_pi4_map,
    fit_from_probes,
    inverse_symmetry,
    orthocomplement_dim2,
    preservation_report,
    probe_set,
    random_wigner,
    same_induced_map,
)

__version__ = "0.1.0"

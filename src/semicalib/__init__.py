"""Almost complex structures and compatible calibrations from degree-2 forms.

Given a Riemannian metric and a 2-form of comass at most 1, sampled pointwise
or on a grid, this package constructs an almost complex structure J, a
compatible metric and a unit-comass calibration such that every plane
calibrated by the input form stays calibrated (and becomes J-holomorphic).
It also ships exact and sampled comass computation, normalized-power
evaluation via Pfaffians, and calibrated-plane testing.
"""

from .comass import (
    CalibrationVerdict,
    ComassEstimate,
    PowerForm,
    calibrated_eigenspace,
    comass_bruteforce,
    comass_exact,
    eval_power,
    pfaffian,
    test_calibrated,
)
from .config import MAX_DIM
from .construction import (
    PointConstruction,
    align_frame,
    almost_complex_structure,
    assemble_calibration,
    compatible_metric,
    construct_point,
    lift_odd,
    paired_frame,
)
from .errors import (
    ConstructionError,
    EpsilonInferenceError,
    GapViolation,
    NotPositiveDefiniteError,
    ParseError,
    RankDeficiencyError,
)
from .field import (
    ConstructionField,
    FieldConfig,
    FieldGrid,
    FieldPoint,
    PointOutcome,
    VerificationReport,
    build_report,
    demo_calfield,
    parse_calfield,
    process_field,
    verify_field,
)
from .forms import (
    Frame,
    MetricTensor,
    TwoForm,
    complement_basis,
    eval_two_form,
    g_inner,
    gram_schmidt,
    plane_area,
)
from .spectral import (
    Endomorphism,
    PairedSpectrum,
    associated_endomorphism,
    infer_epsilon,
    paired_spectrum,
    skew_adjoint_defect,
    split_spaces,
)

__version__ = "0.1.0"

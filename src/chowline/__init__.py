"""chowline: exact intersection-theory calculator.

Formal Chern and Segre classes of vector bundles as symmetric polynomials
in Chern roots, characteristic classes of virtual bundles, pushforward on
projective-bundle towers, determinant-of-cohomology degrees with a
pairing-degree oracle, and invariant-level Picard-category computations.
All arithmetic is exact rational; every value is immutable and every
operation pure, so independent computations can run concurrently without
coordination.
"""

__version__ = "0.1.0"

from .poly import Poly, PowerSeries
from .symfun import (
    elem_sym,
    exp_series,
    series_invert,
    to_chern_basis,
    todd_series,
)
from .chern_ring import (
    ChernSeries,
    Setup,
    chern_class,
    chern_from_segre,
    dual_class,
    segre_class,
    tensor_line,
    whitney_expand,
)
from .charclass import (
    CharClassSpec,
    VirtualBundle,
    borel_serre_check,
    ch,
    ch_lambda_minus_one,
    ch_tensor_check,
    evaluate_class_in_ring,
    lambda_minus_one,
    restriction_normal_bundle_check,
    td,
    td_star,
)
from .pushforward import (
    Tower,
    TowerClass,
    euler_characteristic,
    grr_codim1_report,
    integrate,
    push_level,
    symmetry_sign,
)
from .dcoh import (
    FamilyDescriptor,
    MultidegreeLineBundle,
    c1_pairing_check,
    cohomology_dims,
    deligne_pairing_degree,
    det_Rf_degree,
)
from .picard import (
    FGAbelianGroup,
    GroupoidSkeleton,
    MonoidPresentation,
    PicardInvariants,
    grothendieck_group,
    picardify,
    rationalize,
    smith_normal_form,
)

__all__ = [
    "__version__",
    # polynomial kernel
    "Poly", "PowerSeries", "elem_sym", "exp_series", "series_invert",
    "to_chern_basis", "todd_series",
    # Chern ring
    "ChernSeries", "Setup", "chern_class", "chern_from_segre", "dual_class",
    "segre_class", "tensor_line", "whitney_expand",
    # characteristic classes
    "CharClassSpec", "VirtualBundle", "borel_serre_check", "ch",
    "ch_lambda_minus_one", "ch_tensor_check", "evaluate_class_in_ring",
    "lambda_minus_one", "restriction_normal_bundle_check", "td", "td_star",
    # towers
    "Tower", "TowerClass", "euler_characteristic", "grr_codim1_report",
    "integrate", "push_level", "symmetry_sign",
    # cohomological oracle
    "FamilyDescriptor", "MultidegreeLineBundle", "c1_pairing_check",
    "cohomology_dims", "deligne_pairing_degree", "det_Rf_degree",
    # Picard invariants
    "FGAbelianGroup", "GroupoidSkeleton", "MonoidPresentation",
    "PicardInvariants", "grothendieck_group", "picardify", "rationalize",
    "smith_normal_form",
]

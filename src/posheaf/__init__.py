"""Partially ordered sheaves on finite locales.

Construction and verification of frames, sheaves, posheaves, completeness
and frame-sheaf structure, the frame-hom/frame-sheaf equivalence, and the
sheaf/local-homeomorphism equivalence, all with exhaustive finite oracles.
"""
from .report import Budget, CheckReport, PosheafError, ResourceLimit
from .frames import (
    FiniteFrame,
    FinitePoset,
    FrameHom,
    MonotoneMap,
    build_frame,
    close_and_verify_frame,
    frame_iso,
    heyting_implication,
    left_adjoint,
    verify_frame_hom,
)
from .sheaves import (
    Point,
    Presheaf,
    SheafCertificate,
    SheafMorphism,
    SubSheaf,
    enumerate_points,
    enumerate_subsheaves,
    epsilon,
    full_subsheaf,
    generate_subsheaf,
    product_sheaf,
    sheaf_iso,
    subterminal,
    terminal,
    verify_morphism,
    verify_presheaf,
    verify_sheaf,
    verify_subsheaf,
)
from .orders import (
    PoSheaf,
    classifier,
    discrete,
    down_closure,
    down_embedding,
    down_power_sheaf,
    enumerate_downsheaves,
    is_downsheaf,
    morphism_leq,
    omega,
    power_inclusion,
    power_sheaf,
    principal,
    verify_galois,
    verify_order_preserving,
    verify_posheaf,
)
from .complete import (
    BoundReport,
    CompletenessCertificate,
    bounds,
    check_finite_completeness,
    image_subsheaf,
    is_complete,
    is_frame_sheaf,
    product_posheaf,
    sup_in_open,
    sup_morphism,
    verify_frame_morphism,
    verify_sup_preserving,
)
from .frame_equiv import (
    FrameUnderX,
    frame_hom_to_sheaf,
    sheaf_to_frame_hom,
    verify_frame_equivalence,
)
from .locale_equiv import (
    EtaleLocale,
    GammaSheaf,
    LocaleOverX,
    Section,
    check_cposl,
    check_posl,
    counit,
    cross_sections,
    etale_locale,
    is_local_homeomorphism,
    is_spatial,
    lambda_on_morphism,
    triangle_gamma_side,
    triangle_identities,
    triangle_lambda_side,
    unit,
    verify_sh_lh_equivalence,
)
from .generate import GenConfig, MUTATION_KINDS, gen_frame, gen_posheaf, gen_sheaf, mutate
from .suite import acceptance_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

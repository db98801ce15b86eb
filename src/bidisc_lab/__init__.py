"""Numerical toolkit for the orbit geometry of the bidisc.

The package implements the disc automorphism group acting diagonally on
the bidisc, the explicit rational embeddings of the off-diagonal bidisc
into an affine quadric in C^3 (and projectively into CP^3), the matrix
groups acting on the ball and on the quadric, samplers for the group
orbits, and finite-difference CR analysis (Wirtinger gradients, complex
Hessians, restricted Levi forms) that certifies which orbits are
strongly pseudoconvex, Levi flat, or totally real.

Every quantitative claim is covered by a seeded property suite; run
them all with ``bidisc-lab verify`` or :func:`bidisc_lab.verify_all`.
"""

from .domains import (
    DomainSpec,
    ProjectivePoint,
    a_from_alpha,
    alpha_from_a,
    contains,
    eta_level,
    im_condition,
    minkowski_form,
    quadric_residual,
)
from .groups import (
    I21,
    ball_action,
    is_so_plus,
    o21_point_matrix,
    o21_residual,
    so21_sample,
    su11_embed,
    su11_orbit_invariant,
    su21_residual,
)
from .levi import (
    complex_hessian,
    complex_tangent,
    levi_restricted,
    totally_real_check,
    wirtinger_gradient,
)
from .maps import (
    ConjugationFit,
    conjugate_fit,
    map_H,
    map_H_inv,
    map_J,
    scale_g_t,
    swap_pair,
    sym,
)
from .mobius import (
    IDENTITY,
    MobiusMap,
    mobius_apply,
    mobius_apply_pair,
    pseudo_hyperbolic,
    random_mobius,
)
from .orbits import FAMILIES, Family, RowErrors, dump_orbit, on_orbit_residual, orbit_point, parse_orbit_spec
from .suites import (
    ConfigError,
    SuiteConfig,
    SuiteReport,
    all_suite_names,
    run_suite,
    run_suites,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "ProjectivePoint",
    "a_from_alpha",
    "alpha_from_a",
    "contains",
    "eta_level",
    "im_condition",
    "minkowski_form",
    "quadric_residual",
    "I21",
    "ball_action",
    "is_so_plus",
    "o21_point_matrix",
    "o21_residual",
    "so21_sample",
    "su11_embed",
    "su11_orbit_invariant",
    "su21_residual",
    "complex_hessian",
    "complex_tangent",
    "levi_restricted",
    "totally_real_check",
    "wirtinger_gradient",
    "ConjugationFit",
    "conjugate_fit",
    "map_H",
    "map_H_inv",
    "map_J",
    "scale_g_t",
    "swap_pair",
    "sym",
    "IDENTITY",
    "MobiusMap",
    "mobius_apply",
    "mobius_apply_pair",
    "pseudo_hyperbolic",
    "random_mobius",
    "FAMILIES",
    "Family",
    "RowErrors",
    "dump_orbit",
    "on_orbit_residual",
    "orbit_point",
    "parse_orbit_spec",
    "ConfigError",
    "SuiteConfig",
    "SuiteReport",
    "all_suite_names",
    "run_suite",
    "run_suites",
    "verify_all",
    "__version__",
]

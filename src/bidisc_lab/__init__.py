"""Numerical toolkit for the orbit geometry of the bidisc.

The package implements the disc automorphism group acting diagonally on
the bidisc, the explicit rational embeddings of the off-diagonal bidisc
into an affine quadric in C^3 (and projectively into CP^3), the
subdomains made of whole orbits (bands of rho levels, and their images,
bands of Minkowski levels on the quadric), the matrix groups acting on
the ball and on the quadric, samplers for the group orbits, and CR
analysis (exact Wirtinger gradients, complex Hessians, complex
tangents and restricted Levi forms) that certifies which orbits are
strongly pseudoconvex, Levi flat, or totally real.

Every quantitative claim is covered by a seeded property suite; run
them all with ``bidisc-lab verify`` or :func:`bidisc_lab.verify_all`.
"""

from .domains import (
    a_from_alpha,
    alpha_from_a,
    eta_level,
    im_condition,
    minkowski_form,
    quadric_band,
    quadric_residual,
    rho_band,
)
from .groups import (
    I21,
    ball_action,
    o21_point_matrix,
    so21_image,
    su11_embed,
    su11_orbit_invariant,
    u21_residual,
)
from .levi import (
    complex_hessian,
    complex_tangent,
    levi_restricted,
    totally_real_check,
    wirtinger_gradient,
)
from .maps import (
    map_H,
    map_H_inv,
    map_J,
    scale_g_t,
    sym,
)
from .mobius import (
    MobiusMap,
    mobius_apply,
    mobius_apply_pair,
    pseudo_hyperbolic,
    random_mobius,
)
from .orbits import FAMILIES, Family, dump_orbit, orbit_point, parse_orbit_spec
from .rng import RowErrors
from .suites import (
    ConfigError,
    SuiteConfig,
    all_suite_names,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "a_from_alpha",
    "alpha_from_a",
    "eta_level",
    "im_condition",
    "minkowski_form",
    "quadric_band",
    "quadric_residual",
    "rho_band",
    "I21",
    "ball_action",
    "o21_point_matrix",
    "so21_image",
    "su11_embed",
    "su11_orbit_invariant",
    "u21_residual",
    "complex_hessian",
    "complex_tangent",
    "levi_restricted",
    "totally_real_check",
    "wirtinger_gradient",
    "map_H",
    "map_H_inv",
    "map_J",
    "scale_g_t",
    "sym",
    "MobiusMap",
    "mobius_apply",
    "mobius_apply_pair",
    "pseudo_hyperbolic",
    "random_mobius",
    "FAMILIES",
    "Family",
    "RowErrors",
    "dump_orbit",
    "orbit_point",
    "parse_orbit_spec",
    "ConfigError",
    "SuiteConfig",
    "all_suite_names",
    "verify_all",
    "__version__",
]

"""Symplectic and Hamiltonian deformations of Gaussian Gabor frames.

Phase-space primitives, metaplectic transport of Gaussian windows through the
Siegel half-space, numerical frame-bound estimation, symplectic integrators,
and the weak (nearby-orbit) deformation scheme with its exact invariance
checks.
"""

__version__ = "0.1.0"

import os

# An idle OpenBLAS worker spins for about 2^28 cycles (~0.1 s) before it
# sleeps, from library load on and after every call, so a short gaborflow
# process keeps a second core busy for its whole life and slows down whenever
# that core is wanted elsewhere.  2^18 cycles still bridges the gaps between
# the calls of one eigen-solve.  OpenBLAS reads this when it loads, so it holds
# only if numpy is imported after gaborflow; a value set by the caller wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")

from .symplectic import (
    AffineSymplectic,
    GeneratingFunctionData,
    Lattice,
    adjoint_lattice,
    affine_compose,
    affine_inverse,
    from_generating_function,
    is_symplectic,
    lattice_map,
    lattice_points,
    make_generator,
    rotation,
    separable_lattice,
    standard_j,
    symplectic_form,
)
from .gaussians import (
    GaussianMixture,
    GaussianState,
    heisenberg_weyl_apply,
    inner_product,
    metaplectic_apply,
    rescale_window,
    siegel_action,
    standard_gaussian,
)
from .frames import (
    FrameReport,
    GaborSystem,
    covariance_check,
    frame_bounds,
    frame_sum,
    gaussian_frame_criterion,
    rescaling_check,
    translation_check,
)
from .dynamics import (
    Hamiltonian,
    Trajectory,
    builtin_hamiltonian,
    compose_hamiltonians,
    groupoid_check,
    hamiltonian_from_isotopy,
    hamiltonian_from_linear_path,
    integrate,
    invert_hamiltonian,
    quadratic_flow,
    suspended_flow,
    symplectic_euler_step,
    verlet_step,
)
from .deformation import (
    DeformationConfig,
    DeformationResult,
    deform_sweep,
    gaussian_corollary_check,
    invariance_check,
    weak_deform,
)

# The expression parser loads on first use of one of its names, so that calls
# that take no expression Hamiltonian do not import it.
_EXPRESSION_NAMES = (
    "ParseError",
    "eval_with_derivatives",
    "expression_hamiltonian",
    "parse_hamiltonian",
    "to_source",
)


def __getattr__(name):
    if name in _EXPRESSION_NAMES:
        from . import expressions

        return getattr(expressions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_EXPRESSION_NAMES)

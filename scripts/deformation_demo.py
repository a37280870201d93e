#!/usr/bin/env python3
"""Deform a Gaussian Gabor frame along the built-in Hamiltonian family and
report the invariance deviations and the bound trace of a harmonic sweep.

Usage: python scripts/deformation_demo.py
"""

import numpy as np

from gaborflow import (
    DeformationConfig,
    GaborSystem,
    GaussianState,
    builtin_hamiltonian,
    deform_sweep,
    invariance_check,
    separable_lattice,
    standard_gaussian,
    weak_deform,
)

HBAR = 1.0 / (2.0 * np.pi)


def random_state(rng):
    M = complex(rng.normal(0.0, 0.4), np.exp(rng.normal(0.0, 0.4)))
    return GaussianState([[M]], rng.normal(0.0, 1.0, 2), rng.normal(), HBAR)


def main():
    rng = np.random.default_rng(0)
    system = GaborSystem(standard_gaussian(1, HBAR), separable_lattice([0.9], [0.9], 8.0), HBAR)

    print("invariance deviations |deformed sum - matched original sum|:")
    for name in ("harmonic", "free", "shear", "anharmonic", "driven"):
        states = [random_state(rng) for _ in range(4)]
        t1, t2 = invariance_check(system, builtin_hamiltonian(name), 0.6, states)
        worst = np.max(np.abs(t1.sum(-1) - t2.sum(-1)))
        print(f"  {name:>10}: max deviation {worst:.3e}")

    print("\nweak deformation of the window under the anharmonic flow:")
    H = builtin_hamiltonian("anharmonic")
    for t in (0.25, 0.5, 1.0):
        result = weak_deform(system, H, t)
        M = result.window.M[0, 0]
        print(f"  t={t:4.2f}: window matrix {M:.6f}, action phase {result.action_phase:.6f}")

    print("\nharmonic sweep: bounds along the rotation isotopy")
    reports = deform_sweep(system, builtin_hamiltonian("harmonic"),
                           np.linspace(0.0, 2.0 * np.pi, 9),
                           DeformationConfig())
    for t, rep in reports:
        print(f"  t={t:5.2f}: a={rep.a_est:.6f} b={rep.b_est:.6f} frame={rep.is_frame}")


if __name__ == "__main__":
    main()

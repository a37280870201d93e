#!/usr/bin/env python3
"""Sweep the lattice density across the critical value and tabulate the
estimated frame bounds against the analytic criterion.

Usage: python scripts/frame_threshold_sweep.py [--out sweep.csv]
"""

import argparse

import numpy as np

from gaborflow import (
    GaborSystem,
    frame_bounds,
    gaussian_frame_criterion,
    separable_lattice,
    standard_gaussian,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None, help="optional CSV output path")
    args = parser.parse_args()

    hbar = 1.0 / (2.0 * np.pi)
    window = standard_gaussian(1, hbar)
    products = [0.36, 0.49, 0.64, 0.81, 0.9025, 1.0, 1.1025, 1.21, 1.44]

    rows = []
    print(f"{'ab':>8} {'a_est':>12} {'b_est':>12} {'a/b':>10} {'frame?':>7} {'criterion':>9}")
    for ab in products:
        side = np.sqrt(ab)
        lattice = separable_lattice([side], [side], 8.0)
        report = frame_bounds(GaborSystem(window, lattice, hbar))
        criterion = bool(gaussian_frame_criterion([side], [side], hbar)[0])
        print(f"{ab:8.4f} {report.a_est:12.4e} {report.b_est:12.6f} "
              f"{report.a_est / report.b_est:10.3e} {str(report.is_frame):>7} {str(criterion):>9}")
        rows.append((ab, report.a_est, report.b_est, report.is_frame, criterion))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("alpha_beta,a_est,b_est,is_frame,criterion\n")
            for ab, a, b, fl, cr in rows:
                fh.write(f"{ab:.17g},{a:.17g},{b:.17g},{fl},{cr}\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Edit the spectrum of the half-axis model operator.

The linear potential q(x) = x on [0, inf) has a closed-form eigenbasis
built from Hermite functions.  This script removes its lowest eigenvalue,
compares the new potential with the explicit formula, verifies the edited
spectrum by truncated-domain shooting, and samples the Weyl function to
show its half-plane asymptotics.
"""

import math

import numpy as np

from diracspec import (
    Grid,
    ModelSpectrum,
    SurgeryPlan,
    evf_halfaxis_derivative,
    halfaxis_eigenvalues,
    linear_potential,
    surgery,
    weyl_m0,
)


def main() -> None:
    grid = Grid(0.0, 12.0, 4096)
    base = ModelSpectrum.make("half_bc0", 8)

    print("== model spectrum (closed form) ==")
    print("  lambda_n:", {n: round(base.lams[n], 6) for n in range(-2, 3)})

    print("== removing lambda_0 = 0 ==")
    res = surgery(base, SurgeryPlan(removals=frozenset({0})), grid)
    xs = grid.nodes
    den = 0.5 * math.sqrt(math.pi) * np.array([math.erfc(x) for x in xs])
    closed = xs - np.exp(-xs * xs) / den
    inner = xs <= 6.0
    print(f"  sup |q - closed form| on x <= 6: "
          f"{np.max(np.abs(res.potential.q[inner] - closed[inner])):.2e}")
    roots = halfaxis_eigenvalues(res.potential, 0.0, -3.2, 3.2, x_max=12.0)
    print("  shooting roots after removal:", [round(r, 6) for r in roots])

    print("== Weyl function asymptotics for the model ==")
    pot = linear_potential(14.0)
    for mu in (40.0, 80.0):
        print(f"  |m0({mu:.0f}i) - i| = {abs(weyl_m0(pot, 0.0, mu, x_max=14.0) - 1j):.2e}")

    print("== eigenvalue-function slope at gamma = 0 ==")
    d = evf_halfaxis_derivative(pot, 0.0)
    print(f"  d(lambda)/d(gamma) = {d:.6f}  "
          f"(exact -2/sqrt(pi) = {-2.0 / math.sqrt(math.pi):.6f})")


if __name__ == "__main__":
    main()

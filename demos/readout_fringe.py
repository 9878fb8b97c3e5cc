"""Phase-sensitive red-sideband readout of a displacement.

A red-sideband pi-pulse followed by a carrier pi/2 maps the displacement
phase onto the qubit: P_down(phi) = 1/2 - |alpha| f(|alpha|) cos(phi).
The fringe contrast C = 2|alpha| f(|alpha|) is the quantity the whole
amplification protocol is designed to boost.

Run with:  python3 demos/readout_fringe.py
"""

import math

import numpy as np

from squeezeamp import DensityOperator, Displacement, FockSpace, coherent_state
from squeezeamp.spinmotion import (
    f_alpha,
    psrsb_contrast,
    psrsb_fringe_density,
    psrsb_pdown_series,
)


def main():
    alpha = 0.4
    print(f"fringe for |alpha| = {alpha}: series formula vs the coherent state's")
    print("density-operator readout on 48 Fock levels")
    print(" phi/pi    series     density")
    rho = DensityOperator.from_motional(coherent_state(Displacement(alpha), FockSpace(48)))
    phis = np.linspace(0, 2 * math.pi, 9)
    for phi, m in zip(phis, psrsb_fringe_density(rho, phis)):
        s = psrsb_pdown_series(alpha, phi)
        print(f"{phi / math.pi:6.2f}  {s:10.6f}  {m:10.6f}")

    print()
    print("contrast C(alpha) = 2 alpha f(alpha); linear for small alpha")
    print(" alpha     C        2*alpha   f(alpha)")
    for a in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0):
        print(f"{a:6.2f}  {psrsb_contrast(a):8.5f}  {2 * a:8.5f}  {f_alpha(a):8.5f}")
    print()
    print("the f(alpha) factor rolls the fringe off at large displacements,")
    print("so amplification pays off only while C stays in the linear regime")


if __name__ == "__main__":
    main()

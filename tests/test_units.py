"""Unit conventions: energies in cm^-1, times in ps, couplings in rad/ps."""

import math

from papsim import C_CM_PER_PS, K_RAD_PS_PER_CM


def test_conversion_constant():
    # one constant everywhere: K = 2 pi c with c in cm/ps
    assert abs(C_CM_PER_PS - 0.0299792458) < 1e-15
    assert abs(K_RAD_PS_PER_CM - 2.0 * math.pi * C_CM_PER_PS) < 1e-15
    assert abs(K_RAD_PS_PER_CM - 0.18836515673088532) < 1e-12

"""Unit conventions used throughout the package.

Energies and detunings are wavenumbers (cm^-1), times are picoseconds,
Rabi couplings and angular frequencies are rad/ps. A level at energy E
(cm^-1) evolves with angular frequency K * E (rad/ps).
"""

import math

# speed of light in cm/ps
C_CM_PER_PS = 0.0299792458

# rad/ps per cm^-1; the only place this constant is defined
K_RAD_PS_PER_CM = 2.0 * math.pi * C_CM_PER_PS


"""Reading a level spacing straight off a delay scan.

Two intermediate levels, 45 cm^-1 apart. A pump kick excites both; the
superposition beats at their spacing, and the dump kick transfers more
or less depending on where in the beat it lands. Scanning the intra-pair
delay therefore writes the spacing into the transfer efficiency, and a
Fourier transform of the scan reads it back out, the same trick
pump-probe spectroscopy uses.

The scan runs two columns of the 2D (delta_t, delta_T) map:

  column 0: delta_T chosen so both levels sit on comb teeth (each pair
            adds coherently, strong transfer, deep beats)
  column 1: delta_T pushed half a tooth off (successive pairs
            interfere destructively, transfer collapses)

Run time is a few seconds.
"""

import math

import numpy as np

from papsim import (C_CM_PER_PS, SyntheticMoleculeSpec,
                    build_synthetic_molecule, fft_delta_t, scan_2d,
                    write_map_csv, write_spectrum_csv)

SPACING = 45.0  # cm^-1 between the two intermediate levels


def main():
    mol = build_synthetic_molecule(SyntheticMoleculeSpec(
        2, 11145.0, (SPACING,), ground_b_energies=(-500.0,)))

    # c * delta_T = 6/5 puts every multiple of 5 cm^-1 on a comb tooth,
    # so 11145 and 11190 both ride the comb at this inter-pair delay
    dT_res = 18.0 / (15.0 * C_CM_PER_PS)
    tooth = 1.0 / (C_CM_PER_PS * 11145.0)
    dT_off = dT_res + 0.5 * tooth

    beat_period = 1.0 / (C_CM_PER_PS * SPACING)
    dts = 1.0 + (beat_period / 8.0) * np.arange(128)

    base = {"n_pairs": 50, "pump_area": math.pi, "dump_area": math.pi}
    emap = scan_2d(mol, base, [dT_res, dT_off], dts)

    on, off = emap.efficiency[:, 0], emap.efficiency[:, 1]
    print(f"comb-resonant column:  efficiency {on.min():.4f} to {on.max():.4f}")
    print(f"half-tooth-off column: efficiency {off.min():.2e} to {off.max():.2e}")
    print()

    spectrum = fft_delta_t(emap, 0)
    print(f"fft of the resonant column ({len(dts)} delays, "
          f"bin {spectrum.bin_width:.3f} cm^-1):")
    print(f"  strongest beat at {spectrum.peak_frequency:.3f} cm^-1, "
          f"level spacing is {SPACING}")

    write_map_csv("delay_beats_map.csv", emap)
    write_spectrum_csv("delay_beats_spectrum.csv", spectrum)
    print("\nwrote delay_beats_map.csv and delay_beats_spectrum.csv")

    _maybe_plot(emap, spectrum)


def _maybe_plot(emap, spectrum):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.5))
    ax1.plot(emap.delta_t_axis, emap.efficiency[:, 0], lw=1)
    ax1.set_xlabel("pump-dump delay (ps)")
    ax1.set_ylabel("transfer efficiency")
    ax1.set_title("comb-resonant column")
    ax2.plot(spectrum.frequency_axis, spectrum.magnitude, lw=1)
    ax2.axvline(SPACING, color="k", ls=":", lw=1)
    ax2.set_xlabel("beat frequency (cm$^{-1}$)")
    ax2.set_ylabel("|FFT|")
    ax2.set_title("spectrum of the beat")
    fig.tight_layout()
    fig.savefig("delay_beats.png", dpi=150)
    print("wrote delay_beats.png")


if __name__ == "__main__":
    main()

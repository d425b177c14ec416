"""Support shared by the test files.

* :func:`write_outputs` and the session fixture ``inprocess_dir``: one
  in-process pass of the 19 reproductions and the 10 sample scenarios, which
  the fingerprint pins and the process-identity checks both read.
* ``ROUND_OFF``: the floor for a value that is a BLAS kernel's round-off
  only, a relative deviation whose physical scale is 1.
* Unit-bookkeeping oracles that the package does not ship: the dipole moment
  of an oscillator strength, the coupling of a dipole in a cavity mode of given
  volume, and the oscillator strength of a small metal sphere.
"""

import math
import sys
from pathlib import Path

import pytest

from polariton_lab.scenarios import FIGURE_IDS, reproduce_figure, run_scenario_file
from polariton_lab.units import UNITS, OscillatorStrength

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
# an output's name: its figure id, or samples/<stem> for a sample scenario
OUTPUT_NAMES = [*FIGURE_IDS, *(f"samples/{sample.stem}" for sample in SAMPLES)]
# 8 ulps of 1: the SkylakeX, Haswell and Sandybridge kernels of OpenBLAS 0.3.31 move such values by up to 1.3 ulps
ROUND_OFF = 8 * sys.float_info.epsilon


def write_outputs(out_dir: Path) -> None:
    """Reproduce every figure into ``out_dir`` and run every sample into ``out_dir/samples``,
    so that the output named ``name`` has its CSV at ``out_dir/<name>.csv``."""
    for figure_id in FIGURE_IDS:
        reproduce_figure(figure_id, out_dir)
    for sample in SAMPLES:
        run_scenario_file(sample, out_dir / "samples")


@pytest.fixture(scope="session")
def inprocess_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("inprocess")
    write_outputs(out_dir)
    return out_dir


def oscillator_strength_to_dipole_moment(f, omega: float) -> float:
    """Transition dipole moment in Debye of oscillator strength ``f`` at ``omega`` (eV):
    mu = sqrt(f / (2 omega)) in natural units."""
    mu_e_nm = math.sqrt(float(f) / (2.0 * UNITS.proton_mass_energy * omega)) * UNITS.hbar_c
    return mu_e_nm / UNITS.debye_in_e_nm


def coupling_from_mode_volume(f_mat, V_eff: float, xi: float, cos_theta: float) -> float:
    """Coupling (eV) of a dipole in a cavity mode of volume ``V_eff`` (nm^3):
    g = (1/2) sqrt(f_mat / (eps0 V_eff)) Xi cos(theta), with Xi the mode
    amplitude at the dipole and theta its angle to the mode polarization."""
    f_red = OscillatorStrength(float(f_mat)).reduced()  # nm^3 eV^2
    return 0.5 * math.sqrt(4.0 * math.pi * f_red / V_eff) * xi * cos_theta


def plasmon_oscillator_strength(R: float, omega_cav: float) -> OscillatorStrength:
    """Oscillator strength of the dipolar mode of a metal sphere of radius ``R`` (nm):
    f_cav = 4 pi eps0 R^3 omega_cav^2, in e^2/m_p units."""
    return OscillatorStrength(R**3 * omega_cav**2 * UNITS.proton_mass_energy / (UNITS.coulomb_const * UNITS.hbar_c**2))

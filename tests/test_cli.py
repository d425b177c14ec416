"""Command-line interface: subcommands, exit codes, artifact reporting."""

import json
import subprocess
import sys

import numpy as np
import pytest

from polariton_lab import __version__, scenarios
from polariton_lab.cli import main

_SWEEP = """\
kind: eigen_sweep
schema: 1
parameters:
  variants: [SpC, MoC]
  omega_mat: 1.0
  coupling: {scaling: fixed, value: 0.3}
  sweep: {start: 0.2, stop: 2.0, num: 31}
"""

_ORACLE = """\
kind: oracle
schema: 1
parameters:
  flavor: quantum
  omega_cav: 1.0
  omega_mat: 1.0
  g_qed: 0.3
  D: MoC
  n_max: 10
  n_levels: 4
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_writes_artifacts(tmp_path, capsys):
    scenario = _write(tmp_path, "sweep.yaml", _SWEEP)
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("wrote ")]
    assert len(lines) == 2
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep.summary.json").exists()


def test_run_reports_svg_artifact(tmp_path, capsys):
    scenario = _write(
        tmp_path, "drawn.yaml", _SWEEP + "output:\n  format: svg\n"
    )
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("wrote ")) == 3
    assert (tmp_path / "drawn.svg").exists()


def test_schema_error_exits_2(tmp_path, capsys):
    scenario = _write(tmp_path, "bad.yaml", "kind: nonsense\nparameters: {}\n")
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 2
    assert "schema error:" in capsys.readouterr().err


def test_physics_error_exits_3(tmp_path, capsys):
    unstable = _ORACLE.replace("g_qed: 0.3", "g_qed: 0.6").replace("D: MoC", "D: 0.0")
    scenario = _write(tmp_path, "unstable.yaml", unstable)
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "physics error:" in err
    assert "unstable" in err


def test_pole_error_names_the_grid_point(tmp_path, capsys):
    # lossless and uncoupled: the drive at row 2 (omega = 3.0) sits on the
    # bare cavity mode
    spectrum = """\
kind: spectrum
schema: 1
parameters:
  omega_grid: {start: 2.0, stop: 4.0, num: 5}
  curves:
    - {label: bare, variant: SpC, omega_cav: 3.0, omega_mat: 2.2, g: 0.0,
       f_cav: 100.0, f_mat: 10.0}
"""
    scenario = _write(tmp_path, "pole.yaml", spectrum)
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "3.0 eV (grid row 2)" in err


def test_determinant_check_covers_every_sweep_point(tmp_path, capsys, monkeypatch):
    exact = scenarios.branch_frequencies

    def corrupted(*args):
        plus, minus = exact(*args)
        plus = plus.copy()
        plus[17] *= 1.001
        return plus, minus

    monkeypatch.setattr(scenarios, "branch_frequencies", corrupted)
    scenario = _write(tmp_path, "sweep.yaml", _SWEEP)
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "determinant residual" in err
    assert "sweep row 17" in err


def test_quantum_oracle_labels_the_quartic_roots(tmp_path):
    oracle = _write(tmp_path, "check.yaml", _ORACLE)
    assert main(["oracle", str(oracle), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "oracle.summary.json").read_text())
    lower, upper = summary["omega_minus_quartic_eV"], summary["omega_plus_quartic_eV"]
    assert lower < upper
    levels = np.loadtxt(tmp_path / "oracle.csv", delimiter=",", skiprows=1)
    assert abs(levels[0, 1] - lower) < 1e-5


def test_io_error_exits_4(tmp_path, capsys):
    missing = tmp_path / "not_there.yaml"
    code = main(["run", str(missing), "--out", str(tmp_path)])
    assert code == 4
    assert "i/o error:" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path, capsys):
    scenario = _write(tmp_path, "sweep.yaml", _SWEEP)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["run", str(scenario), "--out", str(blocker)])
    assert code == 4
    assert "i/o error:" in capsys.readouterr().err


def test_reproduce_known_figure(tmp_path, capsys):
    code = main(["reproduce", "figS1c", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "figS1c.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_reproduce_unknown_figure_exits_2(tmp_path, capsys):
    code = main(["reproduce", "fig0zz", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "valid ids" in err


def test_oracle_accepts_only_oracle_scenarios(tmp_path, capsys):
    sweep = _write(tmp_path, "sweep.yaml", _SWEEP)
    code = main(["oracle", str(sweep), "--out", str(tmp_path)])
    assert code == 2
    assert "requires kind 'oracle'" in capsys.readouterr().err
    oracle = _write(tmp_path, "check.yaml", _ORACLE)
    code = main(["oracle", str(oracle), "--out", str(tmp_path)])
    assert code == 0
    # the oracle command names artifacts by kind, not by the input stem
    assert (tmp_path / "oracle.csv").exists()


def test_constants_reports_unit_system(capsys):
    code = main(["constants"])
    assert code == 0
    out = capsys.readouterr().out
    for name in (
        "hbar_c",
        "coulomb_const",
        "proton_mass_energy",
        "debye_in_e_nm",
        "light_speed",
    ):
        assert name in out
    line = next(l for l in out.splitlines() if l.startswith("hbar_c"))
    assert float(line.split("=")[1]) == pytest.approx(197.3269804, rel=1e-12)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polariton_lab.cli", "constants"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "hbar_c" in proc.stdout

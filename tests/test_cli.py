"""Command-line interface: subcommands, exit codes, artifact reporting."""

import copy
import gc
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import SAMPLES

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

# omega_cav = 4 g^2 / omega_mat exactly: the lower polariton is a zero mode
_MARGINAL = """\
kind: oracle
schema: 1
parameters:
  flavor: quantum
  omega_cav: 0.36
  omega_mat: 1
  g_qed: 0.3
  D: SpC
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


def test_repeated_key_exits_2(tmp_path, capsys):
    repeated = _ORACLE.replace("  g_qed: 0.3\n", "  g_qed: 0.1\n  g_qed: 0.45\n")
    scenario = _write(tmp_path, "repeated.yaml", repeated)
    code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "schema error: (file): key 'g_qed' is repeated in one mapping (line 8)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_svg_output_path_naming_the_csv_exits_2(tmp_path, capsys):
    scenario = _write(
        tmp_path, "drawn.yaml", _SWEEP + "output:\n  path: plot.svg\n  format: svg\n"
    )
    code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "output.path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_physics_error_exits_3(tmp_path, capsys):
    unstable = _ORACLE.replace("g_qed: 0.3", "g_qed: 0.6").replace("D: MoC", "D: 0.0")
    scenario = _write(tmp_path, "unstable.yaml", unstable)
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "physics error:" in err
    assert "unstable" in err


def test_marginal_point_oracle_exits_3(tmp_path, capsys):
    scenario = _write(tmp_path, "marginal.yaml", _MARGINAL)
    code = main(["oracle", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "unstable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    summary = json.loads((tmp_path / "check.summary.json").read_text())
    lower, upper = summary["omega_minus_quartic_eV"], summary["omega_plus_quartic_eV"]
    assert lower < upper
    levels = np.loadtxt(tmp_path / "check.csv", delimiter=",", skiprows=1)
    assert abs(levels[0, 1] - lower) < 1e-5


def test_frame_check_without_a_dipole_gauge_partner_exits_3(tmp_path, capsys):
    # stable parameters whose partner coupling would be imaginary
    text = _ORACLE.replace("omega_cav: 1.0", "omega_cav: 0.5").replace("g_qed: 0.3", "g_qed: 0.1")
    text = text.replace("D: MoC", "D: 0.5") + "  frame_check: true\n"
    oracle = _write(tmp_path, "partnerless.yaml", text)
    assert main(["oracle", str(oracle), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "no dipole-gauge frame partner for D = 0.5 eV, omega_cav = 0.5 eV, omega_mat = 1 eV" in err


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
    # like run, the oracle command names artifacts by the input stem
    assert (tmp_path / "check.csv").exists()
    assert not (tmp_path / "oracle.csv").exists()


def test_sample_oracles_keep_their_outputs_in_one_directory(tmp_path, capsys):
    samples = Path(__file__).resolve().parent.parent / "scenarios"
    stems = ("oracle_quantum", "oracle_polarizability")
    for stem in stems:
        assert main(["oracle", str(samples / f"{stem}.yaml"), "--out", str(tmp_path)]) == 0
    for stem in stems:
        summary = json.loads((tmp_path / f"{stem}.summary.json").read_text())
        assert summary["source"].endswith(f"{stem}.yaml")
        assert list(summary["outputs"]) == [f"{stem}.csv"]
        assert (tmp_path / f"{stem}.csv").exists()


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


def _process(*argv):
    """Run the command line in its own process, as the console script does."""
    return subprocess.run([sys.executable, "-m", "polariton_lab.cli", *argv], capture_output=True, text=True)


def test_process_reproduce_writes_what_main_writes(tmp_path, capsys):
    process_dir, main_dir = tmp_path / "process", tmp_path / "main"
    proc = _process("reproduce", "fig1e", "--out", str(process_dir))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert main(["reproduce", "fig1e", "--out", str(main_dir)]) == 0
    assert proc.stdout == capsys.readouterr().out.replace(str(main_dir), str(process_dir))
    for name in ("fig1e.csv", "fig1e.summary.json"):
        assert (process_dir / name).read_bytes() == (main_dir / name).read_bytes()


@pytest.mark.parametrize(
    "case, expected, prefix",
    [("malformed", 2, "schema error:"), ("marginal", 3, "physics error:"), ("out-is-a-file", 4, "i/o error:")],
)
def test_process_exit_codes(tmp_path, case, expected, prefix):
    if case == "malformed":
        argv = ["run", str(_write(tmp_path, "bad.yaml", "kind: [unclosed\n")), "--out", str(tmp_path)]
    elif case == "marginal":
        argv = ["oracle", str(_write(tmp_path, "marginal.yaml", _MARGINAL)), "--out", str(tmp_path)]
    else:
        argv = ["reproduce", "fig1e", "--out", str(_write(tmp_path, "blocker", "a file, not a directory"))]
    proc = _process(*argv)
    assert proc.returncode == expected
    assert proc.stdout == ""
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr


def test_process_entry_runs_without_the_collector():
    script = (
        "import gc, sys\n"
        "from polariton_lab.cli import main\n"
        "sys.argv = ['polariton-lab', 'constants']\n"
        "code = main()\n"
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False True"


def test_main_with_arguments_leaves_the_collector_alone(tmp_path, capsys):
    before = (gc.isenabled(), gc.get_freeze_count())
    assert main(["reproduce", "fig1e", "--out", str(tmp_path)]) == 0
    assert main(["run", str(tmp_path / "missing.yaml")]) == 4
    with pytest.raises(SystemExit):
        main(["--version"])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, polariton_lab.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_SAMPLES = Path(__file__).resolve().parent.parent / "scenarios"


# runs the console script's entry, cli.main() with no arguments (so it reads
# sys.argv and runs without the collector), in a fresh interpreter, then prints
# the exit code and the package modules (and yaml and html) that the run loaded
_FRESH_MAIN = """\
import json, sys
from polariton_lab import cli
sys.argv[0] = "polariton-lab"
code = cli.main()
loaded = sorted(m.split(".")[-1] for m in sys.modules if m in ("yaml", "html") or m.startswith("polariton_lab."))
print(json.dumps([code, loaded]))
"""

# what a reproduce loads whatever the figure: the CLI, the scenario layer and its imports
_REPRODUCE_CORE = {"cli", "scenarios", "_render", "figures", "models", "units"}
# the layers each figure kind (a fieldmap: each scene) loads besides
_KIND_LAYERS = {
    "eigen_sweep": set(),
    "min_splitting": set(),
    "fieldmap/box": {"fields"},
    "fieldmap/nanoparticle": {"driven", "fields"},
    "fractions": {"fields"},
    "spectrum": {"driven"},
    "permittivity": {"material"},
    "dispersion": {"material"},
}


def _fresh_main(*argv):
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, set(loaded)


def _assert_same_outputs(process_dir, inprocess_dir, stem):
    """The process wrote the CSV, any SVG and the summary of ``stem`` that the in-process pass wrote, byte for byte."""
    written = sorted(path.name for path in process_dir.glob(f"{stem}.*"))
    assert {f"{stem}.csv", f"{stem}.summary.json"} <= set(written)
    assert written == sorted(path.name for path in inprocess_dir.glob(f"{stem}.*"))
    for name in written:
        assert (process_dir / name).read_bytes() == (inprocess_dir / name).read_bytes(), name


@pytest.mark.parametrize("figure_id", scenarios.FIGURE_IDS)
def test_reproduce_imports_only_what_its_figure_needs(tmp_path, inprocess_dir, figure_id):
    code, loaded = _fresh_main("reproduce", figure_id, "--out", str(tmp_path))
    assert code == 0
    assert not loaded & {"yaml", "html", "ensemble", "hopfield"}
    document = scenarios.figure_document(figure_id)
    kind = document["kind"]
    if kind == "fieldmap":
        kind += "/" + document["parameters"]["scene"]
    assert loaded == _REPRODUCE_CORE | _KIND_LAYERS[kind]
    _assert_same_outputs(tmp_path, inprocess_dir, figure_id)


@pytest.mark.parametrize("module, imports", [("_render", set()), ("figures", {"units"}), ("cli", set())])
def test_the_artifact_text_and_the_figure_table_load_no_physics_layer(module, imports):
    # a from-import asks the package for the attribute before it imports the submodule
    for statement in (f"import polariton_lab.{module}", f"from polariton_lab import {module}"):
        script = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = {name for name in json.loads(proc.stdout) if name.split(".")[0] == "polariton_lab"}
        assert loaded == {"polariton_lab"} | {f"polariton_lab.{name}" for name in {module} | imports}, statement


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda sample: sample.stem)
def test_run_loads_yaml_and_the_oracle_layer_on_use(tmp_path, inprocess_dir, sample):
    # the in-process pass's path string, which the summary records as its source
    code, loaded = _fresh_main("run", str(sample), "--out", str(tmp_path))
    assert code == 0
    assert "yaml" in loaded
    assert ("hopfield" in loaded) == (_source_document(sample.stem)["kind"] == "oracle")
    _assert_same_outputs(tmp_path, inprocess_dir / "samples", sample.stem)


def _source_document(source):
    """A figure's document, or a sample scenario's, by figure id or sample stem."""
    if source in scenarios.FIGURE_IDS:
        return scenarios.figure_document(source)
    return yaml.safe_load((_SAMPLES / f"{source}.yaml").read_text())


def _mutated(document, path, value):
    doc = copy.deepcopy(document)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "source, path, value",
    [
        ("permittivity_sic", ("parameters", "fit", "omega_lo"), 1e200),
        ("nanoparticle_spectrum", ("parameters", "curves", 0, "R_cav"), 1e200),
        ("ensemble_n20", ("parameters", "cavity", "lateral_period"), 1e-320),
        ("ensemble_n20", ("parameters", "cavity", "lateral_period"), 1e200),
        ("oracle_quantum", ("parameters", "omega_cav"), 1e200),
        ("oracle_quantum", ("parameters", "omega_cav"), 1e308),
        ("dispersion_bulk", ("parameters", "omega_to"), 1e200),
        ("fig4b", ("parameters", "Omega_mat"), 1e200),
        ("fieldmap_box", ("parameters", "box", "omega_cav"), 1e200),
        ("ensemble_n20", ("parameters", "cavity", "modes"), [{"n": 1}, {"n": 1, "k_parallel": [0, 0]}]),
    ],
    ids=[
        "fit-omega_lo-1e200",
        "curve-R_cav-1e200",
        "lateral_period-1e-320",
        "lateral_period-1e200",
        "oracle-omega_cav-1e200",
        "oracle-omega_cav-1e308",
        "dispersion-omega_to-1e200",
        "fig4b-Omega_mat-1e200",
        "box-omega_cav-1e200",
        "repeated-mode",
    ],
)
def test_hostile_values_exit_3(tmp_path, capsys, source, path, value):
    document = _mutated(_source_document(source), path, value)
    scenario = _write(tmp_path, "hostile.yaml", yaml.safe_dump(document))
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 3
    assert f"scenario {str(scenario)!r}" in capsys.readouterr().err


_PERMITTIVITY_WITHOUT_G = {"models": ["MoC"], "Omega_mat": 0.1, "omega_grid": {"start": 0.0, "stop": 0.2, "num": 5}}


@pytest.mark.parametrize(
    "source, path, value, error",
    [
        ("fig1c", ("parameters",), [1.0, 2.0], "parameters: expected a mapping, got list"),
        ("eigen_sweep_ultrastrong", ("parameters", "variants"), [], "parameters.variants: list must not be empty"),
        ("dispersion_bulk", ("parameters", "k_grid", "start"), -1.0,
         "parameters.k_grid: grid values must be >= 0.0, got -1.0"),
        ("permittivity_sic", ("parameters",), _PERMITTIVITY_WITHOUT_G, "parameters.G: missing required key"),
        ("ensemble_n20", ("parameters", "lattice", "shape"), [2**70, 1, 1],
         f"parameters.lattice.shape: at most 500 dipoles (nx * ny * nz), got {2**70}"),
        ("ensemble_n20", ("parameters", "lattice", "shape"), [1000, 1000, 1000],
         "parameters.lattice.shape: at most 500 dipoles (nx * ny * nz), got 1000000000"),
        ("ensemble_n20", ("parameters", "cavity", "modes"), [{"n": n} for n in range(1, 502)],
         "parameters.cavity.modes: at most 500 modes per scenario"),
    ],
    ids=[
        "parameters-list",
        "no-variants",
        "k_grid-below-0",
        "Omega_mat-without-G",
        "lattice-shape-2**70",
        "lattice-shape-1000**3",
        "modes-501",
    ],
)
def test_schema_errors_exit_2_naming_the_key_path(tmp_path, capsys, source, path, value, error):
    document = _mutated(_source_document(source), path, value)
    scenario = _write(tmp_path, "bad.yaml", yaml.safe_dump(document))
    code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"schema error: {error}\n"
    assert not (tmp_path / "out").exists()


# one bad value of each driven-pair field, and where each kind that drives a pair declares it
_PAIR_BAD_VALUES = {"omega_cav": 0, "omega_mat": -1, "kappa": -1, "gamma": -0.5, "f_cav": 0, "f_mat": 0}
_PAIR_HOSTS = {
    "spectrum": ("nanoparticle_spectrum", ("parameters", "curves", 0)),
    "fieldmap": ("fig3b", ("parameters", "nanoparticle")),
    "oracle": ("oracle_polarizability", ("parameters",)),
}


@pytest.mark.parametrize("key", _PAIR_BAD_VALUES)
@pytest.mark.parametrize("kind", _PAIR_HOSTS)
def test_bad_pair_field_exits_2_naming_its_key_path(tmp_path, capsys, kind, key):
    source, host = _PAIR_HOSTS[kind]
    document = _mutated(_source_document(source), (*host, key), _PAIR_BAD_VALUES[key])
    scenario = _write(tmp_path, "bad_pair.yaml", yaml.safe_dump(document))
    code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    key_path = ".".join(map(str, (*host, key)))
    assert f"schema error: {key_path}: must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _ensemble_n500(include_dipole_dipole):
    """The sample ensemble grown to 5 x 5 x 20 = 500 dipoles, the package's cap."""
    document = _mutated(_source_document("ensemble_n20"), ("parameters", "lattice", "shape"), [5, 5, 20])
    document["parameters"]["include_dipole_dipole"] = include_dipole_dipole
    return document


def _fock_frame_check(D, omega_cav, g_qed):
    parameters = dict(flavor="quantum", omega_cav=omega_cav, omega_mat=1.0, g_qed=g_qed, D=D, n_max=40, frame_check=True)
    return {"kind": "oracle", "schema": 1, "parameters": parameters}


# the 500-dipole ensembles; the Fock documents of the benchmark box; the two
# converged edges where the Fock solve's principal-block start is weakest; and a
# strong-coupling RWA document whose Krylov levels miss one, so a band is solved whole
_REPEATED_DOCUMENTS = {
    "n500-false": _ensemble_n500(False),
    "n500-true": _ensemble_n500(True),
    "fock-SpC": _fock_frame_check("SpC", 1.1, 0.3),
    "fock-MoC": _fock_frame_check("MoC", 1.1, 0.3),
    "edge-SpC": _fock_frame_check("SpC", 0.5, 0.3),
    "edge-MoC": _fock_frame_check("MoC", 0.5, 0.8),
    "rwa-strong": {
        "kind": "oracle",
        "schema": 1,
        "parameters": dict(flavor="quantum", omega_cav=1, omega_mat=1, g_qed=1.5, D="MoC", n_max=40, n_levels=12, rwa=True),
    },
}

# runs each scenario file given after the output directory, as `run` does
_RUN_EACH = """\
import sys
from polariton_lab.cli import main
out_dir, *paths = sys.argv[1:]
sys.exit(max(main(["run", path, "--out", out_dir]) for path in paths))
"""


@pytest.fixture(scope="module")
def repeated_runs(tmp_path_factory):
    """Each of ``_REPEATED_DOCUMENTS`` run once in this process and once in a fresh
    one (all of them in one); the two output directories."""
    root = tmp_path_factory.mktemp("repeated")
    paths = [str(_write(root, f"{name}.yaml", yaml.safe_dump(doc))) for name, doc in _REPEATED_DOCUMENTS.items()]
    inprocess_dir, process_dir = root / "inprocess", root / "process"
    for path in paths:
        assert main(["run", path, "--out", str(inprocess_dir)]) == 0
    proc = subprocess.run([sys.executable, "-c", _RUN_EACH, str(process_dir), *paths], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return inprocess_dir, process_dir


@pytest.mark.parametrize("name", _REPEATED_DOCUMENTS)
def test_ensemble_and_fock_documents_write_the_same_bytes_on_every_run(repeated_runs, name):
    inprocess_dir, process_dir = repeated_runs
    _assert_same_outputs(process_dir, inprocess_dir, name)


@pytest.mark.parametrize("name", ["edge-SpC", "edge-MoC"])
def test_fock_edges_keep_the_lowest_levels_on_the_exact_ladder(repeated_runs, name):
    summary = json.loads((repeated_runs[0] / f"{name}.summary.json").read_text())
    assert summary["fock_ladder_deviation_eV"] <= 1e-11

"""Scenario documents: schema validation, artifacts, figure registry."""

import copy
import csv
import hashlib
import io
import json
import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polariton_lab
from polariton_lab import PolaritonError, SchemaError, ensemble, hopfield, scenarios
from polariton_lab.cli import main
from polariton_lab.ensemble import FabryPerotSpec, _pairwise_couplings, cubic_dipole_lattice
from polariton_lab.scenarios import (
    FIGURE_IDS,
    SCENARIO_KINDS,
    _render_csv,
    _render_svg,
    _Table,
    figure_document,
    load_scenario_file,
    reproduce_figure,
    run_scenario_document,
    run_scenario_file,
)

_SAMPLES = Path(__file__).resolve().parent.parent / "scenarios"


def _run(document, tmp_path, stem="case"):
    raw = json.dumps(document, sort_keys=True).encode()
    return run_scenario_document(
        document,
        source_name="test",
        input_bytes=raw,
        out_dir=tmp_path,
        default_stem=stem,
    )


def _sweep_doc(**overrides):
    doc = {
        "kind": "eigen_sweep",
        "schema": 1,
        "parameters": {
            "variants": ["SpC", "MoC"],
            "omega_mat": 1.0,
            "coupling": {"scaling": "fixed", "value": 0.3},
            "sweep": {"start": 0.2, "stop": 2.0, "num": 41},
        },
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# schema validation


def test_missing_kind_rejected(tmp_path):
    with pytest.raises(SchemaError) as err:
        _run({}, tmp_path)
    assert err.value.path == "kind"
    with pytest.raises(SchemaError):
        _run(None, tmp_path)


def test_unknown_kind_lists_choices(tmp_path):
    with pytest.raises(SchemaError, match="eigen_sweep"):
        _run({"kind": "made_up", "parameters": {}}, tmp_path)


def test_unknown_keys_rejected_with_paths(tmp_path):
    doc = _sweep_doc()
    doc["extra_top"] = 1
    with pytest.raises(SchemaError, match="extra_top"):
        _run(doc, tmp_path)
    doc = _sweep_doc()
    doc["parameters"]["typo_key"] = 1
    with pytest.raises(SchemaError) as err:
        _run(doc, tmp_path)
    assert "typo_key" in str(err.value)
    assert err.value.path.startswith("parameters")
    doc = _sweep_doc()
    doc["parameters"]["sweep"]["stray"] = 1
    with pytest.raises(SchemaError, match="parameters.sweep"):
        _run(doc, tmp_path)


def test_schema_version_pinned(tmp_path):
    with pytest.raises(SchemaError, match="unsupported schema version"):
        _run(_sweep_doc(schema=2), tmp_path)


def test_bad_grid_rejected(tmp_path):
    doc = _sweep_doc()
    doc["parameters"]["sweep"] = {"start": 2.0, "stop": 0.5, "num": 10}
    with pytest.raises(SchemaError, match="must be >= start"):
        _run(doc, tmp_path)
    doc = _sweep_doc()
    doc["parameters"]["sweep"] = {"start": -1.0, "stop": 2.0, "num": 10}
    with pytest.raises(SchemaError, match="must be >"):
        _run(doc, tmp_path)
    doc = _sweep_doc()
    doc["parameters"]["sweep"] = {"start": 0.2, "stop": 2.0, "num": 0}
    with pytest.raises(SchemaError):
        _run(doc, tmp_path)


def test_non_numeric_value_names_its_path(tmp_path):
    doc = _sweep_doc()
    doc["parameters"]["omega_mat"] = "3eV"
    with pytest.raises(SchemaError) as err:
        _run(doc, tmp_path)
    assert err.value.path == "parameters.omega_mat"


@pytest.mark.parametrize("sample", ["fieldmap_box", "fractions_box"])
def test_negative_box_coupling_names_its_path(tmp_path, capsys, sample):
    # the box scene's MoC coupling must be >= 0: a schema error (exit 2)
    # naming the key, not a physics error from inside the field kernel
    doc = yaml.safe_load((_SAMPLES / f"{sample}.yaml").read_text())
    doc["parameters"]["g"] = -0.3
    with pytest.raises(SchemaError) as err:
        _run(doc, tmp_path)
    assert err.value.path == "parameters.g"
    scenario = tmp_path / "negative_g.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 2
    assert "parameters.g" in capsys.readouterr().err


def test_alternative_requires_its_base_variant(tmp_path):
    doc = _sweep_doc()
    doc["parameters"]["variants"] = ["SpC"]
    doc["parameters"]["alternatives"] = ["A1"]
    with pytest.raises(SchemaError, match="dressed form of MoC"):
        _run(doc, tmp_path)


def test_duplicate_variant_entries_rejected(tmp_path):
    doc = _sweep_doc()
    doc["parameters"]["variants"] = ["SpC", "SpC"]
    with pytest.raises(SchemaError, match="duplicate"):
        _run(doc, tmp_path)


def _spectrum_doc(n_curves=1, label="a"):
    curves = []
    for i in range(n_curves):
        curves.append(
            {
                "label": f"{label}{i}" if n_curves > 1 else label,
                "variant": "SpC",
                "omega_cav": 3.0,
                "omega_mat": 3.0,
                "kappa": 0.02,
                "gamma": 0.01,
                "g": 0.1,
                "f_cav": 100.0,
                "f_mat": 10.0,
            }
        )
    return {
        "kind": "spectrum",
        "parameters": {
            "omega_grid": {"start": 2.5, "stop": 3.5, "num": 21},
            "curves": curves,
        },
    }


def test_spectrum_curve_limits(tmp_path):
    with pytest.raises(SchemaError, match="at most 8"):
        _run(_spectrum_doc(n_curves=9), tmp_path)
    doc = _spectrum_doc(n_curves=2)
    doc["parameters"]["curves"][1]["label"] = doc["parameters"]["curves"][0]["label"]
    with pytest.raises(SchemaError, match="duplicate curve labels"):
        _run(doc, tmp_path)
    doc = _spectrum_doc()
    doc["parameters"]["curves"][0]["label"] = "bad label!"
    with pytest.raises(SchemaError, match="alphanumeric"):
        _run(doc, tmp_path)


def test_permittivity_fit_is_exclusive(tmp_path):
    doc = {
        "kind": "permittivity",
        "parameters": {
            "models": ["MoC"],
            "fit": {"omega_to": 0.1, "omega_lo": 0.12},
            "Omega_mat": 0.1,
            "G": 0.02,
            "omega_grid": {"start": 0.0, "stop": 0.2, "num": 11},
        },
    }
    with pytest.raises(SchemaError, match="not both"):
        _run(doc, tmp_path)


def test_amplitude_permittivity_rejects_screening(tmp_path):
    doc = {
        "kind": "permittivity",
        "parameters": {
            "models": ["SpC"],
            "epsilon_inf": 2.0,
            "Omega_mat": 0.1,
            "G": 0.02,
            "omega_grid": {"start": 0.01, "stop": 0.09, "num": 11},
        },
    }
    with pytest.raises(SchemaError, match="epsilon_inf"):
        _run(doc, tmp_path)


@pytest.mark.parametrize("content", ["dispersion", "couplings"])
def test_uncoupled_dispersion_runs_from_zero_wavevector(tmp_path, content):
    # at G = 0 and k = 0 the Coulomb-dressed (A1) photon sits at zero
    # frequency; the dressing leaves it uncoupled instead of dividing by 0
    doc = {
        "kind": "dispersion",
        "parameters": {
            "models": ["MoC", "A1", "A2"],
            "G_over_omega_to": 0,
            "k_grid": {"start": 0.0, "stop": 3.0, "num": 31},
            "content": content,
        },
    }
    scenario = tmp_path / "uncoupled.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "uncoupled.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    table = np.array(rows[1:], dtype=float)
    column = {cell: table[:, i] for i, cell in enumerate(header)}
    if content == "couplings":
        for tag in ("mc", "a1", "a2"):
            assert np.all(column[f"G_{tag} (omega_TO)"] == 0.0)
        return
    for tag in ("a1", "a2"):
        for branch in ("lower", "upper"):
            mine = column[f"omega_{branch}_{tag} (omega_TO)"]
            reference = column[f"omega_{branch}_mc (omega_TO)"]
            assert np.max(np.abs(mine - reference)) <= 1e-14


def test_output_format_choices(tmp_path):
    doc = _sweep_doc(output={"format": "pdf"})
    with pytest.raises(SchemaError, match="output.format"):
        _run(doc, tmp_path)


def test_malformed_yaml_file_reported(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("kind: [unclosed\n")
    with pytest.raises(SchemaError, match="could not parse"):
        load_scenario_file(bad)


@pytest.mark.parametrize(
    "text, key",
    [
        ("parameters:\n  g_qed: 0.1\n  g_qed: 0.45\n", "g_qed"),
        ("kind: oracle\nkind: oracle\n", "kind"),
        ("curves:\n  - {label: a, 'label': b}\n", "label"),
    ],
    ids=["nested", "top-level", "quoted-in-a-list"],
)
def test_repeated_key_in_a_file_is_a_schema_error(tmp_path, text, key):
    # plain YAML keeps the last value without a word
    path = tmp_path / "repeated.yaml"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"key '{key}' is repeated in one mapping"):
        load_scenario_file(path)


def test_merge_keys_give_way_to_the_mapping_own_keys(tmp_path):
    # c merges a after a's own merge has been spliced in, and e reads a again
    path = tmp_path / "merged.yaml"
    path.write_text(
        "base: &b {x: 1, y: 2}\n"
        "outer:\n  a: &a {<<: *b, x: 2}\n"
        "c: {<<: *a, y: 5}\n"
        "d: {<<: [*b, *a], z: 1}\n"
        "e: *a\n"
    )
    document, _ = load_scenario_file(path)
    assert document == yaml.safe_load(path.read_text())
    assert document["c"] == {"x": 2, "y": 5}
    assert document["e"] == {"x": 2, "y": 2}


@pytest.mark.parametrize("omega_mat, rho_plus", [(2.2, None), (3.0, None), (3.5, 0.0)])
def test_uncoupled_box_fieldmap_reports_the_ratio_pole(tmp_path, omega_mat, rho_plus):
    # at g = 0 the upper branch is the bare cavity when omega_mat <= omega_cav,
    # where x_cav / x_mat has a pole
    doc = figure_document("fig2b")
    doc["parameters"]["g"] = 0
    doc["parameters"]["box"]["omega_mat"] = omega_mat
    summary = _run(doc, tmp_path).summary
    assert summary["rho_plus"] == rho_plus
    if rho_plus is not None:
        assert math.copysign(1.0, summary["rho_plus"]) == +1.0


# ---------------------------------------------------------------------------
# artifacts and summaries


def test_artifact_paths_and_summary_contract(tmp_path):
    run = _run(_sweep_doc(), tmp_path, stem="sweep_case")
    assert run.kind == "eigen_sweep"
    assert run.csv_path == tmp_path / "sweep_case.csv"
    assert run.summary_path == tmp_path / "sweep_case.summary.json"
    assert run.svg_path is None
    summary = json.loads(run.summary_path.read_text())
    assert summary == run.summary
    assert summary["schema"] == 1
    assert summary["kind"] == "eigen_sweep"
    assert summary["version"] == polariton_lab.__version__
    assert summary["source"] == "test"
    raw = json.dumps(_sweep_doc(), sort_keys=True).encode()
    assert summary["input_sha256"] == hashlib.sha256(raw).hexdigest()
    csv_bytes = run.csv_path.read_bytes()
    entry = summary["outputs"]["sweep_case.csv"]
    assert entry["sha256"] == hashlib.sha256(csv_bytes).hexdigest()
    assert entry["bytes"] == len(csv_bytes)
    assert summary["rows"] == 41
    assert summary["columns"][0] == "omega_cav/omega_mat (1)"


def test_csv_shape_and_number_format(tmp_path):
    run = _run(_sweep_doc(), tmp_path)
    text = run.csv_path.read_text()
    assert "\r" not in text  # LF endings only
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 41
    assert rows[0] == run.summary["columns"]
    widths = {len(r) for r in rows}
    assert widths == {len(rows[0])}
    # numbers round-trip exactly through the printed representation
    value = float(rows[1][0])
    assert value == 0.2


def test_csv_numbers_survive_round_trip(tmp_path):
    doc = _spectrum_doc()
    run = _run(doc, tmp_path)
    rows = list(csv.reader(io.StringIO(run.csv_path.read_text())))
    sigmas = np.array([float(r[1]) for r in rows[1:]])
    # repeat the run: parsing the printed values reproduces them bit-exactly
    rerun = _run(doc, tmp_path / "again")
    again = np.array(
        [float(r[1]) for r in list(csv.reader(io.StringIO(rerun.csv_path.read_text())))[1:]]
    )
    assert np.array_equal(sigmas, again)


def test_svg_output_is_wellformed(tmp_path):
    # the default stem, and a document path whose stem needs XML escaping
    for output, stem in (({"format": "svg"}, "drawn"), ({"path": "R&D <draft>.csv", "format": "svg"}, "R&D <draft>")):
        run = _run(_sweep_doc(output=output), tmp_path, stem="drawn")
        assert run.svg_path == tmp_path / f"{stem}.svg"
        root = ET.fromstring(run.svg_path.read_text())
        assert root.tag.endswith("svg")
        assert [t.text for t in root if t.tag.endswith("text")][0] == stem
        assert f"{stem}.csv" in run.summary["outputs"]
        assert f"{stem}.svg" in run.summary["outputs"]


def _reference_csv(table: _Table) -> bytes:
    """The CSV dialect written one cell at a time by Python's own formatters."""
    header = ",".join(cell for cell, _ in table.columns)
    columns = [
        map(str if values.dtype.kind in "iu" else "{:.17g}".format, values.tolist())
        for _, values in table.columns
    ]
    return ("\n".join([header, *map(",".join, zip(*columns))]) + "\n").encode("utf-8")


def _near_ties(exp10: int, count: int = 4) -> list:
    """Doubles x in [10**exp10, 4 * 10**exp10) whose x * 10**(16 - exp10) is a hair off a half-integer.

    With x = m * 2**e and 2**52 <= m < 2**53, x * 10**k is m * 5**k / 2**j; m is
    solved mod 2**j for a remainder d above or below 2**(j - 1), so the scaled
    value is d * 2**-j, far below double-double round-off, from the tie.
    """
    k = 16 - exp10
    e = math.ceil(exp10 * math.log2(10)) - 52
    j = -(e + k)
    inverse = pow(5**k, -1, 2**j)
    found, d = [], 1
    while len(found) < count:
        for remainder in (2 ** (j - 1) + d, 2 ** (j - 1) - d):
            m = remainder * inverse % 2**j
            if 2**52 <= m < 2**53:
                found.append(math.ldexp(m, e))
        d += 1
    return found


def test_csv_dialect_is_pinned():
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e22, 3.0]
    integers = [0, 1, -2, 42, 10**17 + 1, -(2**63), 2**63 - 1, 7]
    table = _Table([("n (1)", np.array(integers)), ("v (1)", np.array(floats))])
    assert _render_csv(table) == (
        b"n (1),v (1)\n"
        b"0,nan\n"
        b"1,inf\n"
        b"-2,-inf\n"
        b"42,-0\n"
        b"100000000000000001,4.9406564584124654e-324\n"
        b"-9223372036854775808,0.10000000000000001\n"
        b"9223372036854775807,1e+22\n"
        b"7,3\n"
    )
    tiny, largest = np.finfo(float).smallest_subnormal, np.finfo(float).max
    pinned = {
        1e-304: "9.9999999999999997e-305",  # below 10**-304: E is -305, not -304
        tiny: "4.9406564584124654e-324",
        np.nextafter(np.finfo(float).tiny, 0): "2.2250738585072009e-308",  # the largest subnormal
        largest: "1.7976931348623157e+308",
        -largest: "-1.7976931348623157e+308",
        63041149076823.1875: "63041149076823.188",  # an exact tie at the 17th digit
        1e-14: "1e-14",  # the double lies below 10**-14; rounded to 17 digits it carries up to it
        -math.nan: "nan",
        1e16: "10000000000000000",
        1e17: "1e+17",
        1e-4: "0.0001",
        1e-5: "1.0000000000000001e-05",
        123.5: "123.5",
    }
    table = _Table([("v (1)", np.array(list(pinned))), ("u (1)", np.full(len(pinned), 2**64 - 1, np.uint64))])
    assert _render_csv(table).decode().splitlines()[1:] == [f"{text},18446744073709551615" for text in pinned.values()]
    # 10**k and its two neighbouring doubles for every decimal exponent of a double
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), [tiny, largest]])
    table = _Table([("v (1)", edges), ("w (1)", -edges)])
    assert _render_csv(table) == _reference_csv(table)
    # too near a tie to call in double-double arithmetic: Python formats these cells
    near = np.array([x for exp10 in (-8, -9, -10, -11) for x in _near_ties(exp10)])
    table = _Table([("v (1)", near), ("w (1)", -near)])
    assert _render_csv(table) == _reference_csv(table)
    for bad in ([1.0, 2.0], np.ones(3, dtype=bool), np.ones(3, dtype=complex)):
        with pytest.raises(PolaritonError, match="'bad \\(1\\)'"):
            _Table([("x (1)", np.arange(3.0)), ("bad (1)", bad)])


def test_every_figure_and_sample_csv_matches_the_reference_renderer(tmp_path, monkeypatch):
    tables = []

    def spy(table):
        tables.append(table)
        return _render_csv(table)

    monkeypatch.setattr(scenarios, "_render_csv", spy)
    for figure_id in FIGURE_IDS:
        reproduce_figure(figure_id, tmp_path)
    samples = sorted(_SAMPLES.glob("*.yaml"))
    for sample in samples:
        run_scenario_file(sample, tmp_path / "samples")
    assert len(tables) == len(FIGURE_IDS) + len(samples)
    for table in tables:
        assert _render_csv(table) == _reference_csv(table)


def test_200000_rows_write_each_cell_as_its_own_17_digit_text(tmp_path):
    grid = {"start": 0.0, "stop": 3.0, "num": 200_000, "sampling": "midpoints"}
    document = {
        "kind": "permittivity",
        "schema": 1,
        "parameters": {"models": ["MoC", "SpC"], "Omega_mat": 1.0, "G": 0.25, "omega_grid": grid},
    }
    text = _run(document, tmp_path, "rows-200k").csv_path.read_text()
    assert text.count("\n") == 200_001
    bad = [cell for line in text.splitlines()[1:] for cell in line.split(",") if format(float(cell), ".17g") != cell]
    assert not bad, f"not .17g text: {bad[:5]}"


_COLUMN_KINDS = st.lists(st.sampled_from(["bits", "bits", "int64", "uint64"]), min_size=1, max_size=4)


@given(
    kinds=_COLUMN_KINDS,
    extra_rows=st.integers(min_value=1, max_value=4095),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    patterns=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_csv_of_raw_bit_patterns_matches_the_reference_renderer(kinds, extra_rows, seed, patterns):
    """Tables longer than one block of cells and not a multiple of it.

    Float columns hold raw 64-bit patterns: every sign, exponent and mantissa,
    subnormals, infinities and NaN payloads; ``patterns`` are spread over them.
    """
    rows_per_block = scenarios._CSV_BLOCK // len(kinds)
    n_rows = rows_per_block + extra_rows
    if extra_rows % rows_per_block == 0:
        n_rows += 1
    rng = np.random.default_rng(seed)
    columns = []
    for c, kind in enumerate(kinds):
        if kind == "int64":
            values = rng.integers(-(2**63), 2**63 - 1, n_rows, endpoint=True)
        elif kind == "uint64":
            values = rng.integers(0, 2**64 - 1, n_rows, dtype=np.uint64, endpoint=True)
        else:
            bits = rng.integers(0, 2**64 - 1, n_rows, dtype=np.uint64, endpoint=True)
            bits[rng.integers(0, n_rows, len(patterns))] = np.array(patterns, dtype=np.uint64)
            values = bits.view(np.float64)
        columns.append((f"c{c} (1)", values))
    table = _Table(columns)
    assert _render_csv(table) == _reference_csv(table)


def test_svg_breaks_series_at_gaps_and_draws_lone_points():
    # interior NaN gaps, a NaN in x (row 4), lone finite points, trailing runs
    # and an integer series
    nan = math.nan
    table = _Table(
        [
            ("x (1)", np.array([0.0, 1, 2, 3, nan, 5, 6, 7, 8, 9])),
            ("a (1)", np.array([0.0, 0.5, 1.0, nan, 2.0, 2.5, 3.0, nan, 4.0, 4.5])),
            ("b (1)", np.array([nan, -1.0, nan, -0.5, -0.25, 0.0, 0.25, nan, nan, 1.0])),
            ("n (1)", np.arange(10)),
        ]
    )
    svg = _render_svg(table, "gaps")
    drawn = [line for line in svg.decode().splitlines() if line.startswith(("<polyline", "<circle"))]
    assert drawn == [
        '<polyline points="70.000,376.000 140.000,358.000 210.000,340.000" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<polyline points="420.000,286.000 490.000,268.000" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<polyline points="630.000,232.000 700.000,214.000" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<circle cx="140.000" cy="412.000" r="2" fill="#d62728"/>',
        '<circle cx="280.000" cy="394.000" r="2" fill="#d62728"/>',
        '<polyline points="420.000,376.000 490.000,367.000" fill="none" stroke="#d62728" stroke-width="1.5"/>',
        '<circle cx="700.000" cy="340.000" r="2" fill="#d62728"/>',
        '<polyline points="70.000,376.000 140.000,340.000 210.000,304.000 280.000,268.000" fill="none" stroke="#2ca02c" stroke-width="1.5"/>',
        '<polyline points="420.000,196.000 490.000,160.000 560.000,124.000 630.000,88.000 700.000,52.000" fill="none" stroke="#2ca02c" stroke-width="1.5"/>',
    ]
    # the whole document, axes and legend included
    assert hashlib.sha256(svg).hexdigest() == (
        "edfdbe83411aadb51aebb0b66d9388bbe6dc42a76be20db545e9366a173682de"
    )


def test_svg_output_path_may_not_name_the_csv(tmp_path):
    doc = figure_document("fig1e")
    doc["output"] = {"path": "plot.svg", "format": "svg"}
    with pytest.raises(SchemaError, match="plot.svg") as err:
        _run(doc, tmp_path)
    assert err.value.path == "output.path"
    assert list(tmp_path.iterdir()) == []


def test_output_path_override(tmp_path):
    doc = _sweep_doc(output={"path": "deep/nested/name.csv"})
    run = _run(doc, tmp_path)
    assert run.csv_path == tmp_path / "deep" / "nested" / "name.csv"
    assert run.csv_path.exists()


def test_spectrum_normalized_column(tmp_path):
    doc = _spectrum_doc()
    doc["parameters"]["curves"][0]["R_cav"] = 5.0
    run = _run(doc, tmp_path)
    cols = run.summary["columns"]
    assert cols == ["omega (eV)", "sigma_a (nm^2)", "sigma_norm_a (1)"]
    rows = list(csv.reader(io.StringIO(run.csv_path.read_text())))[1:]
    for row in rows:
        sigma, norm = float(row[1]), float(row[2])
        assert norm == pytest.approx(sigma / (math.pi * 25.0), rel=1e-15)


def test_runs_are_deterministic(tmp_path):
    doc = _spectrum_doc(n_curves=2)
    a = _run(doc, tmp_path / "a")
    b = _run(doc, tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    sa = json.loads(a.summary_path.read_text())
    sb = json.loads(b.summary_path.read_text())
    assert sa["outputs"] == sb["outputs"]


# ---------------------------------------------------------------------------
# shipped sample scenarios


def test_sample_scenarios_present_and_runnable(tmp_path):
    files = sorted(_SAMPLES.glob("*.yaml"))
    assert len(files) >= 8
    fast = [
        f
        for f in files
        if f.stem in ("permittivity_sic", "min_splitting_scan", "fractions_box")
    ]
    assert len(fast) == 3
    for f in fast:
        run = run_scenario_file(f, out_dir=tmp_path / f.stem)
        assert run.csv_path.exists()
        assert run.summary["rows"] > 0


def test_sample_scenario_determinism(tmp_path):
    sample = _SAMPLES / "permittivity_sic.yaml"
    a = run_scenario_file(sample, out_dir=tmp_path / "a")
    b = run_scenario_file(sample, out_dir=tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()


# ---------------------------------------------------------------------------
# figure registry


def test_figure_registry_inventory():
    assert len(FIGURE_IDS) == 19
    assert len(set(FIGURE_IDS)) == 19
    for figure_id in FIGURE_IDS:
        doc = figure_document(figure_id)
        assert doc["kind"] in SCENARIO_KINDS


# SHA-256 of each figure's canonical document, json.dumps(document,
# sort_keys=True): the input_sha256 of its reproduce summary.  Pure-Python
# JSON, so it does not depend on the numpy build; a change here is a change of
# a published figure's parameterization.
_FIGURE_DOCUMENT_SHA256 = {
    "fig1c": "7e737d24df24f6afd5a167cc02046b32f32522234ac59fe26fa29ca584aabbcb",
    "fig1d": "4f516b24b06f5162cc9e334cd18e380814b8f7396edcf3cd3a69769cc38017b6",
    "fig1e": "c7a07eb6b8005a2c93ab0216eafae71de445b139c4689ebf2f36fe68ffb86ec5",
    "fig2b": "a52459e246f5eb1ae2eb5286250728f8c56d7f0177770f5f85519d40ea25fe7e",
    "fig2c": "0abb3573e61ddc7a5440e843da1fb325a17234736603a16b2295bd9c822b381c",
    "fig2d": "58bb79112b68a9c99946bc5e65c42f203ce31e678b35798b95a2d29a20dda83d",
    "fig3b": "7326d83f84ced74ba8134b14d6ef9c61d247d051d425c751f3295573233caac5",
    "fig3c": "97c6292c7ce06c0831779ce7af2a8591b0fe7f5b2415922cf3eede93a89b497a",
    "fig3d": "7ee2411e99645093f2ee6c67e5979fd0b171f3531a1db182f0422bbadfc24153",
    "fig3e": "60b679fae015070370298acb95ee4572ff70cf0c7470543d7e2188c7836db741",
    "fig4b": "46a435f10f8e10fa8c39bd757abf7f080a8498402f47410c6f8f3fccdef51367",
    "figS1a": "1d0e1ce50c84012e74146f9a9d37a1fd1b4db2ccd5b2f54c50739f20be64cec8",
    "figS1b": "550471c089d344b0d2f4c6637c71e015a104b317b5a6beaf72667822adace6bf",
    "figS1c": "bd093dfa2a8cce5d900c2df9375cd432f0f49094fe231a416dbfa5a7b1d20e58",
    "figS2": "0ca1bdef02c66296d25e31cbaaf1f41b9032b2fd0cbe0a8efe1e82a9d907bbb2",
    "figS3a": "ce75e8fbbf008aee4ebfe39ef6b93171568b528798e3c1180b56594dd14bd9d5",
    "figS3b": "a952b660d3cb46a69e029cf82b72f5e0ec6dac1c1ddfd46ecfe19053f823b665",
    "figS3c": "0807f4c177dc8ba82a05ecb523618c65e047e9917290973aed931fccf96563d2",
    "figS3d": "1710f6708d5c252b5ea28c36a73f0568a4bc51017289c129d23cbcc45fcc09a9",
}


def test_figure_documents_are_pinned():
    assert tuple(_FIGURE_DOCUMENT_SHA256) == FIGURE_IDS
    for figure_id, digest in _FIGURE_DOCUMENT_SHA256.items():
        canonical = json.dumps(figure_document(figure_id), sort_keys=True).encode("utf-8")
        assert hashlib.sha256(canonical).hexdigest() == digest, figure_id


def _vandalize(node):
    """Mutate every list and dict of a document in place, innermost first."""
    if isinstance(node, dict):
        for value in node.values():
            _vandalize(value)
        node["vandalized"] = True
    elif isinstance(node, list):
        for value in node:
            _vandalize(value)
        node.append("vandalized")


def test_figure_documents_are_fresh_on_every_call():
    first = figure_document("fig3d")
    first["parameters"]["curves"][0]["g"] = 1.0
    assert figure_document("fig3d")["parameters"]["curves"][0]["g"] == 1e-2 * 3.0
    first = figure_document("figS3d")
    first["parameters"]["models"].append("A2")
    assert figure_document("figS3d")["parameters"]["models"] == ["MoC", "A1", "A2"]
    for figure_id in FIGURE_IDS:
        document = figure_document(figure_id)
        pristine = copy.deepcopy(document)
        _vandalize(document)
        assert figure_document(figure_id) == pristine, figure_id


def test_unknown_figure_id_lists_valid_ids():
    with pytest.raises(SchemaError) as err:
        figure_document("fig99x")
    message = str(err.value)
    for figure_id in FIGURE_IDS:
        assert figure_id in message


def test_reproduce_target_shape(tmp_path):
    run = reproduce_figure("fig1d", out_dir=tmp_path)
    assert run.csv_path == tmp_path / "fig1d.csv"
    assert run.summary["rows"] == 601
    assert len(run.summary["columns"]) == 5
    assert run.summary["source"] == "reproduce:fig1d"


def test_reproduce_is_deterministic(tmp_path):
    a = reproduce_figure("figS1c", out_dir=tmp_path / "a")
    b = reproduce_figure("figS1c", out_dir=tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()


# ---------------------------------------------------------------------------
# quantum oracle


def _quantum_doc(**parameters):
    base = {"flavor": "quantum", "omega_cav": 1.0, "omega_mat": 1.0, "g_qed": 0.8, "D": "MoC", "n_levels": 5}
    return {"kind": "oracle", "schema": 1, "parameters": {**base, **parameters}}


@pytest.mark.parametrize("n_max, miss", [(4, 0.4446), (16, 1.140e-4)])
def test_quantum_oracle_reports_its_miss_against_the_exact_ladder(tmp_path, n_max, miss):
    summary = _run(_quantum_doc(n_max=n_max), tmp_path).summary
    assert summary["fock_ladder_deviation_eV"] == pytest.approx(miss, rel=1e-3)
    # MoC on resonance: omega_plus + omega_minus = 2 sqrt(omega^2 + g^2)
    assert summary["ground_state_shift_eV"] == pytest.approx(math.sqrt(1.64) - 1.0, rel=1e-12)


@pytest.mark.parametrize("n_max, lo, hi", [(12, 3.7e-6, 3.9e-6), (28, 0.0, 1e-14)])
def test_sample_quantum_oracle_ladder_miss(tmp_path, n_max, lo, hi):
    doc = yaml.safe_load((_SAMPLES / "oracle_quantum.yaml").read_text())
    doc["parameters"]["n_max"] = n_max
    summary = _run(doc, tmp_path).summary
    assert lo <= summary["fock_ladder_deviation_eV"] <= hi
    # on resonance the dipole-gauge partner is the same matrix
    assert summary["frame_check_measures"] == "round-off only"
    assert summary["frame_deviation_eV"] <= 1e-12


@pytest.mark.parametrize("d_value, measures", [("MoC", "truncation"), ("SpC", "round-off only"), (0.2, "truncation")])
def test_frame_check_says_what_it_measures(tmp_path, d_value, measures):
    doc = _quantum_doc(omega_cav=1.2, g_qed=0.3, D=d_value, n_max=20, frame_check=True)
    summary = _run(doc, tmp_path).summary
    assert summary["frame_check_measures"] == measures
    assert summary["frame_deviation_eV"] <= 1e-6


def test_frame_check_needs_the_full_hamiltonian(tmp_path):
    with pytest.raises(SchemaError) as err:
        _run(_quantum_doc(n_max=10, rwa=True, frame_check=True), tmp_path)
    assert err.value.path == "parameters.frame_check"


def test_frame_check_solves_the_position_frame_once(tmp_path, monkeypatch):
    calls = []
    solve = hopfield._lowest_levels

    def counted(terms, count):
        calls.append((len(terms[0][0]), count))
        return solve(terms, count)

    monkeypatch.setattr(hopfield, "_lowest_levels", counted)
    _run(_quantum_doc(omega_cav=1.2, n_max=12, frame_check=True), tmp_path)
    # one position-frame solve, one dipole-gauge partner solve, both at n_max = 12
    # and for the ground state and the five excitations
    assert calls == [(13, 6), (13, 6)]


# ---------------------------------------------------------------------------
# ensemble


def _ensemble_doc(shape, dipole_dipole, modes=({"n": 1},)):
    doc = yaml.safe_load((_SAMPLES / "ensemble_n20.yaml").read_text())
    doc["parameters"]["cavity"].update(lateral_period=60.0, modes=list(modes))
    doc["parameters"]["lattice"].update(shape=list(shape), orientation=[0.6, 0.8, 0.0])
    doc["parameters"].update(include_dipole_dipole=dipole_dipole, tolerance=1e-3)
    return doc


def _csv_row(run):
    with open(run.csv_path, newline="") as f:
        return next(csv.DictReader(f))


def test_sample_ensemble_check_measures_round_off_only(tmp_path):
    # one mode, no dipole-dipole band: the reduction is the MoC quartic itself
    run = _run(yaml.safe_load((_SAMPLES / "ensemble_n20.yaml").read_text()), tmp_path)
    assert run.summary["reduction_check_measures"] == "round-off only"
    assert run.summary["bright_band_spread_eV"] == 0.0
    row = _csv_row(run)
    assert float(row["max_rel_deviation (1)"]) == 0.0
    assert row["omega_plus_full (eV)"] == row["omega_plus_reduced (eV)"]
    assert row["omega_minus_full (eV)"] == row["omega_minus_reduced (eV)"]


@pytest.mark.parametrize(
    "shape, dipole_dipole, modes, measures",
    [
        ((4, 4, 8), False, ({"n": 1},), "round-off only"),
        ((1, 1, 1), True, ({"n": 1},), "round-off only"),
        ((4, 4, 8), True, ({"n": 1},), "reduction"),
        ((4, 4, 8), False, ({"n": 1}, {"n": 2}), "reduction"),
    ],
)
def test_ensemble_check_says_what_it_measures(tmp_path, shape, dipole_dipole, modes, measures):
    summary = _run(_ensemble_doc(shape, dipole_dipole, modes), tmp_path).summary
    assert summary["reduction_check_measures"] == measures


@pytest.mark.parametrize("dipole_dipole", [False, True])
def test_pair_couplings_are_computed_once_per_ensemble_operation(tmp_path, monkeypatch, dipole_dipole):
    calls = {"pairs": 0, "builds": 0}
    pairs, build = ensemble._pairwise_couplings, ensemble.build_full_system

    def counted_pairs(lattice):
        calls["pairs"] += 1
        return pairs(lattice)

    def counted_build(*args, **kwargs):
        calls["builds"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(ensemble, "_pairwise_couplings", counted_pairs)
    monkeypatch.setattr(ensemble, "build_full_system", counted_build)
    _run(_ensemble_doc((2, 2, 4), dipole_dipole), tmp_path)
    # the full system is still built twice; the lattice computes its pairs once, and only when they are used
    assert calls == {"pairs": int(dipole_dipole), "builds": 2}


def test_bright_band_spread_is_the_weighted_spread_of_the_band(tmp_path):
    doc = _ensemble_doc((4, 4, 8), True)
    summary = _run(doc, tmp_path / "dd").summary
    cav, lat = doc["parameters"]["cavity"], doc["parameters"]["lattice"]
    fp = FabryPerotSpec(L_cav=cav["L_cav"], lateral_period=cav["lateral_period"], modes=((1, (0.0, 0.0)),))
    lattice = cubic_dipole_lattice(
        fp, lat["spacing"], lat["shape"], lat["f_dip"], lat["omega_dip"], orientation=lat["orientation"]
    )
    band, vectors = np.linalg.eigh(_pairwise_couplings(lattice)[1])
    weights = np.abs(vectors.T @ fp.mode_profile(fp.modes[0], lattice.positions)) ** 2
    weights /= weights.sum()
    mean = weights @ band
    expected = math.sqrt(weights @ (band - mean) ** 2)
    assert summary["bright_band_spread_eV"] == pytest.approx(expected, rel=1e-12)
    assert expected > 1e-5
    doc["parameters"]["include_dipole_dipole"] = False
    assert _run(doc, tmp_path / "off").summary["bright_band_spread_eV"] == 0.0


# ---------------------------------------------------------------------------
# hostile documents


def _shrunk(node):
    """Copy of a document with every grid cut to at most 50 points."""
    if isinstance(node, list):
        return [_shrunk(v) for v in node]
    if not isinstance(node, dict):
        return node
    out = {key: _shrunk(value) for key, value in node.items()}
    if isinstance(out.get("num"), int):
        out["num"] = min(out["num"], 50)
    return out


def _sites(node, path=()):
    """(path, is_mapping) of every node below the root of a document."""
    if path or isinstance(node, dict):
        yield path, isinstance(node, dict)
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _sites(value, path + (key,))


_FUZZ_DOCUMENTS = [_shrunk(figure_document(f)) for f in FIGURE_IDS] + [
    _shrunk(yaml.safe_load(f.read_text())) for f in sorted(_SAMPLES.glob("*.yaml"))
]
_FUZZ_SITES = [(i, path, mapping) for i, doc in enumerate(_FUZZ_DOCUMENTS) for path, mapping in _sites(doc)]
_FUZZ_VALUES = ["x", [1, 2], {"a": 1}, True, None, math.nan, math.inf, -math.inf, 0, -1, 1e200, -1e200, 1e-320, 2**70]


@settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(site=st.sampled_from(_FUZZ_SITES), value=st.sampled_from(_FUZZ_VALUES))
def test_hostile_documents_exit_with_a_code(site, value):
    # one leaf replaced, or one unknown key added to a mapping
    i, path, mapping = site
    doc = copy.deepcopy(_FUZZ_DOCUMENTS[i])
    node = doc
    for key in path:
        node = node[key]
    if mapping:
        node["zz_unknown"] = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "hostile.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        assert main(["run", str(scenario), "--out", tmp]) in (0, 2, 3, 4)

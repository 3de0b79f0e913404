"""Configuration validation, expression grammar and the CLI pipeline."""

import copy
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

from homsim import archive, cli, config
from homsim.config import (
    SCHEMA,
    ConfigError,
    SimulationConfig,
    compile_expression,
    example_config,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def test_constant_expression():
    f = compile_expression(5.0)
    pts = np.zeros((3, 2))
    assert np.allclose(f(pts, 0.0), 5.0)


def test_arithmetic_expression():
    f = compile_expression("2*x1 + x2**2 - t")
    pts = np.array([[1.0, 2.0], [0.5, 0.0]])
    assert np.allclose(f(pts, 1.0), [2 + 4 - 1, 1 + 0 - 1])


def test_function_calls_allowed():
    f = compile_expression("sin(pi*x1)*cos(pi*x2)")
    pts = np.array([[0.5, 0.0]])
    assert np.allclose(f(pts, 0.0), 1.0)


@pytest.mark.parametrize("src", [
    "__import__('os')",
    "x1.real",
    "open('x')",
    "lambda: 1",
    "y3 + 1",
    "sin(x1, x2)",
    "'abc'",
    "True",
])
def test_malicious_or_unknown_expressions_rejected(src):
    with pytest.raises(ConfigError):
        compile_expression(src)


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_example_config_validates():
    SimulationConfig(example_config())


def test_shipped_example_file_validates():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "example1.json"
    cfg = SimulationConfig.from_file(path)
    assert cfg.epsilon == pytest.approx(0.1)


def test_schema_violation_reports_json_path():
    raw = example_config()
    raw["time"]["dt"] = -1.0
    with pytest.raises(ConfigError) as e:
        SimulationConfig(raw)
    assert "$['time']['dt']" in str(e.value)


def test_non_reciprocal_epsilon_rejected():
    raw = example_config()
    raw["epsilon"] = 0.3
    with pytest.raises(ConfigError, match="reciprocal"):
        SimulationConfig(raw)


def test_time_grid_mismatch_rejected():
    raw = example_config()
    raw["time"]["dt"] = 0.0003
    with pytest.raises(ConfigError, match="T_final"):
        SimulationConfig(raw)


@pytest.mark.parametrize("section, key", [(None, "epsilon"), ("time", "dt")])
def test_denormal_step_is_a_config_error(section, key):
    """1/epsilon and T_final/dt overflow to inf: a ConfigError, not an OverflowError."""
    raw = example_config()
    (raw if section is None else raw[section])[key] = 5e-324
    with pytest.raises(ConfigError, match=key if section is None else section):
        SimulationConfig(raw)


def test_missing_section_rejected():
    raw = example_config()
    del raw["table"]
    with pytest.raises(ConfigError, match="table"):
        SimulationConfig(raw)


def test_bool_is_not_the_integer_one():
    raw = example_config()
    raw["version"] = True
    with pytest.raises(ConfigError, match=r"\$\['version'\]: 1 was expected"):
        SimulationConfig(raw)


def test_integral_float_is_an_integer():
    raw = example_config()
    raw["table"]["count"] = 2.0
    assert SimulationConfig(raw).table_spec[2] == 2


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_checker_implements_every_keyword_of_the_schema():
    """Every keyword SCHEMA uses is checked; an unknown one fails loudly."""
    nodes = list(_subschemas(SCHEMA))
    assert {k for node in nodes for k in node} >= {
        "type", "const", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
        "items", "minItems", "maxItems", "properties", "required", "additionalProperties"}
    for node in nodes:
        list(config.schema_errors(None, node))  # raises on a keyword it does not know
    for unknown in ({"pattern": "^a"}, {"additionalProperties": {"type": "number"}},
                    {"type": "object", "patternProperties": {}}):
        with pytest.raises(NotImplementedError):
            list(config.schema_errors({}, unknown))


#: replacement values for the mutations: every JSON type, all finite
_VALUES = [None, True, False, 0, 1, 2, -1, 2.0, 0.5, -0.25, 1e6, "", "disk", "periodic",
           "strain", [], [1.0], [1, 2], [1.0, "x", 3], {}, {"kind": "none"}]


def _mutate(raw, rng):
    """Replace, delete or add one entry anywhere in raw (in place)."""
    node = raw
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = rng.choice(keys)
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or rng.random() < 0.4:
            break
        node = child
    if not keys:
        return
    action = rng.random()
    if action < 0.55:
        node[key] = copy.deepcopy(rng.choice(_VALUES))
    elif action < 0.8:
        del node[key]
    elif isinstance(node, dict):
        node[rng.choice(["extra", "zz", "Kind"])] = rng.choice(_VALUES)
    else:
        node.append(rng.choice(_VALUES))


def test_checker_agrees_with_jsonschema():
    """Same errors, messages and order as jsonschema's Draft-7 validator on finite configurations."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(SCHEMA)
    rng = random.Random(20261019)
    cases = [example_config() for _ in range(400)]
    for raw in cases:
        for _ in range(rng.choice([1, 1, 2, 3])):
            _mutate(raw, rng)
    for section, key, value in [(None, "version", True), ("table", "count", 2.0),
                                ("table", "count", 1), ("time", "snapshot_stride", 0)]:
        raw = example_config()
        (raw if section is None else raw[section])[key] = value
        cases.append(raw)
    cases += [{}, [], 1, {"version": 1}]
    n_invalid, keywords = 0, set()
    for raw in cases:
        errors = list(validator.iter_errors(raw))
        theirs = sorted(((tuple(e.absolute_path), e.message) for e in errors), key=lambda e: e[0])
        ours = sorted(config.schema_errors(raw, SCHEMA), key=lambda e: e[0])
        assert ours == theirs, json.dumps(raw)
        n_invalid += bool(ours)
        keywords |= {e.validator for e in errors}
    assert 200 < n_invalid < len(cases)
    assert keywords == {"type", "const", "enum", "minimum", "maximum", "exclusiveMinimum",
                        "exclusiveMaximum", "minItems", "maxItems", "required",
                        "additionalProperties"}


@pytest.mark.parametrize("section, key, literal", [
    (None, "epsilon", "NaN"),
    ("time", "dt", "NaN"),
    ("time", "dt", "Infinity"),
    ("time", "T_final", "NaN"),
    ("time", "T_final", "Infinity"),
    ("mesh", "macro_h", "NaN"),
    ("initial", "T", "NaN"),
    ("initial", "T", "-Infinity"),
])
def test_non_finite_number_exits_2(tmp_path, capsys, section, key, literal):
    raw = _mini_config(tmp_path / "out")
    (raw if section is None else raw[section])[key] = float(literal)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert literal in p.read_text()
    assert cli.main(["offline", str(p)]) == 2
    where = f"$['{key}']" if section is None else f"$['{section}']['{key}']"
    assert f"{where}: {float(literal)!r} is not a finite number" in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path)]) == 2
    assert f"{tmp_path}: cannot read" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_bytes(b'{"version": 1, "geometry": "\xff\xfe"}')
    assert cli.main(["verify", str(p)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_import_does_not_load_jsonschema():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, homsim.cli; assert 'jsonschema' not in sys.modules, 'jsonschema imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# CLI pipeline on a miniature configuration
# ---------------------------------------------------------------------------

def _mini_config(out_dir):
    raw = example_config()
    raw["epsilon"] = 0.5
    raw["mesh"] = {"macro_h": 0.15, "cell_h": 0.25}
    raw["time"] = {"dt": 0.001, "T_final": 0.004, "snapshot_stride": 2}
    raw["sources"] = {"f_T": 2000.0, "f_Phi": 20.0, "f_U": [500.0, 500.0]}
    raw["table"] = {"T_min": 280.0, "T_max": 360.0, "count": 2}
    raw["output"] = {"directory": str(out_dir), "vtk": True}
    return raw


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(_mini_config(base / "out")))
    for cmdname in ("offline", "online", "dns", "verify", "errors"):
        assert cli.main([cmdname, str(cfg_path)]) == 0, cmdname
    return base


def test_pipeline_outputs_exist(pipeline):
    out = pipeline / "out"
    for name in ("archive/manifest.json", "coefficients.csv",
                 "macro_trajectory.npz", "dns_trajectory.npz", "errors.csv",
                 "macro_final.vtk", "homs_final.vtk"):
        assert (out / name).exists(), name


def test_error_csv_has_documented_columns(pipeline):
    from homsim import metrics

    header = open(pipeline / "out" / "errors.csv").readline().strip().split(",")
    assert header == ["t"] + metrics.COLUMNS


def test_vtk_output_well_formed(pipeline):
    text = open(pipeline / "out" / "macro_final.vtk").read()
    assert text.startswith("# vtk DataFile Version 3.0")
    for token in ("POINTS", "CELLS", "CELL_TYPES", "SCALARS T", "VECTORS U"):
        assert token in text


def test_online_is_deterministic(pipeline):
    cfg_path = pipeline / "config.json"
    first = (pipeline / "out" / "errors.csv").read_bytes()
    assert cli.main(["online", str(cfg_path)]) == 0
    assert cli.main(["errors", str(cfg_path)]) == 0
    assert (pipeline / "out" / "errors.csv").read_bytes() == first


def test_invalid_config_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"version\": 1}")
    assert cli.main(["offline", str(p)]) == 2


def test_bad_expression_fails_offline_with_exit_2(tmp_path, capsys):
    """Expressions compile when the configuration loads, before any stage runs."""
    raw = _mini_config(tmp_path / "out")
    raw["sources"]["f_T"] = "'abc'"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["offline", str(p)]) == 2
    err = capsys.readouterr().err
    assert "f_T" in err and "'abc'" in err
    assert not (tmp_path / "out" / "archive").exists()


def test_removed_coupling_temperature_option_exits_2(tmp_path, capsys):
    raw = _mini_config(tmp_path / "out")
    raw["coupling_temperature"] = "scheme"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["offline", str(p)]) == 2
    assert "coupling_temperature" in capsys.readouterr().err
    assert not (tmp_path / "out" / "archive").exists()


def test_unparseable_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert cli.main(["offline", str(p)]) == 2


def test_archive_hash_mismatch_refused(pipeline, tmp_path):
    raw = json.loads((pipeline / "config.json").read_text())
    raw["materials"]["matrix"]["k"] = [9.9, 0.0]  # different law than archived
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["online", str(p)]) == 2


@pytest.mark.parametrize("field, edit", [
    ("temperatures", lambda raw: raw["table"].update(T_max=370.0)),
    ("temperatures", lambda raw: raw["table"].update(count=3)),
    ("cell_bc", lambda raw: raw["table"].update(cell_bc="periodic")),
    ("T_ref", lambda raw: raw["initial"].update(T_ref=310.0)),
])
@pytest.mark.parametrize("stage", ["online", "verify", "errors"])
def test_archive_of_another_table_refused(pipeline, tmp_path, capsys, stage, field, edit):
    raw = json.loads((pipeline / "config.json").read_text())
    edit(raw)
    p = tmp_path / "other_table.json"
    p.write_text(json.dumps(raw))
    assert cli.main([stage, str(p)]) == 2
    assert f"archived {field} " in capsys.readouterr().err


def test_missing_archive_exits_2(tmp_path):
    raw = _mini_config(tmp_path / "out")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["online", str(p)]) == 2


def test_numerical_failure_exits_3(pipeline, monkeypatch):
    from homsim import fem, macro

    def boom(self):
        raise macro.StepError("synthetic divergence", step=0)

    monkeypatch.setattr(macro.Stepper, "run", boom)
    assert cli.main(["online", str(pipeline / "config.json")]) == 3


@pytest.mark.parametrize("name, stage", sorted(cli._ERRORS_INPUTS.items()))
def test_errors_before_its_inputs_exist_exits_2(pipeline, tmp_path, capsys, name, stage):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / name).unlink()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_mini_config(out)))
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert name in err and f"homsim {stage}" in err


def test_errors_refuses_archive_of_another_law(pipeline, tmp_path, capsys):
    raw = json.loads((pipeline / "config.json").read_text())
    raw["materials"]["matrix"]["k"] = [9.9, 0.0]  # different law than archived
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(raw))
    before = (pipeline / "out" / "errors.csv").read_bytes()
    assert cli.main(["errors", str(p)]) == 2
    assert "material-law hash mismatch" in capsys.readouterr().err
    assert (pipeline / "out" / "errors.csv").read_bytes() == before


def _damaged_copy(pipeline, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_mini_config(out)))
    return out / "archive", p


def test_online_with_missing_temperature_file_exits_2(pipeline, tmp_path, capsys):
    arch, p = _damaged_copy(pipeline, tmp_path)
    (arch / "T_001.npz").unlink()
    assert cli.main(["online", str(p)]) == 2
    assert "T_001.npz: missing" in capsys.readouterr().err


def test_only_errors_decompresses_the_second_order(pipeline, monkeypatch):
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recorded(self, key):
        read.append(key)
        return getitem(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recorded)
    cfg = str(pipeline / "config.json")
    for cmdname in ("online", "verify"):
        assert cli.main([cmdname, cfg]) == 0, cmdname
    assert "M" in read and not any(k.startswith("second_") for k in read)
    assert cli.main(["errors", cfg]) == 0
    assert "second_Q" in read


def test_errors_with_missing_second_order_array_exits_2(pipeline, tmp_path, capsys):
    arch, p = _damaged_copy(pipeline, tmp_path)
    with np.load(arch / "T_000.npz") as z:
        kept = {k: z[k] for k in z.files if k != "second_Q"}
    np.savez_compressed(arch / "T_000.npz", **kept)
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert "T_000.npz" in err and "second_Q" in err


def test_errors_without_electric_load_reports_phi_undefined(pipeline, tmp_path, capsys):
    """With no electric source the reference Phi is 0: its relative errors are NaN, not a traceback."""
    from homsim import metrics

    out = tmp_path / "out"
    shutil.copytree(pipeline / "out" / "archive", out / "archive")
    raw = _mini_config(out)
    raw["sources"]["f_Phi"] = 0.0
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    for cmdname in ("online", "dns", "errors"):
        assert cli.main([cmdname, str(p)]) == 0, cmdname
    assert "Phi: the reference has zero norm" in capsys.readouterr().out
    table = np.loadtxt(out / "errors.csv", delimiter=",", skiprows=1, ndmin=2)
    for j, name in enumerate(metrics.COLUMNS, start=1):
        column = table[:, j]
        assert np.all(np.isnan(column) if name.startswith("Phi_") else np.isfinite(column)), name


def test_errors_computes_each_reference_norm_once_per_snapshot(pipeline, monkeypatch):
    from homsim import metrics

    calls = []
    norm = metrics.norm

    def counted(space, nodal, kind):
        calls.append(kind)
        return norm(space, nodal, kind)

    monkeypatch.setattr(metrics, "norm", counted)
    cfg = str(pipeline / "config.json")
    assert cli.main(["errors", cfg]) == 0
    rows = len(np.loadtxt(pipeline / "out" / "errors.csv", delimiter=",", skiprows=1, ndmin=2))
    # 6 reference norms (3 fields x 2 kinds) and 18 error norms per snapshot
    assert rows > 0 and len(calls) == rows * (6 + len(metrics.COLUMNS))

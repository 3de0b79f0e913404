"""Configuration validation, expression grammar and the CLI pipeline."""

import copy
import json
import os
import pathlib
import random
import shutil
import struct
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from homsim import archive, cli, config
from homsim.config import (
    SCHEMA,
    ConfigError,
    SimulationConfig,
    compile_expression,
)

from conftest import EXAMPLE_CONFIG

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def example_config() -> dict:
    """A fresh copy of the shipped driven-composite configuration (constant sources)."""
    return json.loads(EXAMPLE_CONFIG.read_text())


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
    for eps in (0.3, 5e-324):  # 1/5e-324 overflows
        raw["epsilon"] = eps
        with pytest.raises(ConfigError) as e:
            SimulationConfig(raw)
        assert str(e.value) == f"$['epsilon']: must be a reciprocal integer, got {eps}"


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
    assert len(SimulationConfig(raw).temperatures) == 2


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


def test_every_default_satisfies_its_own_schema():
    defaulted = [node for node in _subschemas(SCHEMA) if "default" in node]
    assert len(defaulted) == 11
    for node in defaulted:
        assert list(config.schema_errors(node["default"], node)) == [], node


def _resolved(cfg):
    """Every stage input cfg resolved, arrays as lists, the compiled expressions left out."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(cfg).items() if k != "_problem_data"}


def test_omitted_and_stated_defaults_resolve_equal():
    omitted = example_config()
    del omitted["geometry"]["radius"], omitted["time"]["snapshot_stride"], omitted["output"]
    stated = copy.deepcopy(omitted)
    stated["geometry"]["radius"] = 0.25
    stated["materials"].update(T_range=[250.0, 900.0], plane="strain")
    stated["time"]["snapshot_stride"] = 1
    stated["initial"].update(U=[0.0, 0.0], V=[0.0, 0.0])
    stated["table"]["cell_bc"] = "dirichlet"
    stated["output"] = {"directory": "out", "vtk": False}
    a, b = SimulationConfig(omitted), SimulationConfig(stated)
    assert _resolved(a) == _resolved(b)
    assert a.raw == stated | {"geometry": dict(stated["geometry"], fraction=0.5)}
    assert archive.law_hash(a.law) == archive.law_hash(b.law)
    pts = np.array([[0.1, 0.2], [0.7, 0.4]])
    for name in ("U_init", "V_init"):
        assert np.array_equal(getattr(a.problem_data(), name)(pts, 0.0), np.zeros((2, 2)))


def test_equal_laws_hash_equal_however_their_numbers_are_spelt():
    """T_range [250, 900] and [250.0, 900.0], or a coefficient 0 and 0.0, are one law."""
    ints, floats = example_config(), example_config()
    ints["materials"]["T_range"] = [250, 900]
    floats["materials"]["T_range"] = [250.0, 900.0]
    ints["materials"]["matrix"]["rho"] = [0.008, 0]
    floats["materials"]["matrix"]["rho"] = [0.008, 0.0]
    a, b = SimulationConfig(ints).law, SimulationConfig(floats).law
    assert a == b
    assert archive.law_hash(a) == archive.law_hash(b)


def test_shipped_law_keeps_its_hash():
    """configs/example1.json writes its law with floats: archives built from it stay valid."""
    law = SimulationConfig.from_file(EXAMPLE_CONFIG).law
    assert archive.law_hash(law) == "07a4a5293b0b9a444fa9c396d64b137e7a41c9adca85a72d2644ca4f68389ee2"


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


def test_pipeline_writes_exactly_its_outputs(pipeline):
    """The five stages leave these files and no other: each mesh is inside
    the archive or a trajectory, none is a file of its own."""
    out = pipeline / "out"
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == [
        "archive/T_000.npz", "archive/T_001.npz", "archive/cell_mesh.npz",
        "archive/manifest.json", "coefficients.csv", "dns_final.vtk", "dns_trajectory.npz",
        "errors.csv", "homs_final.vtk", "macro_final.vtk", "macro_trajectory.npz"]
    with np.load(out / "macro_trajectory.npz") as z:
        assert sorted(z.files) == sorted(["dt", "n_steps", "stamp", "nodes", "triangles",
                                          "phase_tag", "m", "t", "T", "T_prev", "Phi", "U",
                                          "U_prev", "U_prevprev"])


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


@pytest.mark.parametrize("section, edit", [
    ("table", lambda raw: raw["table"].update(T_max=950.0)),
    ("table", lambda raw: raw["table"].update(T_min=200.0)),
    ("materials", lambda raw: raw["materials"].update(T_range=[900.0, 250.0])),
])
def test_table_outside_the_material_range_exits_2(tmp_path, capsys, section, edit):
    """materials.T_range defaults to [250, 900]; the mini table spans 280-360 K."""
    raw = _mini_config(tmp_path / "out")
    edit(raw)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["offline", str(p)]) == 2
    assert f"$[{section!r}]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "archive").exists()


def test_table_count_beyond_an_array_exits_2(tmp_path, capsys):
    """1e300 temperatures are refused by the schema's maximum: every stage
    exits 2 naming the count, not 1 with a traceback."""
    raw = _mini_config(tmp_path / "out")
    raw["table"]["count"] = 1e300
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    for stage in ("offline", "online", "dns", "verify", "errors"):
        assert cli.main([stage, str(p)]) == 2, stage
        assert "$['table']['count']: 1e+300 is greater than the maximum of 1000" \
            in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [1e18, 1e9, 1001])
def test_table_count_above_the_maximum_exits_2_without_allocating(tmp_path, capsys,
                                                                   monkeypatch, count):
    """1e9 temperatures would fill 8 GB in np.linspace, and 1e18 raised a
    MemoryError (exit 1): the schema refuses both before the grid is made."""
    def linspace(*args, **kwargs):
        raise AssertionError(f"np.linspace{args} called")

    monkeypatch.setattr(np, "linspace", linspace)
    raw = _mini_config(tmp_path / "out")
    raw["table"]["count"] = count
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    for stage in ("offline", "online", "dns", "verify", "errors"):
        assert cli.main([stage, str(p)]) == 2, stage
        assert f"$['table']['count']: {count!r} is greater than the maximum of 1000" \
            in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_table_count_at_the_maximum_loads():
    raw = example_config()
    raw["table"]["count"] = 1000
    assert len(SimulationConfig(raw).temperatures) == 1000


@pytest.mark.parametrize("key, src, t", [
    ("f_T", "1/0", 0.0005),
    ("f_T", "exp(1000)", 0.0005),
    ("f_Phi", "(x1-0.5)**-1", 0.0),
])
@pytest.mark.parametrize("stage", ["online", "dns"])
def test_expression_that_fails_where_it_is_evaluated_exits_2(pipeline, tmp_path, capsys,
                                                             stage, key, src, t):
    """A division by zero of two constants, an overflow and a pole on a mesh
    line each exit 2 naming the key, the expression and t, and the stage
    leaves no trajectory."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out" / "archive", out / "archive")
    raw = _mini_config(out)
    raw["sources"][key] = src
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    with np.errstate(all="ignore"):  # the numpy warnings of the overflow and the pole
        assert cli.main([stage, str(p)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: $['sources'][{key!r}]: {src!r}" in err
    assert f"t={t!r}" in err
    name = "macro" if stage == "online" else "dns"
    assert not (out / f"{name}_trajectory.npz").exists()


def test_finite_expressions_evaluate_as_before():
    """The checks pass finite values through unchanged, bit for bit."""
    pts = np.array([[0.25, 0.5], [0.5, 0.75], [1.0, 0.0]])
    for src in ("2*x1 + x2**2 - t", "1/exp(1000)", "0.5 + exp(-4*((x1 - 0.3)**2))", "7"):
        f = compile_expression(src)
        with np.errstate(all="ignore"):  # exp(1000) overflows on the way to 0.0
            want = np.broadcast_to(np.asarray(eval(src, {"exp": np.exp}, {
                "x1": pts[:, 0], "x2": pts[:, 1], "t": 0.25}), float), (3,))
            assert f(pts, 0.25).tobytes() == want.tobytes(), src


@pytest.mark.parametrize("src", ["1/0", "10.0**400", "sqrt(x1 - 2)", "x1/(x2 - x2)"])
def test_compiled_expression_raises_config_error(src):
    f = compile_expression(src)
    with np.errstate(all="ignore"), pytest.raises(ConfigError, match="t=0.5"):
        f(np.array([[0.25, 0.5]]), 0.5)


@pytest.mark.parametrize("geometry", [{"kind": "stripe", "radius": 0.25},
                                      {"kind": "disk", "fraction": 0.5},
                                      {"kind": "none", "radius": 0.25}])
def test_geometry_key_of_another_kind_exits_2(tmp_path, capsys, geometry):
    raw = _mini_config(tmp_path / "out")
    raw["geometry"] = geometry
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["offline", str(p)]) == 2
    key = "radius" if "radius" in geometry else "fraction"
    assert f"$['geometry']: {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "archive").exists()


@pytest.mark.parametrize("section, key, value", [("time", "snapshot_strid", 2),
                                                 ("table", "cellbc", "periodic")])
def test_misspelt_key_exits_2(tmp_path, capsys, section, key, value):
    """A misspelt optional key is refused, not dropped for the default of the real one."""
    raw = _mini_config(tmp_path / "out")
    raw[section][key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["offline", str(p)]) == 2
    assert (f"$[{section!r}]: Additional properties are not allowed ({key!r} was unexpected)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "archive").exists()


def test_every_subcommand_has_help(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    listing = " ".join(capsys.readouterr().out.split())
    for name, fn in cli._COMMANDS.items():
        assert fn.__doc__ and f"{name} {fn.__doc__}" in listing, name


def test_unparseable_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert cli.main(["offline", str(p)]) == 2


def test_archive_load_returns_a_complete_table(tmp_path, disk_cell_mesh, example_law):
    """load() attaches both corrector orders as well as the coefficients, each
    equal to what build_table made."""
    from homsim import homog

    table = homog.build_table(disk_cell_mesh, example_law, np.linspace(280.0, 400.0, 2),
                              Ttilde=300.0, bc="dirichlet")
    archive.save(tmp_path, disk_cell_mesh, example_law, table)
    expect = {"temperatures": table.temps.tolist(), "cell_bc": "dirichlet", "T_ref": 300.0}
    _, back = archive.load(tmp_path, example_law, expect)
    assert len(back.first) == len(back.second) == len(back.coeffs) == 2
    for got, ref in zip(back.first, table.first):
        for name in ("M", "H", "N", "P"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for got, ref in zip(back.second, table.second):
        assert got.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(got[name], ref[name]), name


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
    from homsim import macro

    def boom(self):
        raise macro.StepError("synthetic divergence")

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


def _edit_npz(path, **arrays):
    """Rewrite the npz at path with the given arrays in place of its own."""
    with np.load(path) as z:
        kept = {k: z[k] for k in z.files}
    np.savez(path, **dict(kept, **arrays))


def test_errors_exits_2_on_a_corrupted_macro_mesh(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    with np.load(out / "macro_trajectory.npz") as z:
        triangles = z["triangles"].copy()
    triangles[0, 0] = 999999
    _edit_npz(out / "macro_trajectory.npz", triangles=triangles)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_mini_config(out)))
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert "macro_trajectory.npz: malformed: a vertex index outside" in err
    assert "homsim online" in err


@pytest.mark.parametrize("name, stage", sorted(cli._ERRORS_INPUTS.items()))
def test_errors_exits_2_on_a_trajectory_that_does_not_fit_its_mesh(pipeline, tmp_path, capsys,
                                                                  name, stage):
    """T with one node fewer than the trajectory's mesh is refused."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    with np.load(out / name) as z:
        T = z["T"][:, :-1]
    _edit_npz(out / name, T=T)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_mini_config(out)))
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{name}: malformed: T is float64" in err and f"homsim {stage}" in err


@pytest.mark.parametrize("stage", ["online", "verify", "errors"])
def test_archive_without_its_cell_mesh_exits_2(pipeline, tmp_path, capsys, stage):
    arch, p = _damaged_copy(pipeline, tmp_path)
    (arch / "cell_mesh.npz").unlink()
    assert cli.main([stage, str(p)]) == 2
    assert "cell_mesh.npz: missing; re-run `homsim offline`" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["online", "verify", "errors"])
def test_archive_of_the_previous_version_exits_2(pipeline, tmp_path, capsys, stage):
    """An archive of version 1, which stored its cell mesh as text, is refused."""
    arch, p = _damaged_copy(pipeline, tmp_path)
    manifest = json.loads((arch / "manifest.json").read_text())
    assert manifest["version"] == archive.ARCHIVE_VERSION == 2
    (arch / "manifest.json").write_text(json.dumps(dict(manifest, version=1)))
    assert cli.main([stage, str(p)]) == 2
    assert "archive version 1 != supported 2; re-run `homsim offline`" in capsys.readouterr().err


@pytest.mark.parametrize("section, edit", [
    ("sources", lambda raw: raw["sources"].update(f_T=5000.0)),
    ("sources", lambda raw: raw["sources"].update(f_U=[500.0, "500 + x1"])),
    ("boundary", lambda raw: raw["boundary"].update(T=301.0)),
    ("initial", lambda raw: raw["initial"].update(V=[0.0, 1.0])),
], ids=["f_T", "f_U", "boundary T", "initial V"])
def test_errors_refuses_runs_with_other_sources_boundary_or_initial_data(
        pipeline, tmp_path, capsys, section, edit):
    """Runs made with the mini configuration, compared under another one:
    refused, naming the section and the run."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    raw = _mini_config(out)
    edit(raw)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    before = (out / "errors.csv").read_bytes()
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"macro_trajectory.npz ran with other {section} than this configuration" in err
    assert "re-run `homsim online`" in err
    assert (out / "errors.csv").read_bytes() == before


def test_errors_accepts_the_same_data_spelt_otherwise(pipeline, tmp_path):
    """Integers where the runs had floats, and keys in another order, hash alike."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    raw = _mini_config(out)
    raw["sources"] = {"f_U": [500, 500], "f_Phi": 20, "f_T": 2000}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["errors", str(p)]) == 0
    assert (out / "errors.csv").read_bytes() == (pipeline / "out" / "errors.csv").read_bytes()


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


@pytest.mark.parametrize("damage, message", [
    (lambda raw: "{" + raw, "manifest.json: unreadable"),
    (lambda raw: json.dumps([json.loads(raw)]), "manifest.json: not a JSON object"),
    (lambda raw: json.dumps({k: v for k, v in json.loads(raw).items() if k != "law_sha256"}),
     "manifest.json: missing field(s) law_sha256"),
], ids=["not JSON", "a list", "no law hash"])
@pytest.mark.parametrize("stage", ["online", "verify"])
def test_damaged_manifest_exits_2(pipeline, tmp_path, capsys, stage, damage, message):
    arch, p = _damaged_copy(pipeline, tmp_path)
    manifest = arch / "manifest.json"
    manifest.write_text(damage(manifest.read_text()))
    assert cli.main([stage, str(p)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["verify", "errors"])
def test_edited_cell_mesh_in_the_archive_exits_2(pipeline, tmp_path, capsys, stage):
    arch, p = _damaged_copy(pipeline, tmp_path)
    with np.load(arch / "cell_mesh.npz") as z:
        nodes = z["nodes"].copy()
    nodes[0, 1] += 1e-3  # the first node
    _edit_npz(arch / "cell_mesh.npz", nodes=nodes)
    assert cli.main([stage, str(p)]) == 2
    assert "cell-mesh hash" in capsys.readouterr().err


def _record_npz_reads(monkeypatch):
    """A list that receives (file name, array name) for every array read from an .npz."""
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recorded(self, key):
        read.append((pathlib.Path(self.zip.filename).name, key))
        return getitem(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recorded)
    return read


def test_only_errors_reads_the_second_order(pipeline, monkeypatch):
    """online and verify each read every coefficient array of the slots once
    and no corrector; errors reads both corrector orders and no coefficient."""
    from homsim.homog import COEFF_NAMES

    read = _record_npz_reads(monkeypatch)
    cfg = str(pipeline / "config.json")
    coefficients = sorted((f"T_{i:03d}.npz", "coeff_" + name)
                          for i in range(2) for name in COEFF_NAMES)
    for cmdname in ("online", "verify"):
        assert cli.main([cmdname, cfg]) == 0, cmdname
        assert sorted(r for r in read if r[0].startswith("T_")) == coefficients, cmdname
        del read[:]
    assert cli.main(["errors", cfg]) == 0
    keys = [k for _, k in read]
    assert "M" in keys and "second_Q" in keys
    assert not any(k.startswith("coeff_") for k in keys)


def _eager_errors_csv(out, cfg, path):
    """errors.csv as `homsim errors` writes it, from a table with every slot loaded up front."""
    from homsim import cell, macro, metrics, reconstruct

    cell_mesh, table = cli._load_archive(cfg, out)
    table.first, table.second = [], []
    for i, T in enumerate(table.temps):
        with np.load(out / "archive" / f"T_{i:03d}.npz") as z:
            table.first.append(cell.FirstOrderCellSet(
                T0=float(T), **{k: z[k] for k in ("M", "H", "N", "P")}))
            table.second.append({f: z["second_" + f] for f in cell.SECOND_ORDER_FAMILIES})
    traj = macro.load_trajectory(out / "macro_trajectory.npz", "online")
    ref = macro.load_trajectory(out / "dns_trajectory.npz", "dns")
    rec = reconstruct.Reconstructor(traj.mesh, cell_mesh, table, cfg.epsilon, ref.mesh)
    metrics.evolutive_errors(ref, traj, rec).to_csv(path)


def test_errors_reads_only_the_temperature_slots_it_reaches(pipeline, tmp_path, monkeypatch):
    """On a 4-temperature table whose first interval holds every macro T,
    errors reads correctors from T_000 and T_001 only, and writes the same
    errors.csv as a table with every slot loaded."""
    from homsim import macro

    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    shutil.rmtree(out / "archive")
    raw = _mini_config(out)
    raw["table"]["count"] = 4  # slots 280, 306.7, 333.3 and 360 K
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    for cmdname in ("offline", "online"):
        assert cli.main([cmdname, str(p)]) == 0, cmdname
    with np.load(out / "macro_trajectory.npz") as z:
        assert 280.0 <= z["T"].min() and z["T"].max() <= 280.0 + 80.0 / 3
    read = _record_npz_reads(monkeypatch)
    assert cli.main(["errors", str(p)]) == 0
    correctors = [(name, k) for name, k in read
                  if k in ("M", "H", "N", "P") or k.startswith("second_")]
    assert {name for name, _ in correctors} == {"T_000.npz", "T_001.npz"}
    assert len(correctors) == len(set(correctors))  # each read once, for every snapshot
    monkeypatch.undo()
    _eager_errors_csv(out, SimulationConfig.from_file(p), tmp_path / "eager.csv")
    assert (out / "errors.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()


def test_errors_refuses_a_dns_of_another_epsilon(pipeline, tmp_path, capsys):
    """The mini pipeline's DNS tiles 2 x 2 cells; a configuration with epsilon 1/4 is refused."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    raw = _mini_config(out)
    raw["epsilon"] = 0.25
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    before = (out / "errors.csv").read_bytes()
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err and "mesh.cell_h" in err and "dns_trajectory.npz" in err
    assert (out / "errors.csv").read_bytes() == before


@pytest.mark.parametrize("key", ["T_final", "dt"])
def test_errors_refuses_runs_on_another_time_grid(pipeline, tmp_path, capsys, key):
    """The mini pipeline ran 4 steps of 0.001; halving T_final or dt is refused."""
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    raw = _mini_config(out)
    raw["time"][key] /= 2
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    before = (out / "errors.csv").read_bytes()
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert "macro_trajectory.npz ran on TimeGrid(dt=0.001, n_steps=4)" in err
    assert "homsim online" in err
    assert (out / "errors.csv").read_bytes() == before


def _damage_npz(path, how, member):
    """Replace the .npz at path by garbage, cut it in half, or flip one bit in
    the middle of the bytes the file holds for member."""
    raw = bytearray(path.read_bytes())
    if how == "garbage":
        raw = b"not an npz file\n" * 8
    elif how == "truncated":
        raw = raw[:len(raw) // 2]
    else:
        with zipfile.ZipFile(path) as z:
            info = z.getinfo(member + ".npy")
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        raw[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 1
    path.write_bytes(raw)


@pytest.mark.parametrize("how", ["garbage", "truncated", "bit flip"])
@pytest.mark.parametrize("name", ["macro_trajectory.npz", "dns_trajectory.npz"])
def test_errors_exits_2_on_a_damaged_trajectory(pipeline, tmp_path, capsys, name, how):
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    _damage_npz(out / name, how, "T")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_mini_config(out)))
    assert cli.main(["errors", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{name}: unreadable (" in err and f"homsim {cli._ERRORS_INPUTS[name]}" in err


@pytest.mark.parametrize("how", ["garbage", "truncated", "bit flip"])
@pytest.mark.parametrize("stage, member", [("online", "coeff_k_hat"), ("verify", "coeff_c_hat"),
                                           ("errors", "M")])
def test_damaged_archive_slot_exits_2(pipeline, tmp_path, capsys, stage, member, how):
    """A slot that is no zip is refused when the archive loads, a bad CRC when
    the stage reads the damaged array."""
    arch, p = _damaged_copy(pipeline, tmp_path)
    _damage_npz(arch / "T_001.npz", how, member)
    assert cli.main([stage, str(p)]) == 2
    assert "T_001.npz: unreadable" in capsys.readouterr().err


def _npz_files(out):
    """The archive slots and both trajectories of a pipeline's output directory."""
    return sorted((out / "archive").glob("T_*.npz")) + [out / "macro_trajectory.npz",
                                                          out / "dns_trajectory.npz"]


def test_archive_slots_and_trajectories_are_stored_uncompressed(pipeline):
    files = _npz_files(pipeline / "out")
    assert len(files) == 4
    for path in files:
        with zipfile.ZipFile(path) as z:
            assert {m.compress_type for m in z.infolist()} == {zipfile.ZIP_STORED}, path.name


def test_compressed_archive_and_trajectories_still_load(pipeline, tmp_path):
    """Slots and trajectories re-saved with np.savez_compressed, as earlier
    versions wrote them, give the same arrays and the same errors.csv."""
    from homsim.homog import COEFF_NAMES

    arch, p = _damaged_copy(pipeline, tmp_path)
    for path in _npz_files(arch.parent):
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        np.savez_compressed(path, **arrays)
        with zipfile.ZipFile(path) as z:
            assert {m.compress_type for m in z.infolist()} == {zipfile.ZIP_DEFLATED}
    cfg = SimulationConfig.from_file(p)
    _, stored = cli._load_archive(cfg, pipeline / "out")
    _, deflated = cli._load_archive(cfg, arch.parent)
    for i in range(len(stored.temps)):
        for name in COEFF_NAMES:
            assert np.array_equal(getattr(stored.coeffs[i], name), getattr(deflated.coeffs[i], name))
        for name in ("M", "H", "N", "P"):
            assert np.array_equal(getattr(stored.first[i], name), getattr(deflated.first[i], name))
        assert stored.second[i].keys() == deflated.second[i].keys()
        for name, arr in stored.second[i].items():
            assert np.array_equal(arr, deflated.second[i][name]), name
    (arch.parent / "errors.csv").unlink()
    for cmdname in ("verify", "errors"):
        assert cli.main([cmdname, str(p)]) == 0, cmdname
    assert (arch.parent / "errors.csv").read_bytes() == (pipeline / "out" / "errors.csv").read_bytes()


def test_stages_load_only_scipys_kernels(pipeline, tmp_path):
    """The SciPy each stage loads, in one fresh process.

    The import of the CLI and verify, with or without the VTK output, load
    no SciPy module: verify builds no operator.  errors then loads SciPy's
    CSR kernels alone, for its CsrMatrix products, and offline on Dirichlet
    and on periodic cells, online and dns load the two compiled kernels and
    no scipy package.
    """
    out = tmp_path / "out"
    shutil.copytree(pipeline / "out", out)
    (out / "homs_final.vtk").unlink()
    paths = []
    for vtk in (False, True):
        raw = _mini_config(out)
        raw["output"]["vtk"] = vtk
        paths.append(tmp_path / f"cfg_vtk_{vtk}.json")
        paths[-1].write_text(json.dumps(raw))
    raw = _mini_config(tmp_path / "periodic")
    raw["table"]["cell_bc"] = "periodic"
    periodic = tmp_path / "cfg_periodic.json"
    periodic.write_text(json.dumps(raw))
    code = f"""
import sys, homsim.cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded(), f"import homsim.cli loaded {{loaded()}}"
paths = {[str(p) for p in paths]!r}
for p in paths:
    assert homsim.cli.main(["verify", p]) == 0, p
    assert not loaded(), f"homsim verify {{p}} loaded {{loaded()}}"
for p in paths:
    assert homsim.cli.main(["errors", p]) == 0, p
    assert loaded() == ["scipy.sparse._sparsetools"], f"homsim errors {{p}} loaded {{loaded()}}"
kernels = ["scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu"]
for cmd, p in [("offline", {str(periodic)!r})] + [(cmd, paths[0]) for cmd in ("offline", "online", "dns")]:
    assert homsim.cli.main([cmd, p]) == 0, (cmd, p)
    assert loaded() == kernels, f"homsim {{cmd}} {{p}} loaded {{loaded()}}"
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert (out / "homs_final.vtk").is_file()  # written by the run with the VTK output


def _fake_scipy(root, kernels):
    """A SciPy installation under root that reports version 1.99.0 and holds
    only the compiled modules kernels maps (path -> file to link or text of a
    Python module); importing its scipy package fails."""
    (root / "scipy-1.99.0.dist-info").mkdir(parents=True)
    (root / "scipy-1.99.0.dist-info" / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: scipy\nVersion: 1.99.0\n")
    (root / "scipy").mkdir()
    (root / "scipy" / "__init__.py").write_text("raise ImportError('the scipy package was imported')\n")
    for path, source in kernels.items():
        where = root.joinpath("scipy", *path.split(".")[:-1])
        where.mkdir(parents=True, exist_ok=True)
        if isinstance(source, str):
            (where / (path.split(".")[-1] + ".py")).write_text(source)
        else:
            (where / source.name).symlink_to(source)


@pytest.mark.parametrize("missing", ["module", "function"])
def test_a_scipy_without_a_kernel_exits_2_in_one_line(missing, tmp_path):
    """A SciPy that lacks a compiled module or a function fem calls stops the
    first stage that needs it with exit code 2 and one line naming the SciPy
    version, the module and the function: no traceback, no scipy import."""
    from homsim import fem

    real = pathlib.Path(fem._scipy_kernel("sparse._sparsetools").__file__)
    if missing == "module":  # the CSR kernels but no SuperLU
        kernels = {"sparse._sparsetools": real}
        expected = "has no module scipy.sparse.linalg._dsolve._superlu"
    else:  # a kernel module without csr_matvecs
        names = [f for f in fem.KERNEL_FUNCTIONS["sparse._sparsetools"] if f != "csr_matvecs"]
        kernels = {"sparse._sparsetools": f"{' = '.join(names)} = None\n"}
        expected = "has no csr_matvecs in scipy.sparse._sparsetools"
    _fake_scipy(tmp_path / "site", kernels)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_mini_config(tmp_path / "out")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path / "site"), str(SRC)]))
    done = subprocess.run([sys.executable, "-m", "homsim.cli", "offline", str(cfg)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("unsupported SciPy: SciPy 1.99.0"), lines
    assert expected in lines[0], lines


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

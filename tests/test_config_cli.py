"""Configuration validation, expression grammar and the CLI pipeline."""

import json
import shutil

import numpy as np
import pytest

from homsim import archive, cli
from homsim.config import (
    ConfigError,
    SimulationConfig,
    compile_expression,
    example_config,
)


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


def test_missing_section_rejected():
    raw = example_config()
    del raw["table"]
    with pytest.raises(ConfigError, match="table"):
        SimulationConfig(raw)


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

"""Tests of the pipeline benchmark itself.

    python3 -m pytest perfbench -q

Each test runs seconds-long miniatures of the workloads: the same stages and
checks on tiny meshes, tables and step counts.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"cell_h": 0.25, "macro_h": 0.25, "table": (280.0, 320.0, 2), "steps": 2,
        "stride": 1, "epsilon": 0.5}


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A checkout root holding the sources and BENCHMARK.json, with tiny workloads."""
    (tmp_path / "src").symlink_to(REPO / "src")
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.WORKLOADS, name, dict(workloads.WORKLOADS[name], **TINY))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_miniature_prints_every_metric_with_its_unit(checkout, capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    declared = run.declared_metrics(checkout, bool(trace))
    res = _result(out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] == (10 if trace else 5)
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], (int, float))
        line = next(ln for ln in out.splitlines() if ln.split()[:1] == [m["name"]])
        assert line.split()[2] == m["unit"]
    # the tiny inputs match no stored digest, and every other check passes
    assert all("reference digest" in ln for ln in out.splitlines() if ln.startswith("FAILED"))
    assert "environment: " in out
    assert res["metrics"]["pipeline_s" if not trace else "fem.factor_calls"]["value"] > 0


def test_self_time_never_exceeds_inclusive_time(checkout):
    config = workloads.make_config("fine-reference", 0)
    pipe = run.run_pipeline(checkout, checkout / "work", config, trace=True)
    assert all(s["rc"] == 0 for s in pipe["stages"])
    for s in pipe["stages"]:
        st = run.span_stats(s["spans"])
        for name, own in st["self"].items():
            assert 0.0 <= own <= st["inclusive"][name] + 1e-9
        # every span lies inside the root, so module self times add up to it
        root = s["spans"][0]
        assert sum(st["module_self"].values()) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_nested_spans_of_one_name_count_once():
    spans = [["cli", 0.0, 10.0, None], ["fem.a", 1.0, 5.0, 0], ["fem.a", 2.0, 3.0, 1],
             ["macro.b", 6.0, 9.0, 0]]
    st = run.span_stats(spans)
    assert st["calls"] == {"cli": 1, "fem.a": 2, "macro.b": 1}
    assert st["inclusive"]["fem.a"] == 4.0
    assert st["self"] == {"cli": 3.0, "fem.a": 4.0, "macro.b": 3.0}
    assert st["module_self"] == {"cli": 3.0, "fem": 4.0, "macro": 3.0}


def test_exact_counts_repeat_across_runs(checkout):
    config = workloads.make_config("cell-table", 5)
    counts = []
    for _ in range(2):
        pipe = run.run_pipeline(checkout, checkout / "work", config, trace=True)
        vals = run.layer_values(pipe, checkout / "work" / "out")
        counts.append({k: v for k, v in vals.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["cell.solves"] > 0 and counts[0]["macro.steps"] == 2 * TINY["steps"]
    assert counts[0]["fem.periodic_solve_calls"] > 0


def test_bad_config_is_a_failed_stage(checkout, capsys, monkeypatch):
    good = workloads.make_config

    def bad(workload, seed):
        cfg = good(workload, seed)
        cfg["geometry"]["kind"] = "hexagon"
        return cfg

    monkeypatch.setattr(workloads, "make_config", bad)
    rc = run.main(["--workload", "macro-march", "--seed", "0", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    res = _result(out)
    assert rc == 1
    assert res["correct"] is False
    assert res["attempted"] == 1 and res["failed"] == 1
    assert "FAILED offline: exit code 2" in out


def test_digest_mismatch_fails_the_producing_stage(checkout):
    config = workloads.make_config("macro-march", 1)
    pipe = run.run_pipeline(checkout, checkout / "work", config)
    run.check_pipeline(pipe, checkout / "work", config, reference=None)
    ref = dict(pipe["digest"])
    ref["dns_norms"] = [x * (1 + 1e-4) for x in ref["dns_norms"]]
    for s in pipe["stages"]:
        s["problems"] = []
    run.check_pipeline(pipe, checkout / "work", config, reference=ref)
    failed = {s["stage"] for s in pipe["stages"] if s["problems"]}
    assert failed == {"dns"}


def test_temperature_outside_the_table_fails_online(checkout):
    config = workloads.make_config("macro-march", 2)
    config["table"]["T_min"] = 301.0
    pipe = run.run_pipeline(checkout, checkout / "work", config)
    run.check_pipeline(pipe, checkout / "work", config, reference=None)
    online = next(s for s in pipe["stages"] if s["stage"] == "online")
    assert any("leaves the table" in p for p in online["problems"])


def test_seed_sets_sources_only():
    a, b = (workloads.make_config("macro-march", s) for s in (0, 1))
    assert a["sources"] != b["sources"]
    assert {k: v for k, v in a.items() if k != "sources"} == \
        {k: v for k, v in b.items() if k != "sources"}
    assert workloads.make_config("macro-march", workloads.VARIANTS) == a


def test_generated_configs_validate():
    sys.path.insert(0, str(REPO / "src"))
    from homsim.config import SimulationConfig

    for name in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):
            cfg = SimulationConfig(workloads.make_config(name, seed))
            cfg.problem_data()


def test_reference_covers_every_variant():
    ref = json.loads((HERE / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        assert sorted(map(int, ref[name]["variants"])) == list(range(workloads.VARIANTS))


def test_slowdown_averages_the_samples_of_the_interval():
    p = probe.SpeedProbe("unused")
    t = np.arange(0.0, 20.0, 0.5)
    p.samples = np.column_stack([t, np.where(t < 10.0, 1.0, 2.0) * probe.NOMINAL_S])
    assert p.slowdown(2.0, 8.0) == pytest.approx(1.0)
    assert p.slowdown(12.0, 18.0) == pytest.approx(2.0)
    # too few samples inside: the nearest ones
    assert p.slowdown(15.1, 15.2) == pytest.approx(2.0)


def test_probe_process_samples_and_stops(tmp_path):
    with probe.SpeedProbe(tmp_path / "probe.bin", period=0.05) as p:
        assert p.proc.poll() is None
    assert p.proc.returncode is not None
    assert len(p.samples) >= 1 and np.all(p.samples[:, 1] > 0)

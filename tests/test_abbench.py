"""The A/B driver's statistics, file layout and plumbing, on canned run records."""

import importlib.util
import json
import pathlib
import subprocess
import textwrap

import numpy as np
import pytest

AB = pathlib.Path(__file__).resolve().parents[1] / "abbench" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("abbench_ab", AB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


DECLARED = [{"name": "errors_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
HOST = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "cpu": "x"}


def _record(side, pair, first, errors_s, rss=80.0, failed=0, outputs=None):
    return {"side": side, "pair": pair, "first": first, "returncode": 0,
            "environment": HOST, "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"errors_s": errors_s, "peak_rss_mb": rss},
            "stages": {"errors": {"setup_s": errors_s / 2, "wall_s": errors_s}},
            "outputs": outputs or {"coefficients.csv": "aa", "errors.csv": "bb"}}


def _records(parent, change, **kw):
    recs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for i, side in enumerate(order):
            recs.append(_record(side, k, i == 0, p if side == "parent" else c, **kw))
    return recs


def test_stats_counts_wins_ties_and_the_parent_iqr(ab):
    st = ab.stats([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.5, 1.0], "lower")
    assert (st["wins"], st["losses"]) == (3, 1)  # the tie counts for neither
    assert st["parent_median"] == 3.0 and st["change_median"] == 2.0
    assert st["parent_iqr"] == pytest.approx(2.0)  # quartiles 2 and 4
    assert st["change_over_parent"] == pytest.approx(2.0 / 3.0)
    assert st["verdict"] == "none"
    assert st["parent"] == [1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("change, better, verdict", [
    ([0.5] * 9 + [2.0], "lower", "gain"),    # 9 of 10 and beyond the IQR
    ([0.5] * 8 + [2.0] * 2, "lower", "none"),  # 8 of 10
    ([0.99] * 10, "lower", "none"),          # 10 of 10 but within the IQR
    ([2.0] * 10, "lower", "loss"),
    ([2.0] * 10, "higher", "gain"),
    ([0.5] * 9, "lower", "none"),            # 9 of 9, but fewer than ten pairs
])
def test_verdict_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr(ab, change, better,
                                                                      verdict):
    parent = ([0.98, 1.0, 1.02] * 3 + [1.0])[:len(change)]
    assert ab.stats(parent, change, better)["verdict"] == verdict


def test_summarize_writes_the_documented_layout(ab):
    recs = _records([1.0, 1.1, 0.9], [0.8, 0.85, 0.7])
    recs[-1]["failed"] = 2
    entry = ab.summarize(recs, DECLARED)
    assert entry["pairs"] == 3
    assert entry["first_side"] == ["parent", "change", "parent"]
    assert entry["failed"] == {"parent": 0, "change": 2}
    assert entry["attempted"] == {"parent": 30, "change": 30}
    assert entry["outputs"] == {"parent": {"coefficients.csv": "aa", "errors.csv": "bb"},
                                "change": {"coefficients.csv": "aa", "errors.csv": "bb"},
                                "stable": True, "identical": True}
    e = entry["metrics"]["errors_s"]
    assert e["parent"] == [1.0, 1.1, 0.9] and e["change"] == [0.8, 0.85, 0.7]
    assert e["wins"] == 3 and e["parent_median"] == 1.0 and e["change_median"] == 0.8
    assert set(e) == {"better", "parent_median", "change_median", "parent_iqr",
                      "change_over_parent", "wins", "losses", "verdict", "parent", "change"}
    assert entry["metrics"]["peak_rss_mb"]["wins"] == 0
    assert entry["stages"]["errors"]["setup_s"]["parent"] == [0.5, 0.55, 0.45]
    assert entry["stages"]["offline"]["wall_s"]["parent_median"] is None


def test_outputs_that_differ_or_drift_are_not_identical(ab):
    recs = _records([1.0, 1.0], [1.0, 1.0])
    recs[3]["outputs"] = {"coefficients.csv": "aa", "errors.csv": "cc"}  # pair 1, parent
    out = ab.summarize(recs, DECLARED)["outputs"]
    assert out["stable"] is False and out["identical"] is False


def test_append_gathers_runs_and_refuses_another_host(ab, tmp_path):
    path = tmp_path / "BENCH.json"
    entry = {"workload": "w", "seed": 0}
    ab.append(path, entry, HOST)
    doc = ab.append(path, dict(entry, seed=7), HOST)
    assert doc == json.loads(path.read_text())
    assert doc["layout"] == ab.LAYOUT and doc["host"] == HOST
    assert doc["command"] == "python3 perfbench/run.py --workload W --seed S --seconds 10"
    assert [r["seed"] for r in doc["runs"]] == [0, 7]
    assert doc["notes"] == {}
    with pytest.raises(ValueError, match="another host"):
        ab.append(path, entry, dict(HOST, cpu="y"))
    path.write_text(json.dumps({"layout": "abbench 0"}))
    with pytest.raises(ValueError, match="layout"):
        ab.load(path)


def test_main_refuses_another_host_after_the_first_run(ab, tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"
    ab.append(out, {"workload": "w", "seed": 0}, HOST)
    before = out.read_text()

    def extract(repo, rev, dest):
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
        return "tree"

    runs = []

    def run_side(tree, workload, seed):
        runs.append(tree.name)
        return _record(None, None, None, 1.0) | {"environment": dict(HOST, numpy="9.9")}

    monkeypatch.setattr(ab, "extract", extract)
    monkeypatch.setattr(ab, "run_side", run_side)
    args = ["--parent", "a", "--workload", "w", "--seed", "0", "--pairs", "10",
            "--out", str(out), "--work", str(tmp_path / "work")]
    with pytest.raises(ValueError, match="another host"):
        ab.main(args)
    assert runs == ["parent"] and out.read_text() == before


FAKE_RUN = """
import json, pathlib, sys
work = pathlib.Path(".perfbench_work") / sys.argv[2]
out = work / "out"
out.mkdir(parents=True, exist_ok=True)
(out / "coefficients.csv").write_text("T0,k\\n300,1\\n")
(out / "errors.csv").write_text("t,e\\n0,1\\n")
stage = lambda name, setup, wall: {"stage": name, "ref_setup": setup, "ref_wall": wall}
pipes = [{"trace": False, "stages": [stage("errors", s, 2 * s), stage("offline", s, 3 * s)]}
         for s in (0.1, 0.3, 0.2)]
(work / "result.json").write_text(json.dumps({"config": {"output": {"directory": "out"}},
                                              "pipelines": pipes}))
print("environment: " + json.dumps({"python": "3.x", "cpu": "fake"}))
print(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"errors_s": {"value": 0.5, "unit": "s"}}}))
"""


def test_run_side_reads_the_benchmark_output_and_hashes_the_outputs(ab, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent(FAKE_RUN))
    out = tmp_path / ".perfbench_work" / "w" / "out"
    out.mkdir(parents=True)
    np.savez(out / "macro_trajectory.npz", T=np.arange(3.0))
    rec = ab.run_side(tmp_path, "w", 0)
    assert rec["environment"] == {"python": "3.x", "cpu": "fake"}
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (True, 5, 0)
    assert rec["metrics"] == {"errors_s": 0.5}
    assert rec["stages"]["errors"] == {"setup_s": 0.2, "wall_s": 0.4}
    assert rec["stages"]["online"] == {"setup_s": None, "wall_s": None}
    digests = rec["outputs"]
    assert digests["dns_trajectory.npz"] is None
    assert digests["archive_first"] is None and digests["archive_second"] is None
    assert len(digests["errors.csv"]) == 64
    np.savez(out / "macro_trajectory.npz", T=np.array([0.0, 1.0, 2.0 + 1e-12]))
    assert ab.output_digests(out)["macro_trajectory.npz"] != digests["macro_trajectory.npz"]


def _pipeline_outputs(out):
    """A synthetic pipeline directory: two CSVs, a trajectory and a 2-slot archive."""
    rng = np.random.default_rng(4)
    (out / "archive").mkdir(parents=True)
    (out / "coefficients.csv").write_text("T0,k_hat_11\n300,1.5\n340,1.25\n")
    (out / "errors.csv").write_text("t,e_Phi\n0.001,nan\n0.002,0.5\n")
    np.savez(out / "macro_trajectory.npz", T=rng.standard_normal((3, 5)))
    for i in range(2):
        np.savez(out / "archive" / f"T_{i:03d}.npz", T0=np.float64(300.0 + 40 * i),
                 M=rng.standard_normal((2, 5)), coeff_k_hat=rng.standard_normal((2, 2)),
                 second_Q=rng.standard_normal(5), second_N2=rng.standard_normal((2, 5)))


def test_max_rel_diff_reports_only_the_outputs_that_differ(ab, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _pipeline_outputs(parent)
    _pipeline_outputs(change)
    assert ab.max_rel_diff(parent, change) == {}
    npz = change / "archive" / "T_001.npz"
    with np.load(npz) as z:
        arrays = {k: z[k] for k in z.files}
    scale = np.abs(arrays["second_Q"]).max()
    arrays["second_Q"][2] += 1e-14 * scale
    np.savez(npz, **arrays)
    got = ab.max_rel_diff(parent, change)
    assert list(got) == ["archive_second"]
    assert got["archive_second"] == pytest.approx(1e-14, rel=1e-3)
    digests = ab.output_digests(change)
    assert digests["archive_first"] == ab.output_digests(parent)["archive_first"]


def test_max_rel_diff_is_inf_where_nan_positions_differ(ab, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _pipeline_outputs(parent)
    _pipeline_outputs(change)
    (change / "errors.csv").write_text("t,e_Phi\n0.001,0.5\n0.002,nan\n")
    assert ab.max_rel_diff(parent, change) == {"errors.csv": float("inf")}
    assert ab.rel_diff([1.0, np.nan, -4.0], [1.0, np.nan, -4.0 + 2.0**-49]) == 2.0**-51


def test_extract_writes_the_tree_of_a_revision(ab, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "a.txt").write_text("one\n")
    subprocess.run(git + ["add", "a.txt"], check=True)
    subprocess.run(git + ["commit", "-qm", "one"], check=True)
    (repo / "a.txt").write_text("two\n")  # not committed: the extract reads the revision
    dest = tmp_path / "work" / "parent"
    dest.mkdir(parents=True)
    (dest / "stale.txt").write_text("left from an earlier run")
    tree = ab.extract(repo, "HEAD", dest)
    assert (dest / "a.txt").read_text() == "one\n" and not (dest / "stale.txt").exists()
    assert tree == subprocess.run(git + ["rev-parse", "HEAD^{tree}"], check=True,
                                  capture_output=True, text=True).stdout.strip()


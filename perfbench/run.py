"""Pipeline benchmark: wall time of each homsim CLI stage on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pipeline runs the five stages
``offline -> verify -> online -> dns -> errors`` as a user runs them: one
process per stage, ``homsim.cli.main`` on a configuration generated from the
seed (see ``workloads.py``).  The load is a closed loop: one stage at a time,
each starting when the previous one has exited; BLAS threads are pinned to 1.
No stage waits on another layer (no threads or queues), so no wait time is
reported.

The stages run pinned to one CPU, beside a speed probe pinned to the same CPU
(``probe.py``).  A shared host runs that CPU slower at some times than at
others, by up to 1.6 times for minutes, which moves every wall time alike.
So each end-to-end time is reported at the reference CPU speed: the measured
time divided by the CPU's slowdown over the same interval, as the probe saw
it.  The measured medians and the slowdowns are printed beside them.  The
per-layer span times are measured times.

With ``--trace 0`` pipelines run back to back until S seconds have passed
(at least one), and the end-to-end metrics of BENCHMARK.json are medians over
them.  With ``--trace 1`` one untraced pipeline runs first, then traced
pipelines until S seconds have passed; the per-layer metrics come from the
spans of the traced pipelines, and the tracing overhead is the traced minus
the untraced ``pipeline_s``, both at the reference CPU speed.

Every stage invocation is checked: it must exit 0, macro T must stay inside
the table range and DNS T inside the law's T_range, and an output digest
must agree with the one stored in ``reference.json``.  A failed invocation
counts in ``failed``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe as speed_probe  # noqa: E402
import stage as stage_mod  # noqa: E402
import workloads  # noqa: E402

STAGES = ("offline", "verify", "online", "dns", "errors")
BLAS_THREADS = "1"
BLAS_ENV = {k: BLAS_THREADS for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
# Relative tolerance of the output digest.  Every solve meets a 1e-10
# relative residual, so unchanged code on another CPU or BLAS build differs
# from the stored digest by rounding only, while a changed discretisation or
# coefficient moves it by far more than 1e-6.
DIGEST_RTOL = 1e-6
DIGEST_ATOL = 1e-9  # times the largest magnitude in the same column
# A run must end within 180 s; stages still running this long after the
# first pipeline started are killed and count as failed.
RUN_LIMIT_S = 160.0


# ---------------------------------------------------------------------------
# running stages
# ---------------------------------------------------------------------------

def stage_env(root: pathlib.Path) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_stage(root, work, stage, trace, timeout=None):
    """One ``homsim <stage> config.json`` process in ``work``.

    A process still running after ``timeout`` seconds is killed and fails.
    """
    report = work / f"{stage}.report.json"
    report.unlink(missing_ok=True)
    with open(work / f"{stage}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "stage.py"), str(report), repr(t0),
             "1" if trace else "0", stage, "config.json"],
            cwd=work, env=stage_env(root), stdout=log, stderr=subprocess.STDOUT)
        # a blocking wait returns as soon as the process exits; wait(timeout)
        # would poll and round the wall time up to 50 ms
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        killer = threading.Timer(timeout, kill) if timeout is not None else None
        if killer is not None:
            killer.start()
        try:
            rc = proc.wait()
        finally:
            if killer is not None:
                killer.cancel()
                killer.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t1 = time.monotonic()
        if killed:
            rc = None
    res = {"stage": stage, "rc": rc, "t0": t0, "t1": t1, "wall": t1 - t0, "problems": []}
    if report.exists():
        rep = json.loads(report.read_text())
        res["maxrss_kb"] = rep["maxrss_kb"]
        res["cell_solves"] = rep["cell_solves"]
        if rep["t_config"] is not None:
            res["setup"] = rep["t_config"] - t0
        res["spans"] = rep.get("spans")
        res["counts"] = rep.get("counts")
    if rc is None:
        res["problems"].append(f"killed after {timeout:.0f} s")
    elif rc != 0:
        res["problems"].append(f"exit code {rc}")
    return res


def run_pipeline(root, work, config: dict, trace: bool = False, deadline=None) -> dict:
    """All five stages in order; stops at the first failed exit.

    ``deadline`` is a ``time.monotonic()`` reading by which every stage must
    have ended.  Output checks run after the last stage, outside the timed
    interval.
    """
    work.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work / config["output"]["directory"], ignore_errors=True)
    (work / "config.json").write_text(json.dumps(config, indent=1))
    stages = []
    t0 = time.monotonic()
    for name in STAGES:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        res = run_stage(root, work, name, trace, timeout)
        stages.append(res)
        if res["rc"] != 0:
            break
    t1 = time.monotonic()
    return {"trace": trace, "t0": t0, "t1": t1, "wall": t1 - t0, "stages": stages}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _final_norms(path):
    with np.load(path) as z:
        return [float(np.linalg.norm(z[k][-1])) for k in ("T", "Phi", "U")]


def _temperature_range(path):
    with np.load(path) as z:
        T = np.concatenate([z["T"].ravel(), z["T_prev"].ravel()])
    return float(T.min()), float(T.max())


def digest(out: pathlib.Path) -> dict:
    """Coefficients table, final-snapshot norms of both trajectories, last error row.

    The norms are Euclidean norms of the nodal T, Phi and U arrays.
    """
    return {
        "coefficients": np.loadtxt(out / "coefficients.csv", delimiter=",",
                                   skiprows=1, ndmin=2).tolist(),
        "macro_norms": _final_norms(out / "macro_trajectory.npz"),
        "dns_norms": _final_norms(out / "dns_trajectory.npz"),
        "errors_last": np.loadtxt(out / "errors.csv", delimiter=",",
                                  skiprows=1, ndmin=2)[-1].tolist(),
    }


def agree(got, ref) -> bool:
    got, ref = np.atleast_2d(np.asarray(got, float)), np.atleast_2d(np.asarray(ref, float))
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return False
    scale = np.abs(ref).max(axis=0, keepdims=True)
    return bool(np.all(np.abs(got - ref) <= DIGEST_RTOL * np.abs(ref) + DIGEST_ATOL * scale))


# digest entry -> the stage that produced it
_PRODUCER = {"coefficients": "offline", "macro_norms": "online",
             "dns_norms": "dns", "errors_last": "errors"}


def check_pipeline(pipe: dict, work, config: dict, reference) -> None:
    """Add output problems to the stage that produced the output.

    reference is {"coefficients": ..., "macro_norms": ..., ...} or None when
    no digest is stored for this input.
    """
    by_stage = {s["stage"]: s for s in pipe["stages"]}
    ran = {name for name, s in by_stage.items() if s["rc"] == 0}
    out = work / config["output"]["directory"]
    tb = config["table"]
    law_lo, law_hi = config["materials"]["T_range"]
    limits = {"online": ("macro_trajectory.npz", tb["T_min"], tb["T_max"], "table"),
              "dns": ("dns_trajectory.npz", law_lo, law_hi, "law T_range")}
    for name, (fname, lo, hi, what) in limits.items():
        if name in ran:
            try:
                tmin, tmax = _temperature_range(out / fname)
            except (OSError, KeyError, ValueError) as e:
                by_stage[name]["problems"].append(f"cannot read {fname}: {e}")
                continue
            if tmin < lo or tmax > hi:
                by_stage[name]["problems"].append(
                    f"T in [{tmin:.6g}, {tmax:.6g}] leaves the {what} [{lo}, {hi}]")
    if "errors" not in ran:
        return
    try:
        got = digest(out)
    except (OSError, KeyError, ValueError) as e:
        by_stage["errors"]["problems"].append(f"cannot compute the output digest: {e}")
        return
    pipe["digest"] = got
    for key, producer in _PRODUCER.items():
        if reference is None:
            by_stage[producer]["problems"].append("no reference digest stored")
        elif not agree(got[key], reference[key]):
            by_stage[producer]["problems"].append(f"{key} differs from the reference digest")


def load_reference(workload: str, seed: int):
    """The stored digest for this workload and seed, or None."""
    try:
        ref = json.loads((HERE / "reference.json").read_text())[workload]
        var = ref["variants"][str(workloads.variant(seed))]
    except (FileNotFoundError, KeyError):
        return None
    return dict(var, coefficients=ref["coefficients"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def span_stats(spans) -> dict:
    """Per span name: calls, inclusive and self seconds; per module: self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts a span only when no ancestor has the
    same name, so nested calls of one name are not counted twice.
    """
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
    calls, incl, self_by_name, module_self = {}, {}, {}, {}
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        outer = True
        p = parent
        while p is not None:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            incl[name] = incl.get(name, 0.0) + dur[i]
        own = dur[i] - child[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        mod = name.split(".")[0]
        module_self[mod] = module_self.get(mod, 0.0) + own
    return {"calls": calls, "inclusive": incl, "self": self_by_name, "module_self": module_self}


def layer_values(pipe: dict, root_out: pathlib.Path) -> dict:
    """Per-layer metrics of one traced pipeline."""
    names = {"cli"} | {name for _, _, name, _ in stage_mod.SPANS}
    vals = {f"{n}_calls": 0 for n in names}
    vals.update({f"{n}_s": 0.0 for n in names})
    vals.update({f"{m}.self_s": 0.0 for m in stage_mod.MODULES})
    vals.update({"fem.factor_dofs": 0, "fem.factor_nnz": 0, "macro.steps": 0, "cell.solves": 0})
    for s in pipe["stages"]:
        st = span_stats(s.get("spans") or [])
        for n, c in st["calls"].items():
            vals[f"{n}_calls"] += c
        for n, t in st["inclusive"].items():
            vals[f"{n}_s"] += t
        for m, t in st["module_self"].items():
            vals[f"{m}.self_s"] += t
        for k, c in (s.get("counts") or {}).items():
            vals[k] += c
        vals["cell.solves"] += s.get("cell_solves", 0)
    archive_dir = root_out / "archive"
    vals["archive.bytes"] = sum(f.stat().st_size for f in archive_dir.iterdir()) \
        if archive_dir.is_dir() else 0
    return vals


def dominant_breakdown(pipe: dict, stage: str) -> dict:
    for s in pipe["stages"]:
        if s["stage"] == stage and s.get("spans"):
            return span_stats(s["spans"])["module_self"]
    return {}


def _median(xs):
    return statistics.median(xs) if xs else None


def rescale(pipes, probe) -> None:
    """Add every time at the reference CPU speed, under the key ``ref_<key>``.

    A time at the reference speed is the measured time divided by the
    probe's slowdown over the same interval (see ``probe.py``).
    """
    for p in pipes:
        p["ref_wall"] = p["wall"] / probe.slowdown(p["t0"], p["t1"])
        for s in p["stages"]:
            s["slowdown"] = probe.slowdown(s["t0"], s["t1"])
            s["ref_wall"] = s["wall"] / s["slowdown"]
            if "setup" in s:
                s["ref_setup"] = s["setup"] / probe.slowdown(s["t0"], s["t0"] + s["setup"])


def end_to_end_values(pipes, prefix: str = "ref_") -> tuple:
    """Medians over pipelines, and the sample count behind each.

    With the default prefix the times are at the reference CPU speed; with
    ``prefix=""`` they are the measured wall times.
    """
    wall, setup = prefix + "wall", prefix + "setup"
    vals, counts = {}, {}
    for name in ("offline", "online", "dns", "errors"):
        xs = [s[wall] for p in pipes for s in p["stages"] if s["stage"] == name]
        vals[f"{name}_s"], counts[f"{name}_s"] = _median(xs), len(xs)
    done = [p for p in pipes if len(p["stages"]) == len(STAGES)]
    vals["pipeline_s"], counts["pipeline_s"] = _median([p[wall] for p in done]), len(done)
    # every invocation imports the same package and loads the same file, so
    # the per-invocation median times the stage count estimates the sum
    setups = [s[setup] for p in pipes for s in p["stages"] if setup in s]
    med = _median(setups)
    vals["setup_s"] = None if med is None else len(STAGES) * med
    counts["setup_s"] = len(setups)
    rss = [max(s["maxrss_kb"] for s in p["stages"] if "maxrss_kb" in s) / 1024.0
           for p in pipes if any("maxrss_kb" in s for s in p["stages"])]
    vals["peak_rss_mb"], counts["peak_rss_mb"] = _median(rss), len(rss)
    return vals, counts


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared_metrics(root: pathlib.Path, trace: bool) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def warm_up(root, work) -> None:
    """Compile the package's bytecode and fill the file cache before timing."""
    work.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-c", "import homsim.cli"], cwd=work,
                   env=stage_env(root), check=True, stdout=subprocess.DEVNULL)


def bench(root, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = root / ".perfbench_work" / workload
    config = workloads.make_config(workload, seed)
    reference = load_reference(workload, seed)
    # the stages, their checks and the speed probe share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_up(root, work)
    pipes = []
    with speed_probe.SpeedProbe(work / "probe.bin") as probe:
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        # trace mode: one untraced pipeline first, for the tracing overhead
        plan = [False] if trace else []
        while plan or not pipes or pipes[-1]["trace"] != trace \
                or time.monotonic() - start + 0.5 * pipes[-1]["wall"] < seconds:
            pipe = run_pipeline(root, work, config, trace=plan.pop(0) if plan else trace,
                                deadline=deadline)
            # checks read the outputs this pipeline just wrote
            check_pipeline(pipe, work, config, reference)
            if pipe["trace"]:
                pipe["layers"] = layer_values(pipe, work / config["output"]["directory"])
                pipe["dominant"] = dominant_breakdown(
                    pipe, workloads.WORKLOADS[workload]["dominant"])
            pipes.append(pipe)
    rescale(pipes, probe)
    return {"config": config, "pipelines": pipes, "work": work}


def summarize(result: dict, workload: str, trace: bool) -> tuple:
    """(values, sample counts) of every metric the run measures."""
    pipes = result["pipelines"]
    vals, counts = end_to_end_values([p for p in pipes if not p["trace"]])
    if not trace:
        return vals, counts
    traced = [p for p in pipes if p["trace"]]
    lv = {key: statistics.median(p["layers"][key] for p in traced)
          for key in traced[0]["layers"]}
    tvals, _ = end_to_end_values(traced)
    dom = workloads.WORKLOADS[workload]["dominant"]
    if tvals["pipeline_s"] is not None and vals["pipeline_s"] is not None:
        lv["trace.overhead_s"] = tvals["pipeline_s"] - vals["pipeline_s"]
    # both sides at the reference CPU speed, like the overhead
    lv["trace.dominant_stage_s"] = vals[f"{dom}_s"]
    lv["trace.dominant_self_sum_s"] = statistics.median(
        sum(p["dominant"].values()) / next((s["slowdown"] for s in p["stages"]
                                            if s["stage"] == dom), 1.0)
        for p in traced)
    return lv, {k: len(traced) for k in lv}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "homsim" / "cli.py").is_file():
        print(f"{root}: no homsim sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics(root, trace)
    try:
        result = bench(root, args.workload, args.seed, args.seconds, trace)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2
    vals, counts = summarize(result, args.workload, trace)

    invocations = [s for p in result["pipelines"] for s in p["stages"]]
    failed = [s for s in invocations if s["problems"]]
    for s in failed:
        print(f"FAILED {s['stage']}: {'; '.join(s['problems'])}")
    env = environment()
    print(f"workload {args.workload} seed {args.seed} (input variant "
          f"{workloads.variant(args.seed)}): {len(result['pipelines'])} pipelines in a "
          f"closed loop, one process and one stage at a time; no layer waits on "
          f"another (no threads or queues), so no wait time is reported")
    print("environment: " + json.dumps(env))
    untraced = [p for p in result["pipelines"] if not p["trace"]]
    measured, _ = end_to_end_values(untraced, prefix="")
    slowdowns = [s["slowdown"] for p in result["pipelines"] for s in p["stages"]]
    print(f"times are at the reference CPU speed: the measured time divided by the "
          f"CPU's slowdown over the same interval (median slowdown "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-"
          f"{max(slowdowns):.3f}); measured medians: "
          + ", ".join(f"{k} {v:.4f}" for k, v in measured.items() if v is not None))
    metrics, missing = {}, []
    for m in declared:
        v = vals.get(m["name"])
        if v is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<32} {v:>16.6f} {m['unit']:<6} "
              f"(median of {counts.get(m['name'], 0)})")
    if trace:
        dom = workloads.WORKLOADS[args.workload]["dominant"]
        last = result["pipelines"][-1]
        br = last["dominant"]
        slow = next((s["slowdown"] for s in last["stages"] if s["stage"] == dom), 1.0)
        print(f"measured self time by module in the last traced '{dom}' stage "
              f"(sum {sum(br.values()):.4f} s; {sum(br.values()) / slow:.4f} s at the "
              f"reference CPU speed):")
        for mod, t in sorted(br.items(), key=lambda kv: -kv[1]):
            print(f"  {mod:<12} {t:10.4f} s")
    write_records(result, env, metrics, trace)
    if missing:
        print(f"not measured (a stage failed before it): {', '.join(missing)}",
              file=sys.stderr)
    print(json.dumps({"correct": not failed and not missing,
                      "attempted": len(invocations), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if missing else 0


def write_records(result: dict, env: dict, metrics: dict, trace: bool) -> None:
    """Spans and the run summary, written once at the end of the run."""
    work = result["work"]
    if trace:
        with open(work / "spans.jsonl", "w") as fh:
            for i, p in enumerate(result["pipelines"]):
                for s in p["stages"]:
                    run_id = f"pipeline{i}/{s['stage']}"
                    for sid, (name, start, end, parent) in enumerate(s.get("spans") or []):
                        fh.write(json.dumps({"run": run_id, "id": sid, "name": name,
                                             "start": start, "end": end,
                                             "parent": parent}) + "\n")
    summary = {"environment": env, "config": result["config"], "metrics": metrics,
               "pipelines": [{"trace": p["trace"], "wall": p["wall"],
                              "ref_wall": p["ref_wall"],
                              "stages": [{k: s.get(k) for k in
                                          ("stage", "rc", "wall", "setup", "slowdown",
                                           "ref_wall", "ref_setup", "maxrss_kb",
                                           "problems")} for s in p["stages"]]}
                             for p in result["pipelines"]]}
    (work / "result.json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    sys.exit(main())

"""A/B benchmark driver: a parent and a change, run in alternating pairs.

    python3 abbench/ab.py --parent REV [--change REV] --workload W --seed S \
        --pairs N --out BENCH_<pr>.json [--work DIR]

Run from the root of a git checkout.  Each REV is anything ``git archive``
accepts: a commit, a branch or a tree id (``git add -A && git write-tree``
names an uncommitted change).  Both are extracted afresh into WORK/parent and
WORK/change, so that each side runs from its own tree; giving the same REV
twice is an A/A run.  Pair k runs

    python3 perfbench/run.py --workload W --seed S --seconds 10

once in each tree, the parent first when k is even and the change first when
k is odd.  After each run the outputs of its last pipeline are hashed:
``coefficients.csv``, ``errors.csv``, the arrays of each trajectory, and the
archive's arrays in two parts: ``archive_first`` (``T0``, ``M``, ``H``, ``N``,
``P`` and every ``coeff_*``) and ``archive_second`` (every ``second_*``).
After the last pair, each output whose hashes differ between the last
pipelines of the two trees is compared value by value (``max_rel_diff``).

The comparison is appended to the ``runs`` list of OUT (created if missing),
so that one file gathers every workload, seed and A/A set of a change.  An
existing OUT of another layout is refused before anything runs, and one written
on another host (Python, numpy, scipy, BLAS, CPU) right after the first run:

    {"layout": "abbench 2",
     "command": "python3 perfbench/run.py --workload W --seed S --seconds 10",
     "host": {"python", "numpy", "scipy", "blas", "nproc", "cpu", ...},
     "notes": {},  (for text written by hand: the script only creates it)
     "runs": [{
        "workload", "seed", "pairs",
        "parent": {"rev", "tree"}, "change": {"rev", "tree"},
        "kind": "A/B" or "A/A" (both trees identical),
        "first_side": ["parent", "change", ...],
        "failed": {"parent": n, "change": n}, "attempted": {...},
        "outputs": {"parent": {output: sha256}, "change": {...},
                    "stable": every run of a side hashed alike,
                    "identical": both sides hashed alike,
                    "max_rel_diff": {output: ratio}},
        "metrics": {name: STATS},
        "stages": {stage: {"setup_s": STATS, "wall_s": STATS}}}]}

STATS holds ``better``, ``parent_median``, ``change_median``, ``parent_iqr``
(upper minus lower quartile of the parent's runs), ``change_over_parent``,
``wins`` and ``losses`` (pairs where the change reads better or worse; ties
count for neither), ``verdict`` and the values of every pair under
``parent`` and ``change``.  The verdict is "gain" when the change wins at
least nine tenths of the pairs and its median is better by more than the
parent's IQR, "loss" for the mirror case, and "none" otherwise; with fewer
than MIN_PAIRS pairs it is always "none", as nine tenths of a handful of
pairs separates nothing from noise.  Metrics
come from the last line of run.py's output (at the reference CPU speed);
per-stage set-up and wall times are the medians over the pipelines of a run,
from its ``result.json``.

``max_rel_diff`` holds one ratio for each output whose hashes differ between
the last pipelines of the two trees, and is empty when none does (null if a
side left no pipeline).  The ratio is max|a - b| / max|a|, a the parent's
values and b the change's, taken over each CSV column or npz array of the
output (each array of each ``T_*.npz`` for the archive parts) and maximised
over them.  It is ``inf`` when a column or array is missing on one side, has
another shape, or has its non-finite entries (NaN, inf) elsewhere or
different.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile

import numpy as np

LAYOUT = "abbench 2"
#: the length of each benchmark run, in seconds
SECONDS = 10
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}"
#: the fewest pairs that can give a "gain" or "loss" verdict
MIN_PAIRS = 10
SIDES = ("parent", "change")
STAGES = ("offline", "verify", "online", "dns", "errors")
#: where perfbench/run.py keeps each workload's pipeline, relative to its tree
OUTPUT = pathlib.Path(".perfbench_work")
#: the archive's digests: the first order and coefficients, and the second order
ARCHIVE_PARTS = ("archive_first", "archive_second")


def extract(repo, rev: str, dest: pathlib.Path) -> str:
    """Write the tree of rev into an empty dest; return its git tree id."""
    tree = subprocess.run(["git", "-C", str(repo), "rev-parse", f"{rev}^{{tree}}"],
                          check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", tree],
                          check=True, capture_output=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return tree


def _archive_part(name: str) -> str:
    """The archive digest an array of a T_*.npz belongs to."""
    return "archive_second" if name.startswith("second_") else "archive_first"


def _npz_digest(path, part=None) -> str:
    """One sha256 over the name, dtype, shape and bytes of every array (of one
    archive part, if part is given)."""
    h = hashlib.sha256()
    with np.load(path) as z:
        for name in sorted(z.files):
            if part is not None and _archive_part(name) != part:
                continue
            a = np.ascontiguousarray(z[name])
            h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def output_digests(out: pathlib.Path) -> dict:
    """sha256 of each output a pipeline leaves in out; None where it is missing."""
    files = {"coefficients.csv": None, "errors.csv": None,
             "macro_trajectory.npz": _npz_digest, "dns_trajectory.npz": _npz_digest}
    got = {}
    for name, digest in files.items():
        path = out / name
        if not path.is_file():
            got[name] = None
        else:
            got[name] = digest(path) if digest else hashlib.sha256(path.read_bytes()).hexdigest()
    npz = sorted((out / "archive").glob("T_*.npz"))
    for part in ARCHIVE_PARTS:
        if npz:
            h = hashlib.sha256()
            for path in npz:
                h.update(f"{path.name} {_npz_digest(path, part)}\n".encode())
            got[part] = h.hexdigest()
        else:
            got[part] = None
    return got


def _values(out: pathlib.Path, output: str):
    """{key: array} of one output: CSV columns by header name, npz arrays by
    name, archive arrays by file and name; None if the output is missing."""
    if output in ARCHIVE_PARTS:
        got = {}
        for path in sorted((out / "archive").glob("T_*.npz")):
            with np.load(path) as z:
                got.update({f"{path.name}/{k}": z[k] for k in z.files
                            if _archive_part(k) == output})
        return got or None
    path = out / output
    if not path.is_file():
        return None
    if output.endswith(".csv"):
        with open(path) as f:
            header = f.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, len(header))
        return dict(zip(header, data.T))
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def rel_diff(a, b) -> float:
    """max|a - b| / max|a| over the finite entries; inf if the shapes or the
    non-finite entries differ."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return math.inf
    odd = ~np.isfinite(a)
    if not (np.array_equal(odd, ~np.isfinite(b))
            and np.array_equal(a[odd], b[odd], equal_nan=True)):
        return math.inf
    diff = float(np.abs(a - b)[~odd].max(initial=0.0))
    scale = float(np.abs(a)[~odd].max(initial=0.0))
    if diff == 0.0:
        return 0.0
    return diff / scale if scale > 0.0 else math.inf


def max_rel_diff(parent: pathlib.Path, change: pathlib.Path) -> dict:
    """{output: ratio} for each output whose digests differ between two
    pipeline directories: the largest rel_diff over its columns or arrays."""
    pd, cd = output_digests(parent), output_digests(change)
    got = {}
    for output in pd:
        if pd[output] == cd[output]:
            continue
        a, b = _values(parent, output), _values(change, output)
        if a is None or b is None or a.keys() != b.keys():
            got[output] = math.inf
        else:
            got[output] = max(rel_diff(a[k], b[k]) for k in a)
    return got


def _stage_medians(result: dict) -> dict:
    """{stage: {"setup_s", "wall_s"}} medians over the untraced pipelines of a run."""
    got = {}
    for stage in STAGES:
        runs = [s for p in result["pipelines"] if not p["trace"]
                for s in p["stages"] if s["stage"] == stage]
        got[stage] = {key: statistics.median(xs) if xs else None
                      for key, xs in (("setup_s", [s["ref_setup"] for s in runs
                                                   if s.get("ref_setup") is not None]),
                                      ("wall_s", [s["ref_wall"] for s in runs]))}
    return got


def run_side(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One perfbench run in tree, as a run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    rec = {"returncode": proc.returncode, "environment": None, "correct": False,
           "attempted": 0, "failed": 0, "metrics": {}, "stages": {}, "outputs": {}}
    for line in lines:
        if line.startswith("environment: "):
            rec["environment"] = json.loads(line[len("environment: "):])
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec["error"] = (proc.stderr or proc.stdout)[-2000:]
        return rec
    rec.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
               metrics={k: v["value"] for k, v in last["metrics"].items()})
    result = json.loads((tree / OUTPUT / workload / "result.json").read_text())
    rec["stages"] = _stage_medians(result)
    rec["outputs"] = output_digests(output_dir(tree, workload))
    return rec


def output_dir(tree: pathlib.Path, workload: str):
    """The output directory of the last pipeline run.py ran in tree, or None."""
    work = tree / OUTPUT / workload
    if not (work / "result.json").is_file():
        return None
    result = json.loads((work / "result.json").read_text())
    return work / result["config"]["output"]["directory"]


def stats(parent: list, change: list, better: str) -> dict:
    """Comparison of pair-aligned values; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    pm = statistics.median(ps) if ps else None
    cm = statistics.median(cs) if cs else None
    iqr = None
    if len(ps) >= 2:
        q1, _, q3 = statistics.quantiles(ps, n=4, method="inclusive")
        iqr = q3 - q1
    verdict = "none"
    if len(pairs) >= MIN_PAIRS and abs(cm - pm) > iqr:
        if wins >= 0.9 * len(pairs) and sign * (pm - cm) > 0:
            verdict = "gain"
        elif losses >= 0.9 * len(pairs) and sign * (cm - pm) > 0:
            verdict = "loss"
    return {"better": better, "parent_median": pm, "change_median": cm, "parent_iqr": iqr,
            "change_over_parent": cm / pm if pm else None, "wins": wins, "losses": losses,
            "verdict": verdict, "parent": list(parent), "change": list(change)}


def _digests_of(records) -> tuple:
    """(the digests every record agrees on, whether they all agree)."""
    first = records[0]["outputs"] if records else {}
    return first, all(r["outputs"] == first for r in records)


def summarize(records: list, declared: list) -> dict:
    """One runs entry from the records of one (workload, seed) comparison.

    records: run records with "side", "pair" and "first" added, in run order;
    declared: BENCHMARK.json's end_to_end list (name, better).
    """
    by = {side: sorted((r for r in records if r["side"] == side), key=lambda r: r["pair"])
          for side in SIDES}
    npairs = min(len(by["parent"]), len(by["change"]))
    first = [next(r["side"] for r in records if r["pair"] == k and r["first"])
             for k in range(npairs)]
    entry = {"pairs": npairs, "first_side": first,
             "failed": {s: sum(r["failed"] for r in by[s]) for s in SIDES},
             "attempted": {s: sum(r["attempted"] for r in by[s]) for s in SIDES}}
    (pd, pstable), (cd, cstable) = _digests_of(by["parent"]), _digests_of(by["change"])
    entry["outputs"] = {"parent": pd, "change": cd, "stable": pstable and cstable,
                        "identical": pstable and cstable and pd == cd}
    entry["metrics"] = {
        m["name"]: stats([r["metrics"].get(m["name"]) for r in by["parent"][:npairs]],
                         [r["metrics"].get(m["name"]) for r in by["change"][:npairs]],
                         m["better"])
        for m in declared}
    entry["stages"] = {
        stage: {key: stats([(r["stages"].get(stage) or {}).get(key) for r in by["parent"][:npairs]],
                           [(r["stages"].get(stage) or {}).get(key) for r in by["change"][:npairs]],
                           "lower")
                for key in ("setup_s", "wall_s")}
        for stage in STAGES}
    return entry


def load(out: pathlib.Path, host: dict | None = None) -> dict:
    """The document in out, or a new one if it is missing.

    Raises ValueError if out has another layout, or, when host is given,
    was written on another host.
    """
    if not out.is_file():
        return {"layout": LAYOUT, "command": COMMAND, "host": host, "notes": {}, "runs": []}
    doc = json.loads(out.read_text())
    if doc.get("layout") != LAYOUT:
        raise ValueError(f"{out}: layout {doc.get('layout')!r}, not {LAYOUT!r}")
    if host is not None and doc["host"] != host:
        raise ValueError(f"{out}: written on another host ({doc['host']} != {host})")
    return doc


def append(out: pathlib.Path, entry: dict, host: dict) -> dict:
    """Add entry to the runs of the file out (created if missing); return the document."""
    doc = load(out, host)
    doc["runs"].append(entry)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--work", type=pathlib.Path, default=pathlib.Path(".abbench_work"))
    args = ap.parse_args(argv)
    repo = pathlib.Path.cwd()
    load(args.out)
    trees = {side: args.work.resolve() / side for side in SIDES}
    ids = {side: extract(repo, rev, trees[side])
           for side, rev in (("parent", args.parent), ("change", args.change))}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    records = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for i, side in enumerate(order):
            rec = run_side(trees[side], args.workload, args.seed)
            rec.update(side=side, pair=k, first=i == 0)
            if not records and rec["environment"]:
                load(args.out, rec["environment"])
            records.append(rec)
            shown = ", ".join(f"{n} {rec['metrics'][n]:.4f}" for n in rec["metrics"])
            print(f"pair {k} {side}: failed {rec['failed']}/{rec['attempted']}; {shown}",
                  flush=True)
    entry = {"workload": args.workload, "seed": args.seed,
             "parent": {"rev": args.parent, "tree": ids["parent"]},
             "change": {"rev": args.change, "tree": ids["change"]},
             "kind": "A/A" if ids["parent"] == ids["change"] else "A/B"}
    entry.update(summarize(records, declared))
    outs = [output_dir(trees[side], args.workload) for side in SIDES]
    entry["outputs"]["max_rel_diff"] = None if None in outs else max_rel_diff(*outs)
    host = next((r["environment"] for r in records if r["environment"]), None)
    append(args.out, entry, host)
    for name, st in entry["metrics"].items():
        print(f"{name:<12} {st['parent_median']} -> {st['change_median']} "
              f"(parent IQR {st['parent_iqr']}; wins {st['wins']}/{entry['pairs']}; "
              f"{st['verdict']})")
    print(f"outputs identical: {entry['outputs']['identical']}; "
          f"max_rel_diff {entry['outputs']['max_rel_diff']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

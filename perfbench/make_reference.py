"""Write reference.json: the output digest of every workload and input variant.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run from the root of a source checkout.  Each (workload, variant) pipeline
runs once, untraced, and must pass its exit-code and temperature-range
checks.  Only regenerate the file when a change is meant to alter the
program's results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    root = pathlib.Path.cwd()
    path = run.HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        work = root / ".perfbench_work" / name
        run.warm_up(root, work)
        entry = {"variants": {}}
        for v in range(workloads.VARIANTS):
            config = workloads.make_config(name, v)
            pipe = run.run_pipeline(root, work, config)
            run.check_pipeline(pipe, work, config, reference=None)
            problems = [p for s in pipe["stages"] for p in s["problems"]
                        if p != "no reference digest stored"]
            if problems or "digest" not in pipe:
                print(f"{name} variant {v}: {problems}", file=sys.stderr)
                return 1
            d = pipe["digest"]
            if "coefficients" in entry and not run.agree(d["coefficients"], entry["coefficients"]):
                print(f"{name} variant {v}: coefficients depend on the seed", file=sys.stderr)
                return 1
            entry["coefficients"] = d["coefficients"]
            entry["variants"][str(v)] = {k: d[k] for k in ("macro_norms", "dns_norms",
                                                            "errors_last")}
            print(f"{name} variant {v}: {pipe['wall']:.2f} s", flush=True)
        ref[name] = entry
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded configuration generator for the three benchmark workloads.

Every workload runs all five stages, so every end-to-end metric exists on
every workload; the configuration decides which stage dominates.  The seed
varies only the source amplitudes (within +-50 %) and their smooth spatial
shapes.  It never changes mesh sizes, table sizes or step counts, so the
amount of work is the same for every seed.  The sizes keep one pipeline near
10 s on a 2-core machine, so that a run of the benchmark holds several.

The seed is reduced modulo ``VARIANTS`` before it drives the generator, so
every seed maps onto one of a finite set of inputs whose reference output
digest is stored in ``reference.json``.
"""

from __future__ import annotations

import copy
import random

VARIANTS = 16

_LAWS = {
    "matrix": {"rho": [0.008, 0.0], "c": [562.5, 0.0], "k": [4.0, 0.0004],
               "lam": [300.0, -0.015], "beta": [3.0, -0.0003],
               "E": [3.5e6, -3.5e3], "nu": [0.25, 0.0]},
    "inclusion": {"rho": [0.002, 0.0], "c": [750.0, 0.0], "k": [0.04, 4e-06],
                  "lam": [0.075, -3.25e-06], "beta": [7.5, -0.00075],
                  "E": [2.2e6, -2.2e3], "nu": [0.2, 0.0]},
}

# Each entry fixes the sizes of one workload.  "sources" holds the nominal
# amplitudes (f_T, f_Phi, f_U) that the seed scales.
WORKLOADS = {
    # Stresses the cell/homog layers and the periodic constraint path:
    # PeriodicMap.solve rebuilds R^T A R and runs Jacobi-CG for every
    # right-hand side (3 temperatures on a 1,177-node cell).  It is the only
    # workload that writes a large archive.
    # Downstream stages are tiny (macro_h=0.1, epsilon=1, 5 steps), so it does
    # little macro stepping, DNS or reconstruction.
    "cell-table": {
        "cell_h": 0.08, "cell_bc": "periodic", "table": (275.0, 400.0, 3),
        "macro_h": 0.1, "epsilon": 1.0, "dt": 1e-3, "steps": 5, "stride": 5,
        "sources": (3e3, 30.0, 150.0), "dominant": "offline",
    },
    # Stresses the macro stepper on a mid-size mesh (2,401 nodes, 12 steps), where
    # Python call overhead matters: per-call assembly and quad_points, the
    # table coefficient provider and one factorization per solve.  It also
    # runs the Dirichlet off-line path, which the periodic optimisations
    # bypass.  Mild sources keep macro T inside the 250-900 K table.
    "macro-march": {
        "cell_h": 0.12, "cell_bc": "dirichlet", "table": (250.0, 900.0, 10),
        "macro_h": 0.02, "epsilon": 1.0, "dt": 1e-3, "steps": 12, "stride": 6,
        "sources": (3e3, 30.0, 150.0), "dominant": "online",
    },
    # Stresses large-mesh assembly, SuperLU factorization and Dirichlet
    # elimination on the epsilon=1/6 tiled mesh (36 cells), one step with a
    # snapshot.  It is the only workload where
    # reconstruction, point location and norms do real work.
    "fine-reference": {
        "cell_h": 0.12, "cell_bc": "dirichlet", "table": (280.0, 400.0, 4),
        "macro_h": 0.05, "epsilon": 1 / 6, "dt": 1e-3, "steps": 1, "stride": 1,
        "sources": (2e3, 20.0, 100.0), "dominant": "dns",
    },
}


def _shape(rng: random.Random) -> str:
    """A smooth positive spatial profile with values between 0.5 and 1.5."""
    kind = rng.randrange(4)
    a = round(rng.uniform(0.1, 0.5), 6)
    if kind == 0:
        return "1"
    if kind == 1:
        return f"1 + {a}*sin(pi*x1)*sin(pi*x2)"
    if kind == 2:
        p = round(rng.uniform(0.0, 6.283185), 6)
        return f"1 + {a}*cos(pi*x1 + {p})*cos(pi*x2)"
    c1, c2 = (round(rng.uniform(0.25, 0.75), 6) for _ in range(2))
    return f"0.5 + exp(-4*((x1 - {c1})**2 + (x2 - {c2})**2))"


def _source(rng: random.Random, nominal: float) -> str:
    amp = round(nominal * rng.uniform(0.5, 1.5), 6)
    return f"{amp}*({_shape(rng)})"


def variant(seed: int) -> int:
    return seed % VARIANTS


def make_config(workload: str, seed: int) -> dict:
    """The JSON configuration the CLI receives for (workload, seed)."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{variant(seed)}")
    f_T, f_Phi, f_U = w["sources"]
    T_min, T_max, count = w["table"]
    return {
        "version": 1,
        "geometry": {"kind": "disk", "radius": 0.25},
        "materials": dict(copy.deepcopy(_LAWS), T_range=[250.0, 900.0]),
        "epsilon": w["epsilon"],
        "mesh": {"macro_h": w["macro_h"], "cell_h": w["cell_h"]},
        "time": {"dt": w["dt"], "T_final": round(w["dt"] * w["steps"], 12),
                 "snapshot_stride": w["stride"]},
        "sources": {"f_T": _source(rng, f_T), "f_Phi": _source(rng, f_Phi),
                    "f_U": [_source(rng, f_U), _source(rng, f_U)]},
        "boundary": {"T": 300.0, "Phi": 0.0, "U": [0.0, 0.0]},
        "initial": {"T": 300.0, "T_ref": 300.0},
        "table": {"T_min": T_min, "T_max": T_max, "count": count,
                  "cell_bc": w["cell_bc"]},
        "output": {"directory": "out", "vtk": False},
    }

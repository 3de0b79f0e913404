"""Run one ``homsim <stage> <config>`` invocation and report its timings.

    python3 stage.py REPORT LAUNCH TRACE STAGE CONFIG

The stage runs through ``homsim.cli.main``, exactly as the ``homsim``
console script runs it.  LAUNCH is the ``time.monotonic()`` reading the
parent took just before starting this process (the clock is system-wide on
Linux), so set-up time covers interpreter start, the ``homsim`` import and the
configuration load.  With TRACE=1 the public functions of every module are
wrapped where callers look them up, and each call becomes a span kept in
memory.  REPORT receives one JSON object when the stage ends.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

MODULES = ("archive", "cell", "cli", "config", "dns", "fem", "homog", "macro",
           "materials", "mesh", "metrics", "reconstruct")

# (module, attribute, span name, counter hook).  Attribute "Class.method"
# patches the method on the class, which every importer shares.  A plain
# function is replaced in every homsim module that holds it, because cli,
# reconstruct and others import names directly.
SPANS = [
    ("fem", "quad_points", "fem.quad_points", None),
    ("fem", "assemble_elasticity", "fem.assemble_elasticity", None),
    ("fem", "assemble_grad_grad", "fem.assemble_grad_grad", None),
    ("fem", "assemble_mass", "fem.assemble_mass", None),
    ("fem", "assemble_source", "fem.assemble_rhs", None),
    ("fem", "assemble_flux", "fem.assemble_rhs", None),
    ("fem", "assemble_vector_source", "fem.assemble_rhs", None),
    ("fem", "assemble_tensor_flux", "fem.assemble_rhs", None),
    ("fem", "element_gradient", "fem.element_gradient", None),
    ("fem", "apply_dirichlet", "fem.apply_dirichlet", None),
    ("fem", "solve_spd", "fem.cg_solve", None),
    ("fem", "SpdSolver.__init__", "fem.factor",
     lambda args: {"fem.factor_dofs": args[1].shape[0], "fem.factor_nnz": args[1].nnz}),
    ("fem", "SpdSolver.solve", "fem.lu_solve", None),
    ("fem", "PeriodicMap.__init__", "fem.periodic_map", None),
    ("fem", "PeriodicMap.solve", "fem.periodic_solve", None),
    ("cell", "solve_first_order", "cell.first_order", None),
    ("cell", "dT_of_first_order", "cell.dT_of_first_order", None),
    ("cell", "solve_second_order", "cell.second_order", None),
    ("homog", "build_table", "homog.build_table", None),
    ("homog", "compute_coefficients", "homog.compute_coefficients", None),
    ("homog", "verify_identities", "homog.verify_identities", None),
    ("homog", "export_csv", "homog.export_csv", None),
    ("homog", "TemperatureTable.coeff_fields", "homog.coeff_fields", None),
    ("homog", "TemperatureTable.coeff_dT", "homog.coeff_dT", None),
    ("macro", "Stepper.run", "macro.stepper_run",
     lambda args: {"macro.steps": args[0].grid.n_steps}),
    ("macro", "TableProvider.__call__", "macro.table_provider", None),
    ("macro", "TableProvider.nodal_beta_star", "macro.table_provider", None),
    ("macro", "recover_nodal_gradient", "macro.recover_gradient", None),
    ("macro", "save_trajectory", "macro.trajectory_io", None),
    ("macro", "load_trajectory", "macro.trajectory_io", None),
    ("dns", "build_tiled_mesh", "dns.tile_mesh", None),
    ("dns", "run_dns", "dns.run_dns", None),
    ("dns", "OscillatoryProvider.__init__", "dns.provider_init", None),
    ("dns", "OscillatoryProvider.__call__", "dns.provider", None),
    ("dns", "OscillatoryProvider.nodal_beta_star", "dns.nodal_beta_star", None),
    ("reconstruct", "Reconstructor.__init__", "reconstruct.init", None),
    ("reconstruct", "Reconstructor.all_orders", "reconstruct.all_orders", None),
    ("reconstruct", "CellSampler.sample", "reconstruct.cell_sample", None),
    ("reconstruct", "MacroEvaluator.gradient", "reconstruct.macro_eval", None),
    ("reconstruct", "MacroEvaluator.hessian", "reconstruct.macro_eval", None),
    ("metrics", "relative_error", "metrics.relative_error", None),
    ("metrics", "evolutive_errors", "metrics.evolutive_errors", None),
    ("metrics", "ErrorSeries.to_csv", "metrics.to_csv", None),
    ("mesh", "build_unit_cell_mesh", "mesh.build", None),
    ("mesh", "build_macro_mesh", "mesh.build", None),
    ("mesh", "save_mesh", "mesh.io", None),
    ("mesh", "load_mesh", "mesh.io", None),
    ("mesh", "Mesh.locate_points", "mesh.locate_points", None),
    ("archive", "save", "archive.save", None),
    ("archive", "load", "archive.load", None),
    ("config", "SimulationConfig.from_file", "config.load", None),
    ("materials", "MaterialLaw.audit_ellipticity", "materials.audit", None),
]


class Tracer:
    """Spans [name, start, end, parent index] kept in memory; index 0 is the root."""

    def __init__(self, launch: float):
        self.spans = [["cli", launch, None, None]]
        self.stack = [0]
        self.counts = {}

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                for key, n in hook(args).items():
                    self.counts[key] = self.counts.get(key, 0) + int(n)
            span = [name, time.monotonic(), None, self.stack[-1]]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.monotonic()

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry of SPANS."""
    import homsim

    modules = {name: getattr(homsim, name) for name in MODULES}
    for mod, attr, name, hook in SPANS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(modules[mod], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, hook)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, hook))
            continue
        orig = getattr(modules[mod], attr)
        traced = tracer.wrap(name, orig, hook)
        for m in modules.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, traced)


def main(argv) -> int:
    report_path, launch, trace, stage, config = argv
    from homsim import cell, cli, config as config_mod

    tracer = Tracer(float(launch)) if trace == "1" else None
    if tracer is not None:
        install(tracer)
    # set-up ends when the configuration is loaded
    loaded = []
    cls = config_mod.SimulationConfig
    from_file = cls.__dict__["from_file"].__func__

    def timed_from_file(c, path):
        cfg = from_file(c, path)
        loaded.append(time.monotonic())
        return cfg

    cls.from_file = classmethod(timed_from_file)
    rc = None
    try:
        rc = cli.main([stage, config])
    finally:
        report = {
            "t_config": loaded[0] if loaded else None,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cell_solves": cell.SOLVES.count,
        }
        if tracer is not None:
            tracer.spans[0][2] = time.monotonic()
            report["spans"] = tracer.spans
            report["counts"] = tracer.counts
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

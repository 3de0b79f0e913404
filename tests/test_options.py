"""Every option of the package is listed here.

An option is a function parameter with a default value or a class-level
annotated field with a default (a dataclass default).  Each one is a choice a
caller can make and every reader has to consider, so a new one must be added
to OPTIONS in the change that introduces it, and a deleted one removed.
"""

import ast
import pathlib

import homsim

SRC = pathlib.Path(homsim.__file__).resolve().parent

OPTIONS = {
    # function and method parameters with a default
    "archive.load(law)",
    "archive.load(expect)",
    "cell.SolveCounter.tick(n)",
    "cell.CellOperators.__init__(bc)",
    "cell._solve_family(S)",
    "cell._solve_family(G)",
    "cli.main(argv)",
    "config.schema_errors(path)",
    "config.SimulationConfig._compile_problem_data.expr(vector)",
    "dns.run_dns(snapshot_stride)",
    "fem.pcg(x0)",
    "fem.SolverError.__init__(residual)",
    "fem.DirichletPlan.__init__(drop)",
    "fem.SpdSolver.__init__(default_ordering)",
    "fem.SpdSolver.solve_near(x0)",
    "homog.verify_identities(law)",
    "homog.build_table(bc)",
    "homog.build_table(with_second_order)",
    "homog.build_table(progress)",
    "macro.StepError.__init__(step)",
    "macro.Stepper.__init__(snapshot_stride)",
    "macro.Stepper._solve(keep)",
    "materials.lame_parameters(plane)",
    "materials.lame_parameters(_validate)",
    "materials.elasticity_tensor(plane)",
    "materials.elasticity_tensor(_validate)",
    "mesh._crossed_grid(in_band)",
    "mesh.periodic_pairs(tol)",
    "mesh.Mesh.__init__(phase_tag)",
    "mesh.Mesh.locate_points(tol)",
    "metrics.relative_error(ref_norm)",
    "vtkio.write_vtk(point_data)",
    # class fields with a default
    "cell.SecondOrderCellSet.fields",
    "homog.TemperatureTable.bc",
    "macro.Trajectory.snapshots",
    "macro.Trajectory.meta",
    "materials.MaterialLaw.coeffs",
    "materials.MaterialLaw.T_range",
    "materials.MaterialLaw.plane",
    "mesh.PhaseGeometry.shape",
    "mesh.PhaseGeometry.center",
    "mesh.PhaseGeometry.radius",
    "mesh.PhaseGeometry.band",
    "metrics.ErrorSeries.times",
    "metrics.ErrorSeries.rows",
    "metrics.ErrorSeries.undefined",
}


class _Options(ast.NodeVisitor):
    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self.found.append(".".join(self.scope + [stmt.target.id]))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        a = node.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        self.scope.append(getattr(node, "name", "<lambda>"))
        self.found += [f"{'.'.join(self.scope)}({arg.arg})" for arg in defaulted]
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


def _options():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Options(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return found


def test_every_option_is_listed():
    found = _options()
    assert len(found) == len(set(found)), "an option is counted twice"
    assert sorted(set(found) - OPTIONS) == [], "new options: list them in OPTIONS"
    assert sorted(OPTIONS - set(found)) == [], "removed options: delete them from OPTIONS"

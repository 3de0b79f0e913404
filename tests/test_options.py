"""Every option of the package is listed here, with the reason it exists.

An option is a function parameter with a default value or a class-level
annotated field with a default (a dataclass default).  Each one is a choice a
caller can make and every reader has to consider, so a new one must be added
to OPTIONS in the change that introduces it, with its reason, and a deleted
one removed.  A reason is "<kind>: <why>", and its kind is one of KINDS; a
default that no caller varies has none of them and belongs to its caller as
a required argument, or in a module constant.
"""

import ast
import pathlib

import homsim

SRC = pathlib.Path(homsim.__file__).resolve().parent

#: why an option may exist
KINDS = (
    "two values",      # callers pass both the default and another value
    "safety check",    # the default checks the input; one caller turns it off, and says why
    "digest pin",      # kept until the benchmark digest changes (ROADMAP item 6)
    "accumulator",     # starts empty and is filled by its owner (appends, recursion)
)

OPTIONS = {
    # function and method parameters with a default
    "cell._solve_family(S)": "two values: a family's right-hand side has a source, a flux or both",
    "cell._solve_family(G)": "two values: a family's right-hand side has a source, a flux or both",
    "cli.main(argv)": "two values: the console script reads sys.argv, perfbench passes a list",
    "config.schema_errors(path)": "accumulator: the JSON path of the recursion so far, () at the root",
    "config.SimulationConfig._compile_problem_data.expr(vector)":
        "two values: sources and boundary data are scalar or two-component",
    "fem.pcg(x0)": "two values: solve_spd starts from zero, SpdSolver.solve_near from a last solution",
    "fem.DirichletPlan.__init__(drop)":
        "two values: apply_dirichlet drops stored zeros, the stepper's plans keep them",
    "fem.SpdSolver.__init__(default_ordering)":
        "digest pin: Dirichlet cell operators keep SciPy's ordering for coefficients.csv",
    "homog.build_table(progress)": "two values: the CLI prints each temperature's time, tests pass none",
    "macro.Stepper._solve(keep)": "two values: an LU is kept for reuse except on the last step",
    "mesh._crossed_grid(in_band)": "two values: stripe cells tag a band, cells without inclusion none",
    "mesh.Mesh.__init__(phase_tag)": "two values: macro meshes have one phase, cell and fine meshes two",
    "mesh.Mesh.locate_points(tol)": "two values: macro points at 1e-10, folded cell points at 1e-8",
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
    assert sorted(set(found) - set(OPTIONS)) == [], "new options: list them in OPTIONS"
    assert sorted(set(OPTIONS) - set(found)) == [], "removed options: delete them from OPTIONS"


def test_every_option_has_a_reason():
    for option, reason in OPTIONS.items():
        kind, _, why = reason.partition(": ")
        assert kind in KINDS and why, f"{option}: reason {reason!r} is not '<kind>: <why>'"

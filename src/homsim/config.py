"""Simulation configuration: JSON schema, expression grammar, stage inputs.

A configuration file fully determines a run: phase geometry, material laws,
scale separation epsilon, mesh targets, time grid, sources/boundary/initial
data, the representative-temperature table, and output paths.  SCHEMA holds
the default of every optional key.  Sources and boundary data are constants
or small arithmetic expressions over (x1, x2, t) compiled through an AST
whitelist (no general eval).
"""

from __future__ import annotations

import ast
import contextlib
import copy
import json
import math
import sys

import numpy as np

from .dns import tiles
from .macro import ProblemData, TimeGrid
from .materials import MaterialLaw, QUANTITIES
from .mesh import INCLUSION, MATRIX, MeshError, PhaseGeometry


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _section(*path):
    """Turn a ValueError (ConfigError, MaterialError and MeshError among them)
    raised while the stage inputs of one config section are built, or the
    expression of one key is compiled or evaluated, into a ConfigError
    naming that section or key."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{_json_path(path)}: {e}") from None


# ---------------------------------------------------------------------------
# expression grammar: +, -, *, /, **, unary -, parentheses, a few functions,
# numeric literals and the names x1, x2, t, pi
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
}
_ALLOWED_NAMES = {"x1", "x2", "t", "pi"}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
    ast.Load, ast.Call, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
    ast.USub, ast.UAdd,
)


def compile_expression(src):
    """Compile a constant or expression string to f(points, t) -> (npts,).

    f raises ConfigError, naming the expression and t, where the evaluation
    raises an ArithmeticError (1/0, 10.0**400) or a value is not finite
    (exp(1000), 1/x1 at x1 = 0, sqrt(-1)).
    """
    if isinstance(src, (int, float)):
        val = float(src)
        return lambda pts, t: np.full(len(pts), val)
    if not isinstance(src, str):
        raise ConfigError(f"expression must be a number or string, got {type(src).__name__}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"cannot parse expression {src!r}: {e}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"disallowed syntax {type(node).__name__!r} in expression {src!r}")
        if isinstance(node, ast.Constant) and (
                isinstance(node.value, bool) or not isinstance(node.value, (int, float))):
            raise ConfigError(f"only numeric literals are allowed, got {node.value!r} in {src!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES and node.id not in _ALLOWED_FUNCS:
            raise ConfigError(f"unknown name {node.id!r} in expression {src!r} "
                              f"(allowed: {sorted(_ALLOWED_NAMES | set(_ALLOWED_FUNCS))})")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ConfigError(f"only {sorted(_ALLOWED_FUNCS)} may be called in {src!r}")
            if node.keywords or len(node.args) != 1:
                raise ConfigError(f"functions take exactly one positional argument in {src!r}")
    code = compile(tree, "<config-expression>", "eval")
    env = dict(_ALLOWED_FUNCS, pi=math.pi)

    def fn(pts, t):
        pts = np.asarray(pts, float)
        loc = dict(env, x1=pts[:, 0], x2=pts[:, 1], t=t)
        try:
            out = np.asarray(eval(code, {"__builtins__": {}}, loc), float)
        except ArithmeticError as e:
            raise ConfigError(f"{src!r} at t={float(t)!r}: {e}") from None
        if not np.isfinite(out).all():
            raise ConfigError(f"{src!r} is not finite at t={float(t)!r}")
        return np.broadcast_to(out, (len(pts),)).copy()

    return fn


def _vector_expression(pair):
    """Two scalar expressions -> f(points, t) -> (npts, 2)."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"vector data needs exactly two components, got {pair!r}")
    f1, f2 = (compile_expression(p) for p in pair)
    return lambda pts, t: np.stack([f1(pts, t), f2(pts, t)], axis=-1)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_expr = {"type": ["number", "string"]}
_vec = {"type": "array", "items": _expr, "minItems": 2, "maxItems": 2}
_law_entry = {
    "type": "object",
    "properties": {q: {"type": "array", "items": {"type": "number"},
                       "minItems": 2, "maxItems": 2} for q in QUANTITIES},
    "required": list(QUANTITIES),
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "geometry": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["disk", "stripe", "none"]},
                "radius": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5,
                           "default": 0.25},
                "fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                             "default": 0.5},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "materials": {
            "type": "object",
            "properties": {
                "matrix": _law_entry,
                "inclusion": _law_entry,
                "T_range": {"type": "array", "items": {"type": "number"},
                            "minItems": 2, "maxItems": 2, "default": [250.0, 900.0]},
                "plane": {"enum": ["strain", "stress"], "default": "strain"},
            },
            "required": ["matrix", "inclusion"],
            "additionalProperties": False,
        },
        "epsilon": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "mesh": {
            "type": "object",
            "properties": {
                "macro_h": {"type": "number", "exclusiveMinimum": 0},
                "cell_h": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["macro_h", "cell_h"],
            "additionalProperties": False,
        },
        "time": {
            "type": "object",
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "T_final": {"type": "number", "exclusiveMinimum": 0},
                "snapshot_stride": {"type": "integer", "minimum": 1, "default": 1},
            },
            "required": ["dt", "T_final"],
            "additionalProperties": False,
        },
        "sources": {
            "type": "object",
            "properties": {"f_T": _expr, "f_Phi": _expr, "f_U": _vec},
            "required": ["f_T", "f_Phi", "f_U"],
            "additionalProperties": False,
        },
        "boundary": {
            "type": "object",
            "properties": {"T": _expr, "Phi": _expr, "U": _vec},
            "required": ["T", "Phi", "U"],
            "additionalProperties": False,
        },
        "initial": {
            "type": "object",
            "properties": {
                "T": {"type": "number"},
                "T_ref": {"type": "number"},
                "U": dict(_vec, default=[0.0, 0.0]),
                "V": dict(_vec, default=[0.0, 0.0]),
            },
            "required": ["T", "T_ref"],
            "additionalProperties": False,
        },
        "table": {
            "type": "object",
            "properties": {
                "T_min": {"type": "number"},
                "T_max": {"type": "number"},
                # far beyond any table, and refused before np.linspace
                # fills memory with it
                "count": {"type": "integer", "minimum": 2, "maximum": 1000},
                "cell_bc": {"enum": ["dirichlet", "periodic"], "default": "dirichlet"},
            },
            "required": ["T_min", "T_max", "count"],
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "directory": {"type": "string", "default": "out"},
                "vtk": {"type": "boolean", "default": False},
            },
            "additionalProperties": False,
            "default": {},
        },
    },
    "required": ["version", "geometry", "materials", "epsilon", "mesh",
                 "time", "sources", "boundary", "initial", "table"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# schema checker: the Draft-7 keywords SCHEMA uses, with jsonschema's messages,
# except that a number must be finite (JSON parsers accept NaN and Infinity)
# ---------------------------------------------------------------------------

def _numeric(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v):
    return _numeric(v) and abs(v) <= sys.float_info.max  # False for NaN, +-inf, huge ints


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _finite,
    "integer": lambda v: _finite(v) and (isinstance(v, int) or v.is_integer()),
}

#: bound keyword -> (violated(value, bound), message)
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "less than the minimum"),
    "maximum": (lambda v, b: v > b, "greater than the maximum"),
    "exclusiveMinimum": (lambda v, b: v <= b, "less than or equal to the minimum"),
    "exclusiveMaximum": (lambda v, b: v >= b, "greater than or equal to the maximum"),
}

def _same(a, b):
    """JSON equality of scalars: true is not 1, 1.0 is 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def schema_errors(value, schema, path=()):
    """Yield (path, message) for each way value violates schema, in schema key order."""
    for key, arg in schema.items():
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[t](value) for t in types):
                if _numeric(value) and not _finite(value) and {"number", "integer"} & set(types):
                    yield path, f"{value!r} is not a finite number"
                else:
                    yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "const":
            if not _same(value, arg):
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if not any(_same(value, a) for a in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            violated, what = _BOUNDS[key]
            if _finite(value) and violated(value, arg):
                yield path, f"{value!r} is {what} of {arg!r}"
        elif key in ("minItems", "maxItems"):
            short = key == "minItems"
            if isinstance(value, list) and (len(value) < arg if short else len(value) > arg):
                yield path, f"{value!r} is too {'short' if short else 'long'}"
        elif key == "items":
            for i, item in enumerate(value if isinstance(value, list) else ()):
                yield from schema_errors(item, arg, path + (i,))
        elif key == "properties":
            for name, sub in arg.items():
                if isinstance(value, dict) and name in value:
                    yield from schema_errors(value[name], sub, path + (name,))
        elif key == "required":
            for name in arg:
                if isinstance(value, dict) and name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and arg is False:
            known = schema.get("properties", {})
            extra = sorted((k for k in value if k not in known), key=str) \
                if isinstance(value, dict) else []
            if extra:
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} {'was' if len(extra) == 1 else 'were'} "
                             f"unexpected)")
        elif key not in ("$schema", "default"):  # annotations; anything else is not implemented
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r} is not implemented")


def _json_path(path):
    return "$" + "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in path)


def _with_defaults(value, schema):
    """A copy of value in which every missing property with a "default" in schema is filled in."""
    if not isinstance(value, dict):
        return copy.deepcopy(value)
    props = schema.get("properties", {})
    filled = {k: _with_defaults(v, props.get(k, {})) for k, v in value.items()}
    for name, sub in props.items():
        if name not in filled and "default" in sub:
            filled[name] = _with_defaults(sub["default"], sub)
    return filled


#: the geometry keys that one kind reads, and that kind
_KIND_KEYS = {"radius": "disk", "fraction": "stripe"}


class SimulationConfig:
    """A validated configuration and the input of every stage, resolved once.

    raw is the configuration with SCHEMA's defaults filled in.  The stages
    read law, geometry, epsilon, macro_h, cell_h, grid, snapshot_stride,
    temperatures (the table's representative temperatures), cell_bc, T_ref,
    output_dir and write_vtk.
    """

    def __init__(self, raw: dict):
        errors = sorted(schema_errors(raw, SCHEMA), key=lambda e: e[0])
        if errors:
            msgs = "; ".join(f"{_json_path(path)}: {msg}" for path, msg in errors)
            raise ConfigError(f"configuration invalid: {msgs}")
        g = raw["geometry"]
        for key, kind in _KIND_KEYS.items():
            if key in g and g["kind"] != kind:
                raise ConfigError(f"$['geometry']: {key!r} applies to kind {kind!r} only, "
                                  f"not to kind {g['kind']!r}")
        self.raw = raw = _with_defaults(raw, SCHEMA)
        eps = raw["epsilon"]
        try:
            tiles(eps)
        except MeshError:
            raise ConfigError(f"$['epsilon']: must be a reciprocal integer, got {eps}") from None
        self.epsilon = float(eps)
        dt, Tf = raw["time"]["dt"], raw["time"]["T_final"]
        if not math.isfinite(Tf / dt) or abs(round(Tf / dt) * dt - Tf) > 1e-9 * Tf:
            raise ConfigError(f"$['time']: dt*N must equal T_final (dt={dt}, T_final={Tf})")
        self.grid = TimeGrid(dt=dt, n_steps=round(Tf / dt))
        self.snapshot_stride = int(raw["time"]["snapshot_stride"])
        m = raw["materials"]
        with _section("materials"):
            self.law = MaterialLaw(
                coeffs={MATRIX: {q: tuple(v) for q, v in m["matrix"].items()},
                        INCLUSION: {q: tuple(v) for q, v in m["inclusion"].items()}},
                T_range=tuple(m["T_range"]), plane=m["plane"])
        tb = raw["table"]
        if not tb["T_min"] < tb["T_max"]:
            raise ConfigError("$['table']: T_min must be below T_max")
        lo, hi = self.law.T_range
        if not (lo <= tb["T_min"] and tb["T_max"] <= hi):
            raise ConfigError(f"$['table']: [T_min, T_max] = [{tb['T_min']}, {tb['T_max']}] "
                              f"must lie inside materials.T_range [{lo}, {hi}]")
        with _section("table"):
            self.temperatures = np.linspace(float(tb["T_min"]), float(tb["T_max"]),
                                            int(tb["count"]))
        self.cell_bc = tb["cell_bc"]
        g = raw["geometry"]
        with _section("geometry"):
            self.geometry = PhaseGeometry(g["kind"], g["radius"], g["fraction"])
        self.macro_h = float(raw["mesh"]["macro_h"])
        self.cell_h = float(raw["mesh"]["cell_h"])
        self.T_ref = float(raw["initial"]["T_ref"])
        self.output_dir = raw["output"]["directory"]
        self.write_vtk = raw["output"]["vtk"]
        # compile every expression now, so that a bad one fails every stage
        self._problem_data = self._compile_problem_data()

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"{path}: cannot read: {e.strerror or e}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
        except ValueError as e:  # malformed JSON, or an integer too long to convert
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
        return cls(raw)

    def problem_data(self) -> ProblemData:
        return self._problem_data

    def _compile_problem_data(self) -> ProblemData:
        raw = self.raw

        def expr(section, key, vector=False):
            with _section(section, key):
                fn = (_vector_expression if vector else compile_expression)(raw[section][key])

            def named(pts, t):  # an evaluation error names the key too
                with _section(section, key):
                    return fn(pts, t)

            return named

        return ProblemData(
            f_T=expr("sources", "f_T"),
            f_Phi=expr("sources", "f_Phi"),
            f_U=expr("sources", "f_U", vector=True),
            bc_T=expr("boundary", "T"),
            bc_Phi=expr("boundary", "Phi"),
            bc_U=expr("boundary", "U", vector=True),
            T_init=float(raw["initial"]["T"]),
            U_init=expr("initial", "U", vector=True),
            V_init=expr("initial", "V", vector=True),
        )

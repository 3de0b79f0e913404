"""Simulation configuration: JSON schema, expression grammar, factories.

A configuration file fully determines a run: phase geometry, material laws,
scale separation epsilon, mesh targets, time grid, sources/boundary/initial
data, the representative-temperature table, and output paths.  Sources and
boundary data are constants or small arithmetic expressions over (x1, x2, t)
compiled through an AST whitelist (no general eval).
"""

from __future__ import annotations

import ast
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
    """Compile a constant or expression string to f(points, t) -> (npts,)."""
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
        out = eval(code, {"__builtins__": {}}, loc)
        return np.broadcast_to(np.asarray(out, float), (len(pts),)).copy()

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
                "radius": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
                "fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
            "required": ["kind"],
        },
        "materials": {
            "type": "object",
            "properties": {
                "matrix": _law_entry,
                "inclusion": _law_entry,
                "T_range": {"type": "array", "items": {"type": "number"},
                            "minItems": 2, "maxItems": 2},
                "plane": {"enum": ["strain", "stress"]},
            },
            "required": ["matrix", "inclusion"],
        },
        "epsilon": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "mesh": {
            "type": "object",
            "properties": {
                "macro_h": {"type": "number", "exclusiveMinimum": 0},
                "cell_h": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["macro_h", "cell_h"],
        },
        "time": {
            "type": "object",
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "T_final": {"type": "number", "exclusiveMinimum": 0},
                "snapshot_stride": {"type": "integer", "minimum": 1},
            },
            "required": ["dt", "T_final"],
        },
        "sources": {
            "type": "object",
            "properties": {"f_T": _expr, "f_Phi": _expr, "f_U": _vec},
            "required": ["f_T", "f_Phi", "f_U"],
        },
        "boundary": {
            "type": "object",
            "properties": {"T": _expr, "Phi": _expr, "U": _vec},
            "required": ["T", "Phi", "U"],
        },
        "initial": {
            "type": "object",
            "properties": {
                "T": {"type": "number"},
                "T_ref": {"type": "number"},
                "U": _vec,
                "V": _vec,
            },
            "required": ["T", "T_ref"],
        },
        "table": {
            "type": "object",
            "properties": {
                "T_min": {"type": "number"},
                "T_max": {"type": "number"},
                "count": {"type": "integer", "minimum": 2},
                "cell_bc": {"enum": ["dirichlet", "periodic"]},
            },
            "required": ["T_min", "T_max", "count"],
        },
        "output": {
            "type": "object",
            "properties": {
                "directory": {"type": "string"},
                "vtk": {"type": "boolean"},
            },
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
        elif key != "$schema":  # an annotation; anything else is a keyword not implemented
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r} is not implemented")


def _json_path(path):
    return "$" + "".join(f"[{p!r}]" if isinstance(p, str) else f"[{p}]" for p in path)


class SimulationConfig:
    """Validated configuration with factories for the solver objects."""

    def __init__(self, raw: dict):
        errors = sorted(schema_errors(raw, SCHEMA), key=lambda e: e[0])
        if errors:
            msgs = "; ".join(f"{_json_path(path)}: {msg}" for path, msg in errors)
            raise ConfigError(f"configuration invalid: {msgs}")
        self.raw = raw
        eps = raw["epsilon"]
        try:
            tiles(eps)
        except MeshError:
            raise ConfigError(f"$['epsilon']: must be a reciprocal integer, got {eps}") from None
        self.epsilon = float(eps)
        dt, Tf = raw["time"]["dt"], raw["time"]["T_final"]
        if not math.isfinite(Tf / dt) or abs(round(Tf / dt) * dt - Tf) > 1e-9 * Tf:
            raise ConfigError(f"$['time']: dt*N must equal T_final (dt={dt}, T_final={Tf})")
        self.n_steps = round(Tf / dt)
        tb = raw["table"]
        if not tb["T_min"] < tb["T_max"]:
            raise ConfigError("$['table']: T_min must be below T_max")
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

    # -- factories -------------------------------------------------------
    def geometry(self) -> PhaseGeometry:
        g = self.raw["geometry"]
        kw = {}
        if "radius" in g:
            kw["radius"] = g["radius"]
        if "fraction" in g:  # centered stripe of the given volume fraction
            f = g["fraction"]
            kw["band"] = (0.5 * (1.0 - f), 0.5 * (1.0 + f))
        geom = PhaseGeometry(g["kind"], **kw)
        geom.validate()
        return geom

    def law(self) -> MaterialLaw:
        m = self.raw["materials"]
        coeffs = {
            MATRIX: {q: tuple(v) for q, v in m["matrix"].items()},
            INCLUSION: {q: tuple(v) for q, v in m["inclusion"].items()},
        }
        kw = {}
        if "T_range" in m:
            kw["T_range"] = tuple(m["T_range"])
        if "plane" in m:
            kw["plane"] = m["plane"]
        return MaterialLaw(coeffs=coeffs, **kw)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(dt=self.raw["time"]["dt"], n_steps=self.n_steps)

    def snapshot_stride(self) -> int:
        return int(self.raw["time"].get("snapshot_stride", 1))

    def problem_data(self) -> ProblemData:
        return self._problem_data

    def _compile_problem_data(self) -> ProblemData:
        raw = self.raw

        def expr(section, key, vector=False):
            if key not in raw[section]:  # optional initial displacement/velocity
                return _vector_expression([0.0, 0.0])
            try:
                return (_vector_expression if vector else compile_expression)(raw[section][key])
            except ConfigError as e:
                raise ConfigError(f"$[{section!r}][{key!r}]: {e}") from None

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

    @property
    def T_ref(self) -> float:
        return float(self.raw["initial"]["T_ref"])

    @property
    def table_spec(self):
        tb = self.raw["table"]
        return (float(tb["T_min"]), float(tb["T_max"]), int(tb["count"]),
                tb.get("cell_bc", "dirichlet"))

    @property
    def mesh_targets(self):
        return (float(self.raw["mesh"]["macro_h"]), float(self.raw["mesh"]["cell_h"]))

    @property
    def output_dir(self):
        return self.raw.get("output", {}).get("directory", "out")

    @property
    def write_vtk(self) -> bool:
        return bool(self.raw.get("output", {}).get("vtk", False))

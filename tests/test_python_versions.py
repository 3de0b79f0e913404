"""The package parses on the oldest Python version it declares."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "homsim").glob("*.py"))


def _requires_python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_on_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_requires_python_floor())

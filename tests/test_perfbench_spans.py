"""The benchmark's traced spans name functions that exist in the package.

perfbench/stage.py wraps functions by name only when a traced benchmark runs,
so a rename or deletion would otherwise go unnoticed until then.
"""

import importlib
import importlib.util
import pathlib

from homsim import cell

STAGE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "stage.py"


def _load_stage():
    spec = importlib.util.spec_from_file_location("perfbench_stage", STAGE)
    stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage)
    return stage


def test_every_span_resolves_against_the_package():
    stage = _load_stage()
    for mod, attr, _name, _hook in stage.SPANS:
        module = importlib.import_module(f"homsim.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{mod}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
    for mod in stage.MODULES:
        importlib.import_module(f"homsim.{mod}")
    assert isinstance(cell.SOLVES.count, int)

"""The benchmark's traced run wraps library entry points by name; each one
must still resolve, or a rename or deletion in src/ would break it."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module, attr", [
    (entry[0], entry[1]) for entry in tracer.TARGETS + tracer.COUNT_ONLY])
def test_traced_entry_point_resolves(module, attr):
    owner = importlib.import_module("banachlim." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))

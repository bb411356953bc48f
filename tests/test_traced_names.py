"""The benchmark's tracer patches package functions by name; every name
it lists must still resolve, or `perfbench/run.py --trace 1` breaks."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    names = tracer.SPANS + tracer.COUNTED
    assert tracer.SPANS and tracer.COUNTED
    for module_name, attr in names:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module_name}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"

"""The benchmark tracer's method list must name methods the package still has."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_methods_resolve_through_the_class_dict():
    # Tracer.install reads cls.__dict__[attr], so an inherited, renamed or
    # deleted method would break `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.METHODS
    for layer, classes in spans.METHODS.items():
        assert layer in spans.LAYERS
        mod = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                assert attr in cls.__dict__, f"{layer}.{cls_name}.{attr}"

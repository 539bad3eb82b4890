"""The benchmark tracer must install over the live package and restore it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from monodromy.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_methods_resolve_through_the_class_dict():
    # Tracer.install reads cls.__dict__[attr], so an inherited, renamed or
    # deleted method would break `bench/run.py --trace 1`
    spans = load_spans()
    assert spans.METHODS
    for layer, classes in spans.METHODS.items():
        assert layer in spans.LAYERS
        mod = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                assert attr in cls.__dict__, f"{layer}.{cls_name}.{attr}"


def test_tracer_runs_the_cli_and_restores_the_package(capsys):
    # Tracer.install rebinds every public function on every module that
    # imported it, so a renamed or removed name shows up here, not only in a
    # `bench/run.py --trace 1` run
    spans = load_spans()
    layers = {layer: importlib.import_module(f"{spans.PACKAGE}.{layer}") for layer in spans.LAYERS}
    modules = [importlib.import_module(spans.PACKAGE), *layers.values()]

    def snapshot():
        functions = {(mod.__name__, name): obj for mod in modules
                     for name, obj in vars(mod).items() if inspect.isfunction(obj)}
        methods = {(layer, cls_name, attr): getattr(layers[layer], cls_name).__dict__[attr]
                   for layer, classes in spans.METHODS.items()
                   for cls_name, attrs in classes.items() for attr in attrs}
        return functions, methods, list(layers["verify"].CRITERIA)

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (["act", "--groups", "S3,C4", "--basis", "algebraic", "--element", "x1*x2^3"],
                     ["act", "--groups", "C3,C4", "--basis", "tree", "--element", "x1*x2"],
                     ["matrix", "--groups", "S3,C4", "--basis", "algebraic",
                      "--element", "x1*x2^3"],
                     ["matrix", "--groups", "S3,C4,C3", "--basis", "tree", "--element", "x2*x3"],
                     ["basis", "--groups", "C3,C4", "--basis", "tree"]):
            assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    after = snapshot()
    for old, new in zip(before[:2], after[:2]):
        assert old.keys() == new.keys()
        assert [key for key in old if old[key] is not new[key]] == []
    # each criterion is a (name, function) pair; compare the functions by identity
    assert [fn for _, fn in before[2]] == [fn for _, fn in after[2]]
    assert [name for name, _ in before[2]] == [name for name, _ in after[2]]
    traced = {tracer.names[span[0]] for span in tracer.spans}
    assert {"action.tree_basis", "action.algebraic_basis", "fibre.build_fibre_graph"} <= traced

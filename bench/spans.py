"""Outside-in tracing of the package's layers.

The layers are the package's modules.  ``Tracer.install`` wraps every
public function of each layer, plus a few methods on its classes, and
rebinds the wrapper on every module that imported the original name, so
calls between layers pass through it.  Each call becomes a span (name,
start, end, parent span, task id) kept in memory; ``layer_metrics`` turns
the spans and a few size counters into the per-layer metrics, and ``dump``
writes the spans out.  The package's source is not touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("groups", "words", "fibre", "action", "intmatrix", "complexes",
          "commutators", "verify", "cli")

# Methods traced besides the module-level public functions.
METHODS = {
    "groups": {"FiniteGroup": ("__post_init__", "inverse")},
    "fibre": {"FibreGraph": ("cotree_index",)},
    "intmatrix": {"IntMatrix": ("__init__", "__mul__", "__pow__", "det", "rank", "transpose")},
    "complexes": {"CubicalComplex": ("boundary_one", "boundary_two")},
}


PACKAGE = "monodromy"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start, end, parent index, task]
        self.stack: list[int] = []
        self.task = -1
        self.counts: Counter = Counter()
        self.max_dim = 0
        self.letters: set = set()
        self._undo: list = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self):
        c = self.counts

        def letters_out(args, word):
            c["words.letters_out"] += len(word.letters)

        def graph_built(args, graph):
            c["fibre.cotree_rank"] += len(graph.cotree)

        def path(args, edges):
            c["fibre.path_edges"] += len(edges)

        def act_letter(args, phi):
            t, basis = args[0], args[1]
            self.letters.add((self.task, id(basis), t.factor, t.elem))

        def act_word(args, phi):
            c["action.image_letters"] += sum(len(img) for img in phi.images)

        def dims(*mats):
            self.max_dim = max(self.max_dim, *(max(m.rows, m.cols) for m in mats))

        def mul(args, product):
            a, b = args[0], args[1]
            dims(a, b)
            c["intmatrix.mul_ops"] += a.rows * a.cols * b.cols
            c["mul_entries"] += a.rows * a.cols + b.rows * b.cols
            c["mul_nonzeros"] += sum(1 for m in (a, b) for row in m.entries for v in row if v)

        def first_matrix(args, result):
            dims(args[0])

        def cells(args, cx):
            c["complexes.cells"] += sum(cx.counts)

        return {
            "words.reduce_word": letters_out,
            "fibre.build_fibre_graph": graph_built,
            "fibre.word_to_path": path,
            "action.act_letter": act_letter,
            "action.act_word": act_word,
            "intmatrix.IntMatrix.__mul__": mul,
            "intmatrix.IntMatrix.det": first_matrix,
            "intmatrix.IntMatrix.rank": first_matrix,
            "intmatrix.smith_normal_form": first_matrix,
            "complexes.build_complex": cells,
        }

    def install(self):
        hooks = self._hooks()
        modules = [importlib.import_module(PACKAGE)]
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            modules.append(mod)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    full = f"{layer}.{name}"
                    replace[obj] = self._wrap(full, obj, hooks.get(full))
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    orig = cls.__dict__[attr]
                    full = f"{layer}.{cls_name}.{attr}"
                    if isinstance(orig, property):
                        new = property(self._wrap(full, orig.fget, hooks.get(full)))
                    else:
                        new = self._wrap(full, orig, hooks.get(full))
                    setattr(cls, attr, new)
                    self._undo.append((cls, attr, orig))
        # rebind every imported copy of a wrapped function
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, name, replace[obj])
                    self._undo.append((mod, name, obj))
        verify = importlib.import_module(f"{PACKAGE}.verify")
        self._criteria = list(verify.CRITERIA)
        verify.CRITERIA[:] = [(name, replace.get(fn, fn)) for name, fn in verify.CRITERIA]

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        verify = importlib.import_module(f"{PACKAGE}.verify")
        verify.CRITERIA[:] = self._criteria

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer self time, named inclusive times and counts."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, task in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        incl = Counter()
        calls = Counter()
        for i, (nid, start, end, parent, task) in enumerate(self.spans):
            name = self.names[nid]
            self_s[name.split(".", 1)[0]] += (end - start) - child[i]
            incl[name] += end - start
            calls[name] += 1
        c = self.counts
        act_calls = calls["action.act_letter"]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "groups.build_s": incl["groups.FiniteGroup.__post_init__"],
            "groups.constructed": calls["groups.FiniteGroup.__post_init__"],
            "groups.inverse_calls": calls["groups.FiniteGroup.inverse"],
            "words.reduce_calls": calls["words.reduce_word"],
            "words.letters_out": c["words.letters_out"],
            "fibre.build_s": incl["fibre.build_fibre_graph"],
            "fibre.graphs_built": calls["fibre.build_fibre_graph"],
            "fibre.cotree_rank": c["fibre.cotree_rank"],
            "fibre.cotree_index_builds": calls["fibre.FibreGraph.cotree_index"],
            "fibre.decompose_calls": calls["fibre.decompose_word"],
            "fibre.path_edges": c["fibre.path_edges"],
            "action.tree_basis_s": incl["action.tree_basis"],
            "action.act_letter_calls": act_calls,
            "action.compose_calls": calls["action.compose"],
            "action.image_letters": c["action.image_letters"],
            "action.letter_reuse": len(self.letters) / act_calls if act_calls else 0.0,
            "intmatrix.mul_s": incl["intmatrix.IntMatrix.__mul__"],
            "intmatrix.det_s": incl["intmatrix.IntMatrix.det"],
            "intmatrix.rank_s": incl["intmatrix.IntMatrix.rank"],
            "intmatrix.snf_s": incl["intmatrix.smith_normal_form"],
            "intmatrix.abelianize_s": incl["intmatrix.abelianize"],
            "intmatrix.mul_calls": calls["intmatrix.IntMatrix.__mul__"],
            "intmatrix.mul_ops": c["intmatrix.mul_ops"],
            "intmatrix.mul_nnz_frac": (c["mul_nonzeros"] / c["mul_entries"]
                                       if c["mul_entries"] else 0.0),
            "intmatrix.max_dim": self.max_dim,
            "complexes.build_s": incl["complexes.build_complex"],
            "complexes.cells": c["complexes.cells"],
            "complexes.boundary_s": (incl["complexes.CubicalComplex.boundary_one"]
                                     + incl["complexes.CubicalComplex.boundary_two"]),
            "commutators.magnus_calls": calls["commutators.magnus_series"],
        })
        for k in range(1, 11):
            out[f"verify.c{k}_s"] = sum(t for name, t in incl.items()
                                        if name.startswith(f"verify.criterion_{k}_"))
        return {k: float(v) if k.endswith("_s") else v for k, v in out.items()}

    def dump(self, path):
        """Write the spans as JSON; times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "task"],
                       "names": self.names,
                       "spans": [[nid, round((s - t0) * 1e6), round((e - t0) * 1e6), p, t]
                                 for nid, s, e, p, t in self.spans]}, fh,
                      separators=(",", ":"))

"""Spans around the library's public functions, recorded from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
`srchordal` module that holds it (the library binds names with
`from .x import f`, so a wrapper set only on the defining module would
miss the internal calls) and wraps `SimplicialComplex` methods on the
class. Each call records one span: name, start, end, parent span,
operation id, and a count taken at the same boundary (faces listed,
matrix cells, nonzero homology, budget exhaustion). Spans stay in
memory, in flat arrays, until `write` saves them and `layer_metrics`
folds them into the per-layer figures.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

SEARCH_EXHAUSTED = "SearchBudgetExceeded"


def _faces_listed(args, result) -> int:
    return len(result)


def _cells(args, result) -> int:
    rows = args[0]
    if not rows:
        return 0
    if isinstance(rows[0], int):  # GF(2) bitset rows: columns up to the highest set bit
        return len(rows) * max(r.bit_length() for r in rows)
    return len(rows) * len(rows[0])


def _nonzero_homology(args, result) -> int:
    return int(any(result.values()))


# (module, qualified name, count taken from (args, result) or None)
TRACED = [
    ("cli", "main", None),
    ("ideals", "parse_squarefree_ideal", None),
    ("ideals", "stanley_reisner_complex", None),
    ("ideals", "degree_component", None),
    ("complexes", "SimplicialComplex.from_json_dict", None),
    ("complexes", "SimplicialComplex.faces_of_dim", _faces_listed),
    ("complexes", "SimplicialComplex.face_deletion", None),
    ("complexes", "SimplicialComplex.delete_all", None),
    ("complexes", "SimplicialComplex.minimal_nonfaces", None),
    ("bitsets", "maximal_elements", None),
    ("chordality", "d_closure", None),
    ("chordality", "find_simplicial_order", None),
    ("chordality", "is_d_collapsible", None),
    ("chordality", "is_chordal", None),
    ("betti", "betti_table", None),
    ("betti", "reduced_homology_dims", _nonzero_homology),
    ("betti", "has_linear_resolution", None),
    ("betti", "is_componentwise_linear", None),
    ("linalg", "int_rank", _cells),
    ("linalg", "gf2_rank", _cells),
    ("families", "is_squarefree_stable", None),
    ("families", "is_shifted", None),
    ("families", "is_vertex_decomposable", None),
    ("families", "gotzmann_decomposition", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = [qual for _, qual, _ in TRACED]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.current = -1
        self.op_id = -1
        self.restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, counter):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer.current)
            tracer.op.append(tracer.op_id)
            tracer.count.append(0)
            tracer.end.append(0.0)
            outer = tracer.current
            tracer.current = idx
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end[idx] = clock()
                tracer.current = outer
                if type(exc).__name__ == SEARCH_EXHAUSTED:
                    tracer.count[idx] = 1
                raise
            tracer.end[idx] = clock()
            tracer.current = outer
            if counter is not None:
                tracer.count[idx] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "srchordal"]
        for mod_name, qual, counter in TRACED:
            owner = sys.modules[f"srchordal.{mod_name}"]
            name_id = self.name_ids[qual]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name_id, counter))
                else:
                    wrapped = self._wrap(raw, name_id, counter)
                self.restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(owner, qual)
            wrapped = self._wrap(fn, name_id, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self.restore.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.restore):
            setattr(owner, key, value)
        self.restore.clear()

    def write(self, path: str) -> None:
        """Save the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "i"],
                       ["op", "i"], ["count", "q"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.op, self.count):
                fh.write(arr.tobytes())

    # -- folding spans into per-layer figures ------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per attempted operation unless it is a
        rate or a ratio."""
        ids = self.name_ids
        names, parent, count = self.name, self.parent, self.count
        dur = [e - s for s, e in zip(self.start, self.end)]
        n = len(dur)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]

        def pname(i):
            p = parent[i]
            return names[p] if p >= 0 else -1

        total = {}
        calls = {}
        counts = {}
        for i in range(n):
            k = names[i]
            if pname(i) == k:
                continue  # a nested call of the same function adds no time of its own
            total[k] = total.get(k, 0.0) + dur[i]
            calls[k] = calls.get(k, 0) + 1
            counts[k] = counts.get(k, 0) + count[i]

        def t(qual):
            return total.get(ids[qual], 0.0)

        def c(qual):
            return calls.get(ids[qual], 0)

        def cnt(qual):
            return counts.get(ids[qual], 0)

        def called_from(qual, parent_qual):
            a, b = ids[qual], ids[parent_qual]
            idx = [i for i in range(n) if names[i] == a and pname(i) == b]
            return idx

        main = ids["main"]
        cli_self = sum(dur[i] - child[i] for i in range(n) if names[i] == main)
        fd, da = ids["SimplicialComplex.face_deletion"], ids["SimplicialComplex.delete_all"]
        deletion_idx = [i for i in range(n)
                        if names[i] == fd or (names[i] == da and pname(i) != fd)]
        order_nodes = len(called_from("SimplicialComplex.face_deletion", "find_simplicial_order"))
        order_s = t("find_simplicial_order")
        visited = called_from("reduced_homology_dims", "betti_table")
        useful = sum(count[i] for i in visited)
        exhausted = cnt("find_simplicial_order") + cnt("is_d_collapsible")

        per_op = 1.0 / max(ops, 1)
        s, k = "s/op", "count/op"
        out = {
            "cli.self_s": (cli_self * per_op, s),
            "ideals.sr_complex_s": (t("stanley_reisner_complex") * per_op, s),
            "ideals.degree_component_s": (t("degree_component") * per_op, s),
            "complexes.faces_listed": (cnt("SimplicialComplex.faces_of_dim") * per_op, k),
            "complexes.faces_of_dim_s": (t("SimplicialComplex.faces_of_dim") * per_op, s),
            "complexes.deletions": (len(deletion_idx) * per_op, k),
            "complexes.deletion_s": (sum(dur[i] for i in deletion_idx) * per_op, s),
            "complexes.nonfaces_s": (t("SimplicialComplex.minimal_nonfaces") * per_op, s),
            "bitsets.maximal_elements_calls": (c("maximal_elements") * per_op, k),
            "bitsets.maximal_elements_s": (t("maximal_elements") * per_op, s),
            "chordality.closure_calls": (c("d_closure") * per_op, k),
            "chordality.closure_s": (t("d_closure") * per_op, s),
            "chordality.order_nodes": (order_nodes * per_op, k),
            "chordality.order_search_s": (order_s * per_op, s),
            "chordality.order_nodes_per_s": (order_nodes / order_s if order_s else 0.0, "1/s"),
            "chordality.collapse_nodes": (
                len(called_from("SimplicialComplex.delete_all", "is_d_collapsible")) * per_op, k),
            "chordality.collapse_search_s": (t("is_d_collapsible") * per_op, s),
            "chordality.budget_exhausted": (exhausted * per_op, k),
            "betti.tables": (c("betti_table") * per_op, k),
            "betti.table_s": (t("betti_table") * per_op, s),
            "betti.homology_s": (t("reduced_homology_dims") * per_op, s),
            "betti.subsets_visited": (len(visited) * per_op, k),
            "betti.useful_subset_ratio": (useful / len(visited) if visited else 0.0, "ratio"),
            "betti.components_checked": (
                len(called_from("has_linear_resolution", "is_componentwise_linear")) * per_op, k),
            "betti.cwl_s": (t("is_componentwise_linear") * per_op, s),
            "linalg.int_rank_calls": (c("int_rank") * per_op, k),
            "linalg.int_rank_s": (t("int_rank") * per_op, s),
            "linalg.int_rank_cells": (cnt("int_rank") * per_op, k),
            "linalg.gf2_rank_calls": (c("gf2_rank") * per_op, k),
            "linalg.gf2_rank_s": (t("gf2_rank") * per_op, s),
            "linalg.gf2_rank_cells": (cnt("gf2_rank") * per_op, k),
            "families.stable_s": (t("is_squarefree_stable") * per_op, s),
            "families.shifted_s": (t("is_shifted") * per_op, s),
            "families.vertex_decomposable_s": (t("is_vertex_decomposable") * per_op, s),
            "families.gotzmann_s": (t("gotzmann_decomposition") * per_op, s),
            "families.chordal_s": (t("is_chordal") * per_op, s),
        }
        return out

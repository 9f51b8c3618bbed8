"""Outside-in instrumentation of the commprob layers for the traced runs.

Nothing here edits the library.  ``install`` replaces library functions and
methods with wrappers, in every loaded module namespace that holds them
(``commprob.branching.conjugacy_classes`` as well as
``commprob.conjugacy.conjugacy_classes``), so no call escapes into its
caller's self time.

Two modes, never combined in one process:

- ``spans``: a span per call of each layer function, kept in memory, plus
  the cheap counters (transporter search, registry lookups, class
  recomputation, table entries, beta).  Self time of a span is its duration
  minus the durations of its direct children.
- ``counts``: the cheap counters plus the hot-loop counters (field
  operations, carrier products, FiniteGroup.mul, PsiPoly.__mul__), whose
  wrappers would distort self times.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time

from commprob import branching, fields, groups, symbolic
import workloads

# span name -> (module, function) whose calls it times
SPAN_FUNCTIONS = {
    "groupspec.parse": [("commprob.groupspec", "parse_group_spec")],
    "groups.generate": [("commprob.groups", "group_generate")],
    "groups.table": [("workloads", "build_tables")],
    "conjugacy.classes": [("commprob.conjugacy", "conjugacy_classes")],
    "conjugacy.centralizer": [("commprob.conjugacy", "centralizer")],
    "conjugacy.zclasses": [("commprob.conjugacy", "z_classes")],
    "conjugacy.transporter": [("commprob.conjugacy", "subgroup_conjugate")],
    "branching.matrix": [("commprob.branching", "branching_matrix")],
    "branching.verify": [("commprob.branching", "verify_structure")],
    "counting.oracle": [("commprob.counting", "oracle_class_count")],
    "counting.sequence": [
        ("commprob.counting", "class_count_sequence"),
        ("commprob.counting", "class_count"),
    ],
    "symbolic.tropical": [("commprob.symbolic", "tropical_first_column_degrees")],
    "symbolic.exact": [
        ("commprob.symbolic", "_exact_first_column_degree"),
        ("commprob.symbolic", "psi_power"),
    ],
    "symbolic.diagonal": [("commprob.symbolic", "diagonal_degree_interval")],
    "cli.run": [("commprob.cli", "run")],
}
# The registry's transporter searches get their own span: TypeRegistry.lookup
# resolves subgroup_conjugate through the branching module's namespace.
NAMESPACE_OVERRIDES = {("commprob.branching", "subgroup_conjugate"): "branching.registry"}

SPAN_METRICS = sorted(SPAN_FUNCTIONS) + ["branching.registry"]


class Tracer:
    """Spans and counters of one traced process, held in memory."""

    def __init__(self, mode: str):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.counts = {
            "table_entries": 0,
            "carrier_products": 0,
            "mul_calls": 0,
            "field_ops": 0,
            "field_ext_ops": 0,
            "classes_calls": 0,
            "transporter_calls": 0,
            "transporter_candidates": 0,
            "transporter_hits": 0,
            "registry_lookups": 0,
            "registry_hits": 0,
            "beta_total": 0,
            "psi_muls": 0,
        }
        self.class_universes: set = set()
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return wrapped

    def self_times(self) -> dict[str, float]:
        child_total: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_total[parent] = child_total.get(parent, 0.0) + (end - start)
        out = {name: 0.0 for name in SPAN_METRICS}
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child_total.get(sid, 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in sorted(self.spans):
                handle.write(
                    json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, module_name: str, attr: str, make, name_of=lambda holder: "") -> None:
        """Swap `attr` in every namespace that holds the same object as
        `module_name` does; holders with equal ``name_of`` share a wrapper."""
        original = getattr(sys.modules[module_name], attr)
        made = {}
        for name, mod in list(sys.modules.items()):
            if mod is None or getattr(mod, attr, None) is not original:
                continue
            if not (name == "commprob" or name.startswith("commprob.") or name == "workloads"):
                continue
            key = name_of(name)
            if key not in made:
                made[key] = make(key, original)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, made[key])

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        # Counters first: every holder then shares one counting wrapper, and
        # the span wrappers go around it.
        self._install_counters()
        if self.mode == "counts":
            self._install_hot_counters()
            return
        for name, targets in SPAN_FUNCTIONS.items():
            for module_name, attr in targets:
                self._replace_everywhere(
                    module_name,
                    attr,
                    self.span,
                    lambda holder, name=name, attr=attr: NAMESPACE_OVERRIDES.get((holder, attr), name),
                )

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _install_counters(self) -> None:
        c = self.counts
        universes = self.class_universes

        def classes_counter(_holder, fn):
            @functools.wraps(fn)
            def wrapped(group, within=None):
                c["classes_calls"] += 1
                members = within.members if within is not None else None
                if members is not None and len(members) == group.order:
                    members = None
                universes.add((group.name, group.order, members))
                return fn(group, within)

            return wrapped

        def transporter_counter(_holder, fn):
            @functools.wraps(fn)
            def wrapped(group, a, b, transporter=None):
                g = fn(group, a, b, transporter)
                c["transporter_calls"] += 1
                if a.order != b.order or a.fingerprint != b.fingerprint:
                    return g
                candidates = transporter if transporter is not None else range(group.order)
                if g is None:
                    c["transporter_candidates"] += len(candidates)
                else:
                    c["transporter_hits"] += 1
                    if isinstance(candidates, range):
                        c["transporter_candidates"] += g + 1
                    else:
                        c["transporter_candidates"] += bisect.bisect_left(candidates, g) + 1
                return g

            return wrapped

        def matrix_counter(_holder, fn):
            @functools.wraps(fn)
            def wrapped(group):
                fresh = group._branching is None
                result = fn(group)
                if fresh:
                    c["beta_total"] += result[0].size
                return result

            return wrapped

        def tables_counter(_holder, fn):
            @functools.wraps(fn)
            def wrapped(group):
                fn(group)
                c["table_entries"] += workloads.table_entries(group)

            return wrapped

        self._replace_everywhere("commprob.conjugacy", "conjugacy_classes", classes_counter)
        self._replace_everywhere("commprob.conjugacy", "subgroup_conjugate", transporter_counter)
        self._replace_everywhere("commprob.branching", "branching_matrix", matrix_counter)
        self._replace_everywhere("workloads", "build_tables", tables_counter)

        lookup = branching.TypeRegistry.lookup

        def counted_lookup(registry, subgroup):
            tid = lookup(registry, subgroup)
            c["registry_lookups"] += 1
            if tid is not None:
                c["registry_hits"] += 1
            return tid

        self._replace_method(branching.TypeRegistry, "lookup", counted_lookup)

    def _install_hot_counters(self) -> None:
        c = self.counts

        def binary_field_op(fn):
            def wrapped(field, a, b):
                c["field_ops"] += 1
                if field.k != 1:
                    c["field_ext_ops"] += 1
                return fn(field, a, b)

            return wrapped

        def unary_field_op(fn):
            def wrapped(field, a):
                c["field_ops"] += 1
                if field.k != 1:
                    c["field_ext_ops"] += 1
                return fn(field, a)

            return wrapped

        for attr in ("add", "sub", "mul"):
            self._replace_method(fields.Field, attr, binary_field_op(fields.Field.__dict__[attr]))
        for attr in ("neg", "inv"):
            self._replace_method(fields.Field, attr, unary_field_op(fields.Field.__dict__[attr]))

        def counted(key, fn):
            def wrapped(obj, a, b):
                c[key] += 1
                return fn(obj, a, b)

            return wrapped

        for cls in (groups.MatrixCarrier, groups.PermutationCarrier):
            self._replace_method(cls, "mul", counted("carrier_products", cls.__dict__["mul"]))
        self._replace_method(
            groups.FiniteGroup, "mul", counted("mul_calls", groups.FiniteGroup.__dict__["mul"])
        )

        psi_mul = symbolic.PsiPoly.__dict__["__mul__"]

        def counted_psi_mul(a, b):
            c["psi_muls"] += 1
            return psi_mul(a, b)

        self._replace_method(symbolic.PsiPoly, "__mul__", counted_psi_mul)

    # -- results -------------------------------------------------------------

    def count_metrics(self) -> dict[str, float]:
        c = self.counts
        calls, lookups = c["transporter_calls"], c["registry_lookups"]
        return {
            "groups.table_entries": c["table_entries"],
            "groups.carrier_products": c["carrier_products"],
            "groups.mul_calls": c["mul_calls"],
            "fields.ops": c["field_ops"],
            "fields.ext_ops": c["field_ext_ops"],
            "conjugacy.classes_calls": c["classes_calls"],
            "conjugacy.classes_per_subgroup": (
                c["classes_calls"] / len(self.class_universes) if self.class_universes else 0.0
            ),
            "conjugacy.transporter_calls": calls,
            "conjugacy.transporter_candidates": c["transporter_candidates"],
            "conjugacy.transporter_hit_ratio": c["transporter_hits"] / calls if calls else 0.0,
            "branching.registry_lookups": lookups,
            "branching.registry_hit_ratio": c["registry_hits"] / lookups if lookups else 0.0,
            "branching.beta_total": c["beta_total"],
            "symbolic.psi_muls": c["psi_muls"],
        }


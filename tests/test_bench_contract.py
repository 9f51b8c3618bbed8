"""The benchmark's tracer (`bench/tracing.py`) patches library functions and
methods by name.  A library rename or deletion must fail here rather than
only when `bench/run.py --trace 1` runs, and so must a library path that
stops calling a timed name, whose span would then silently read 0."""

import importlib
from pathlib import Path

import pytest

from commprob import branching, conjugacy, counting, fields, groups, groupspec, symbolic

from conftest import recording

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_tracer_patches_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    functions = [target for targets in tracing.SPAN_FUNCTIONS.values() for target in targets]
    functions += list(tracing.NAMESPACE_OVERRIDES)
    missing = [
        f"{module}.{attr}"
        for module, attr in functions
        if not hasattr(importlib.import_module(module), attr)
    ]
    methods = [(fields.Field, attr) for attr in ("add", "sub", "mul", "neg", "inv")] + [
        (groups.MatrixCarrier, "mul"),
        (groups.PermutationCarrier, "mul"),
        (groups.FiniteGroup, "mul"),
        (symbolic.PsiPoly, "__mul__"),
        (branching.TypeRegistry, "lookup"),
        (groups.Subgroup, "fingerprint"),
    ]
    missing += [f"{cls.__name__}.{attr}" for cls, attr in methods if attr not in cls.__dict__]
    assert missing == []


def test_degree_window_calls_the_names_the_tracer_times(monkeypatch):
    # symbolic.tropical_s, symbolic.exact_s and symbolic.psi_muls would read
    # 0 if the single window or the long windows walk skipped these names
    calls = {"tropical_first_column_degrees": 0, "_exact_first_column_degree": 0}
    for attr in calls:
        original = getattr(symbolic, attr)

        def counted(*args, _attr=attr, _original=original):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(symbolic, attr, counted)
    muls = []
    original_mul = symbolic.PsiPoly.__mul__

    def counted_mul(self, other):
        muls.append(1)
        return original_mul(self, other)

    monkeypatch.setattr(symbolic.PsiPoly, "__mul__", counted_mul)
    gl4 = symbolic.fixture("gl4")
    runs = (
        lambda: symbolic.degree_window(gl4, 12),
        lambda: list(symbolic.degree_windows(gl4, 2000)),
    )
    for run in runs:
        calls.update(dict.fromkeys(calls, 0))
        muls.clear()
        run()
        assert calls == {"tropical_first_column_degrees": 1, "_exact_first_column_degree": 1}
        assert muls


def test_single_counts_call_the_name_the_tracer_times(corpus, monkeypatch):
    # the counting.sequence span times class_count, so commuting_count and
    # cp must reach it through the module namespace
    calls = []
    original = counting.class_count

    def counted(group, d):
        calls.append(d)
        return original(group, d)

    monkeypatch.setattr(counting, "class_count", counted)
    counting.commuting_count(corpus["s4"], 3)
    counting.cp(corpus["s4"], 4)
    assert calls == [2, 3]


def test_transporter_search_is_skipped_exactly_when_the_tracer_says(corpus):
    # the tracer counts no transporter candidates when order or fingerprint
    # differ, and assumes the library tries at least one otherwise
    for name in ("s4", "gl2_f3", "gl3_f2"):
        group = corpus[name]
        _, registry = branching.branching_matrix(group)
        cents = [entry.centralizer for entry in registry.types]
        for a in cents:
            for b in cents:
                tried = []
                candidates = recording(range(group.order), tried)
                conjugacy.subgroup_conjugate(group, a, b, transporter=candidates)
                skipped = a.order != b.order or a.fingerprint != b.fingerprint
                assert (tried == []) == skipped, (name, a, b)


def test_finite_pipeline_reaches_the_spans_the_tracer_times(monkeypatch):
    # bench/selftest.py needs the conjugacy.* and branching.registry spans
    # nonzero on finite_carrier.  The registry span exists only while
    # TypeRegistry.lookup calls subgroup_conjugate through the branching
    # module's namespace, and verify_structure must still ask for classes.
    # z_classes places classes by the centre test, so the only transporter
    # searches under branching.matrix are the registry's.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer("spans")
    try:
        tracer.install()
        branching.verify_structure(*branching.branching_matrix(groupspec.corpus_group("s4")))
    finally:
        tracer.uninstall()
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    parents = {sid: parent for sid, parent, _, _, _ in tracer.spans}
    below = {name: set() for name in names.values()}  # span name -> names of spans under it
    for sid, name in names.items():
        parent = parents[sid]
        while parent >= 0:
            below[names[parent]].add(name)
            parent = parents[parent]
    assert {
        "conjugacy.zclasses",
        "conjugacy.centralizer",
        "conjugacy.classes",
        "branching.registry",
    } <= below["branching.matrix"]
    assert "conjugacy.classes" in below["branching.verify"]


@pytest.mark.parametrize(
    "workload,key",
    [
        ("finite_table", "q8"),
        ("finite_table", "gl2_f5"),
        ("finite_table", "sl2_f7"),
        ("finite_carrier", "s7"),
        ("finite_carrier", "s5xs4"),
        ("symbolic", "window:gl4:24"),
        ("symbolic", "diagonal:5d0ed4e9eeffc288"),
        ("symbolic", "verify:gl2"),
        ("symbolic", "verify:gl3"),
        ("symbolic", "verify:gl4"),
        ("warm_queries", "cli:symbolic --fixture gl4 --d 2000"),
    ],
)
def test_benchmark_jobs_answer_as_the_reference_says(monkeypatch, workload, key):
    # the jobs reach the library through names (build_group, the GroupSpec
    # fields, report attributes) that a rename would break only when the
    # benchmark runs; seed 3 conjugates the finite job's generators, and
    # its first diagonal job checks every (l, r) of one matrix against
    # workloads.diagonal_reference, a max-plus walk count
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    (job,) = [job for job in workloads.make_jobs(workload, 3) if job.key == key]
    answer = workloads.run_job(job, {})
    assert workloads.matches(job, answer, workloads.load_reference())

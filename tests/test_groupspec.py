import itertools
import json
import time

import pytest
from hypothesis import given, strategies as st

from commprob import groupspec
from commprob.errors import GroupSpecParseError, GroupSpecValidationError
from commprob.fields import field_create
from commprob.groups import GroupElement, MatrixCarrier
from commprob.groupspec import (
    CORPUS_NAMES,
    GroupSpec,
    build_group,
    corpus_spec,
    parse_group_spec,
)

from conftest import CORPUS_ORDERS
from test_groups import GL2_F4_SPEC

S3_DOC = json.dumps(
    {
        "name": "S3",
        "kind": "permutation",
        "degree": 3,
        "generators": [[1, 0, 2], [1, 2, 0]],
    }
)

GL2_F3_DOC = json.dumps(
    {
        "name": "GL2(F3)",
        "kind": "matrix",
        "field": {"p": 3, "k": 1},
        "degree": 2,
        "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]],
    }
)


def test_parse_permutation_spec():
    spec = parse_group_spec(S3_DOC)
    assert spec.kind == "permutation"
    assert build_group(spec).order == 6


def test_parse_matrix_spec_builds_gl2_f3():
    spec = parse_group_spec(GL2_F3_DOC)
    assert spec.field.p == 3
    assert build_group(spec).order == 48


def test_singular_generator_names_field():
    doc = json.loads(GL2_F3_DOC)
    doc["generators"][0] = [[1, 2], [2, 1]]  # det = 0 mod 3
    with pytest.raises(GroupSpecValidationError) as err:
        parse_group_spec(json.dumps(doc))
    assert "generators[0]" in str(err.value)


def test_malformed_json():
    with pytest.raises(GroupSpecParseError):
        parse_group_spec("{not json")
    with pytest.raises(GroupSpecParseError):
        parse_group_spec("[1, 2]")


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(kind="banana"), "kind"),
        (lambda d: d.update(degree=0), "degree"),
        (lambda d: d.update(generators=[]), "generators"),
        (lambda d: d.update(generators=[[0, 0, 1]]), "generators[0]"),
    ],
)
def test_permutation_validation_paths(mutate, path):
    doc = json.loads(S3_DOC)
    mutate(doc)
    with pytest.raises(GroupSpecValidationError) as err:
        parse_group_spec(json.dumps(doc))
    assert path in str(err.value)


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.update(degree=True), "degree"),
        (lambda d: d.update(degree=3.0), "degree"),
        (lambda d: d.update(generators=[[True, 0, 2]]), "generators[0]"),
    ],
    ids=["degree-bool", "degree-float", "generators[0]-bool"],
)
def test_permutation_non_integer_paths(mutate, path):
    doc = json.loads(S3_DOC)
    mutate(doc)
    with pytest.raises(GroupSpecValidationError) as err:
        parse_group_spec(json.dumps(doc))
    assert path in str(err.value)


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.pop("field"), "field"),
        (lambda d: d["field"].update(p=4), "field.p"),
        (lambda d: d["generators"][0][0].append(1), "generators[0][0]"),
        (lambda d: d["generators"][0][0].__setitem__(0, 7), "generators[0][0][0]"),
    ],
)
def test_matrix_validation_paths(mutate, path):
    doc = json.loads(GL2_F3_DOC)
    mutate(doc)
    with pytest.raises(GroupSpecValidationError) as err:
        parse_group_spec(json.dumps(doc))
    assert path in str(err.value)


# JSON true/false are not integers, though Python's bool is an int
@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.update(degree=True), "degree"),
        (lambda d: d["field"].update(p=True), "field.p"),
        (lambda d: d["field"].update(k=True), "field.k"),
        (lambda d: d.update(field={"p": 2, "k": 2, "modulus": [True, 1, 1]}), "field.modulus"),
        (lambda d: d["generators"][0][0].__setitem__(0, True), "generators[0][0][0]"),
        (lambda d: d["generators"][1][0].__setitem__(0, False), "generators[1][0][0]"),
    ],
    ids=["degree", "field.p", "field.k", "field.modulus", "generators[0][0][0]", "generators[1][0][0]"],
)
def test_matrix_bool_paths(mutate, path):
    doc = json.loads(GL2_F3_DOC)
    mutate(doc)
    with pytest.raises(GroupSpecValidationError) as err:
        parse_group_spec(json.dumps(doc))
    assert path in str(err.value)


def test_permutation_spec_rejects_field():
    doc = json.loads(S3_DOC)
    doc["field"] = {"p": 2, "k": 1}
    with pytest.raises(GroupSpecValidationError):
        parse_group_spec(json.dumps(doc))


# (p, k, modulus as written, modulus as kept): the field is built once, by
# the parser, which keeps every coefficient reduced mod p
EXTENSION_FIELDS = [
    (2, 2, [1, 1, 1], (1, 1, 1)),
    (2, 3, [1, 1, 0, 1], (1, 1, 0, 1)),
    (3, 2, [1, 0, 1], (1, 0, 1)),
    (3, 2, [4, -3, 1], (1, 0, 1)),
]


def test_extension_field_spec_round_trip():
    for p, k, written, kept in EXTENSION_FIELDS:
        doc = json.dumps(
            {
                "name": f"scalars-F{p**k}",
                "kind": "matrix",
                "field": {"p": p, "k": k, "modulus": written},
                "degree": 1,
                "generators": [[[p + 1]]],  # x + 1, primitive in F4, F8 and F9
            }
        )
        spec = parse_group_spec(doc)
        assert spec.field == field_create(p, k, kept)
        assert spec.field.modulus == kept
        assert parse_group_spec(spec_document(spec)) == spec
        assert build_group(spec).order == p**k - 1


def test_spec_field_is_built_once(monkeypatch):
    calls = []
    original = groupspec.field_create

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(groupspec, "field_create", counted)
    spec = parse_group_spec(GL2_F4_SPEC)
    group = build_group(spec)
    assert calls == [(2, 2, (1, 1, 1))]
    assert group.order == 180 and group.carrier.field is spec.field


@pytest.mark.parametrize("document", [S3_DOC, GL2_F4_SPEC], ids=["permutation", "matrix"])
def test_generator_elements_are_what_build_group_closes_over(monkeypatch, document):
    closed_over = []
    original = groupspec.group_generate

    def recorded(gens, **kwargs):
        closed_over.append(gens)
        return original(gens, **kwargs)

    monkeypatch.setattr(groupspec, "group_generate", recorded)
    spec = parse_group_spec(document)
    group = build_group(spec)
    gens = spec.generator_elements()
    assert closed_over == [gens]
    assert all(isinstance(g, GroupElement) for g in gens)
    assert [g.data for g in gens] == [
        tuple(x for row in gen for x in row) if spec.kind == "matrix" else gen
        for gen in spec.generators
    ]
    assert [group.element(i) for i in group.generators] == gens


def test_build_group_inverts_each_matrix_generator_at_most_twice(monkeypatch):
    # once for the parse's singular check, once for the closure's seeds
    calls = []
    original = MatrixCarrier.inv

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(MatrixCarrier, "inv", counted)
    spec = parse_group_spec(GL2_F4_SPEC)
    assert len(calls) == 3
    assert build_group(spec).order == 180
    assert len(calls) <= 6


def test_corpus_orders(corpus):
    for name in CORPUS_NAMES:
        spec = corpus_spec(name)
        assert corpus[name].order == CORPUS_ORDERS[name]
        assert spec.name


def test_unknown_corpus_name():
    with pytest.raises(KeyError):
        corpus_spec("monster")


@pytest.mark.parametrize(
    "field",
    [
        {"p": 10**30 + 57, "k": 1},  # 30-digit p: rejected before any trial division
        {"p": 1048583, "k": 1},  # smallest prime above 2^20
        {"p": 2, "k": 21},
        {"p": 1031, "k": 2},
        {"p": 2, "k": 10**12},  # p**k is never formed
    ],
)
def test_field_order_above_limit_rejected_promptly(field):
    doc = json.loads(GL2_F3_DOC)
    doc["field"] = field
    start = time.monotonic()
    with pytest.raises(GroupSpecValidationError) as err:
        parse_group_spec(json.dumps(doc))
    assert time.monotonic() - start < 0.5
    assert "at most 1048576" in str(err.value)


def test_field_order_at_limit_passes_the_size_check():
    doc = json.loads(GL2_F3_DOC)
    doc["field"] = {"p": 1048573, "k": 1}  # largest prime below 2^20
    assert parse_group_spec(json.dumps(doc)).field.p == 1048573


def test_integer_past_digit_limit_is_a_parse_error():
    doc = GL2_F3_DOC.replace('"p": 3', '"p": ' + "7" * 5000)
    with pytest.raises(GroupSpecParseError):
        parse_group_spec(doc)


# Round trips: a spec written to a JSON document parses back to itself


def spec_document(spec: GroupSpec) -> str:
    """A GroupSpec as a spec document, written independently of the parser."""
    doc = {"name": spec.name, "kind": spec.kind, "degree": spec.degree}
    if spec.field is not None:
        doc["field"] = {"p": spec.field.p, "k": spec.field.k}
        if spec.field.modulus is not None:
            doc["field"]["modulus"] = list(spec.field.modulus)
    doc["generators"] = [
        [list(row) for row in gen] if spec.kind == "matrix" else list(gen)
        for gen in spec.generators
    ]
    return json.dumps(doc)


def _determinant(rows, p):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p


def test_deeply_nested_json_is_a_parse_error():
    # json.loads raises RecursionError past the interpreter's recursion limit
    with pytest.raises(GroupSpecParseError, match="not valid JSON"):
        parse_group_spec("[" * 100_000)


def test_spec_file_budget_is_exact(tmp_path):
    # a valid spec padded with spaces to exactly the budget parses; one byte
    # more is refused
    path = tmp_path / "spec.json"
    path.write_bytes(S3_DOC.encode().ljust(groupspec.MAX_SPEC_BYTES))
    assert groupspec.load_group_spec(path) == parse_group_spec(S3_DOC)
    path.write_bytes(S3_DOC.encode().ljust(groupspec.MAX_SPEC_BYTES + 1))
    with pytest.raises(GroupSpecParseError, match=f"larger than {groupspec.MAX_SPEC_BYTES}"):
        groupspec.load_group_spec(path)


def test_spec_reads_are_bounded(monkeypatch):
    # an endless input such as /dev/zero: the reader refuses an unbounded read
    class Endless:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self, size=-1):
            if size is None or size < 0:
                raise AssertionError("unbounded read of a spec file")
            return b"0" * size

    monkeypatch.setattr(groupspec, "open", lambda *args, **kwargs: Endless(), raising=False)
    with pytest.raises(GroupSpecParseError, match="larger than"):
        groupspec.load_group_spec("endless.json")


# letters, digits, JSON escapes and non-ASCII text
NAMES = st.text('aZ09 _-()"\\/\n\té×ΣЖ', min_size=1, max_size=12)


@st.composite
def permutation_specs(draw):
    degree = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return GroupSpec(draw(NAMES), "permutation", None, degree, tuple(tuple(g) for g in gens))


@st.composite
def prime_matrix_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    degree = draw(st.integers(1, 3))
    rows = st.tuples(*[st.integers(0, p - 1)] * degree)
    matrix = st.tuples(*[rows] * degree).filter(lambda m: _determinant(m, p) != 0)
    gens = draw(st.lists(matrix, min_size=1, max_size=3))
    return GroupSpec(draw(NAMES), "matrix", field_create(p, 1), degree, tuple(gens))


@given(permutation_specs())
def test_permutation_spec_round_trip(spec):
    assert parse_group_spec(spec_document(spec)) == spec


@given(prime_matrix_specs())
def test_prime_field_matrix_spec_round_trip(spec):
    assert parse_group_spec(spec_document(spec)) == spec

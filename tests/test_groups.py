import itertools
import random

import pytest

from commprob import fields as fields_module
from commprob import groups as groups_module
from commprob.branching import branching_matrix
from commprob.conjugacy import centralizer, conjugacy_classes, subgroup_conjugate
from commprob.counting import family_order
from commprob.errors import CapExceededError, ElementNotInGroupError, MixedCarriersError
from commprob.fields import field_create
from commprob.groups import (
    FiniteGroup,
    GroupElement,
    Subgroup,
    center,
    close_subgroup,
    group_generate,
    matrix_element,
    permutation_element,
)
from commprob.groupspec import (
    CORPUS_NAMES,
    build_group,
    corpus_group,
    corpus_spec,
    parse_group_spec,
)

from conftest import (
    gl2,
    gl2_generators,
    gl3_generators,
    recording,
    subgroup_closure,
    symmetric_group,
)


def gl_order(n, q):
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def test_s3_from_transposition_and_cycle():
    g = group_generate([permutation_element([1, 0, 2]), permutation_element([1, 2, 0])])
    assert g.order == 6
    assert g.element(0).data == (0, 1, 2)  # identity first


@pytest.mark.parametrize(
    "name,n,q,expected", [("gl2_f2", 2, 2, 6), ("gl2_f3", 2, 3, 48), ("gl3_f2", 3, 2, 168)]
)
def test_gl_orders_match_formula(corpus, name, n, q, expected):
    assert gl_order(n, q) == expected
    assert corpus[name].order == expected


def test_group_axioms_random_triples(corpus):
    rng = random.Random(7)
    for group in corpus.values():
        n = group.order
        for _ in range(50):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
            assert group.mul(a, group.inv(a)) == 0


def test_regeneration_same_canonical_multiset():
    gens_a = [permutation_element([1, 0, 2]), permutation_element([1, 2, 0])]
    gens_b = [permutation_element([1, 0, 2]), permutation_element([2, 1, 0])]  # (01), (02)
    gens_c = [permutation_element([1, 2, 0]), permutation_element([0, 2, 1])]  # (012), (12)
    groups = [group_generate(g) for g in (gens_a, gens_b, gens_c)]
    encodings = [g.canonical_encodings() for g in groups]
    assert encodings[0] == encodings[1] == encodings[2]


def test_regeneration_matrix_group(corpus):
    f3 = field_create(3, 1)
    other = group_generate(
        [matrix_element(f3, [[2, 0], [0, 1]]), matrix_element(f3, [[2, 1], [2, 0]])]
    )
    assert other.canonical_encodings() == corpus["gl2_f3"].canonical_encodings()


def test_mixed_carriers_rejected():
    f2 = field_create(2, 1)
    f3 = field_create(3, 1)
    with pytest.raises(MixedCarriersError):
        group_generate(
            [matrix_element(f2, [[1, 1], [0, 1]]), matrix_element(f3, [[1, 1], [0, 1]])]
        )
    with pytest.raises(MixedCarriersError):
        group_generate(
            [permutation_element([1, 0, 2]), permutation_element([1, 0, 2, 3])]
        )


def test_cap_exceeded():
    with pytest.raises(CapExceededError):
        group_generate([permutation_element([1, 2, 3, 0])], cap=3)


def test_singular_matrix_rejected():
    f3 = field_create(3, 1)
    with pytest.raises(ValueError):
        matrix_element(f3, [[1, 2], [2, 1]])  # det = 1 - 4 = 0 mod 3


@pytest.mark.parametrize("n,p,modulus", [(2, 2, [1, 1, 1]), (2, 5, None), (3, 2, None)])
def test_matrix_element_accepts_exactly_gl(n, p, modulus):
    # every n x n matrix over F_q: the accepted ones are GL_n(F_q)
    field = field_create(p, 1 if modulus is None else len(modulus) - 1, modulus)
    accepted = 0
    for cells in itertools.product(range(field.order), repeat=n * n):
        rows = [cells[i * n : (i + 1) * n] for i in range(n)]
        try:
            matrix_element(field, rows)
        except ValueError:
            continue
        accepted += 1
    assert accepted == family_order("GL", n, field.order)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        permutation_element([0, 0, 1])


@pytest.mark.parametrize("images", [[1.9, 0.2], [1.0, 0], [True, False], [1, False]])
def test_permutation_element_refuses_floats_and_bools(images):
    # int() would truncate [1.9, 0.2] to the permutation (1, 0)
    with pytest.raises(ValueError, match="not a permutation of ints"):
        permutation_element(images)


@pytest.mark.parametrize(
    "rows", [[[1.5, 0], [0, 2.7]], [[1.0, 0], [0, 2]], [[True, 0], [0, True]]]
)
def test_matrix_element_refuses_floats_and_bools(rows):
    # int() would truncate [[1.5, 0], [0, 2.7]] to diag(1, 2) over F3
    with pytest.raises(ValueError, match="not an int in"):
        matrix_element(field_create(3, 1), rows)


def test_center_examples(corpus):
    assert center(corpus["s3"]).order == 1
    assert center(corpus["q8"]).order == 2
    cyclic = group_generate([permutation_element([1, 2, 3, 4, 0])])
    assert center(cyclic).order == 5  # abelian: the whole group
    assert cyclic.is_abelian
    s4 = corpus["s4"]
    x = s4.element_index(permutation_element([1, 0, 3, 2]))
    d4 = centralizer(s4, (x,))  # a dihedral group of order 8
    assert d4.order == 8
    assert center(s4, within=d4).members == (0, x)


def test_center_of_every_registered_type_matches_brute_force(corpus):
    groups = [*corpus.values(), conjugated_gl2_f3()]
    for group in groups:
        _, registry = branching_matrix(group)
        for entry in registry.types:
            h = entry.centralizer
            expected = [
                z for z in h.members if all(group.mul(z, x) == group.mul(x, z) for x in h.members)
            ]
            assert center(group, within=h).members == tuple(expected), (group, entry)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_conjugation_scans_make_no_product(monkeypatch, name):
    # classes, centres and transporter candidates conjugate through
    # `FiniteGroup.conj`, which replays words without calling `mul`
    group = corpus_group(name)
    subgroups = [Subgroup.whole(group)]
    subgroups += [centralizer(group, (x,)) for x in range(1, min(group.order, 12))]
    calls = []
    original = FiniteGroup.mul

    def counted(self, i, j):
        calls.append((i, j))
        return original(self, i, j)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    conjugacy_classes(group)
    for h in subgroups:
        center(group, within=h)
        conjugacy_classes(group, within=h)
        for k in subgroups:
            subgroup_conjugate(group, h, k)
    assert calls == []
    assert group.mul(0, 0) == 0 and calls == [(0, 0)]  # the counter is live


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_conjugation_table_matches_conj(name):
    # every generator, and the element with the longest word, which no seed is
    group = corpus_group(name)
    n, conj = group.order, group.conj
    deepest = max(range(n), key=lambda x: len(group._words[x]))
    assert len(group._words[deepest]) > 1
    for g in (*group.generators, deepest):
        assert group.conjugation_table(g) == [conj(g, x) for x in range(n)], g


def test_extension_field_matrix_group():
    f4 = field_create(2, 2, (1, 1, 1))
    # multiplicative group of F4 embedded as scalar matrices: order 3
    g = group_generate([matrix_element(f4, [[2]])])
    assert g.order == 3


def test_element_identity_and_indexing(corpus):
    g = corpus["q8"]
    el = g.element(3)
    assert g.element_index(el) == 3
    assert g.element(0).data == g.carrier.identity()


def test_canonical_equality_and_hash():
    f3a = field_create(3, 1)
    f3b = field_create(3, 1)
    x = matrix_element(f3a, [[1, 1], [0, 1]])
    y = matrix_element(f3b, [[1, 1], [0, 1]])
    z = matrix_element(f3a, [[1, 2], [0, 1]])
    assert x == y and hash(x) == hash(y)
    assert x.encode() == y.encode()
    assert x != z and x.encode() != z.encode()


def test_close_subgroup_draws_no_candidate_past_the_order(corpus):
    rng = random.Random(11)
    for name, group in corpus.items():
        targets = [range(group.order), [0]]
        targets += [subgroup_closure(group, rng.sample(range(group.order), 2)) for _ in range(4)]
        for target in targets:
            # the members of the target, then elements that would grow it
            candidates = list(target)
            rng.shuffle(candidates)
            candidates += [x for x in range(group.order) if x not in target]
            tried = []
            members, gens = close_subgroup(group.mul, recording(candidates, tried), len(target))
            assert sorted(members) == sorted(target), name
            assert frozenset(members) == subgroup_closure(group, tried), name
            # each generator is a drawn candidate, and the last one drawn
            # completed the subgroup, so none was drawn after its order
            assert [g for g in tried if g in gens] == gens, name
            assert tried[-1:] == gens[-1:], name


def test_subgroup_validation(corpus):
    g = corpus["s3"]
    assert Subgroup.whole(g).is_subgroup()
    assert Subgroup(g, [0]).is_subgroup()
    # a transposition and a 3-cycle together do not close up
    assert not Subgroup(g, [0, 1, 2]).is_subgroup()


GL2_F4_SPEC = """{
  "name": "GL2(F4)",
  "kind": "matrix",
  "field": {"p": 2, "k": 2, "modulus": [1, 1, 1]},
  "degree": 2,
  "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]]
}"""

SL2_F8_SPEC = """{
  "name": "SL2(F8)",
  "kind": "matrix",
  "field": {"p": 2, "k": 3, "modulus": [1, 1, 0, 1]},
  "degree": 2,
  "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 5]]]
}"""

GL2_F5_SPEC = """{
  "name": "GL2(F5)",
  "kind": "matrix",
  "field": {"p": 5, "k": 1},
  "degree": 2,
  "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]]
}"""


@pytest.mark.parametrize(
    "spec", [parse_group_spec(GL2_F4_SPEC), corpus_spec("s4")], ids=["gl2_f4", "s4"]
)
def test_element_boundary_round_trip(spec):
    group = build_group(spec)
    assert all(group.element_index(group.element(i)) == i for i in range(group.order))
    assert len({group.encode(i) for i in range(group.order)}) == group.order


def test_encode_rejects_indices_outside_the_group(corpus):
    g = corpus["s3"]
    for i in (-1, g.order):
        with pytest.raises(ElementNotInGroupError):
            g.encode(i)
        with pytest.raises(ElementNotInGroupError):
            g.element(i)


def test_element_index_rejects_elements_outside_the_group(corpus):
    f3 = field_create(3, 1)
    unipotent = group_generate([matrix_element(f3, [[1, 1], [0, 1]])])
    assert unipotent.order == 3
    outside = [
        permutation_element([1, 0, 2]),  # another carrier
        matrix_element(field_create(5, 1), [[1, 1], [0, 1]]),  # another field
        matrix_element(f3, [[2, 0], [0, 1]]),  # same carrier, not in the group
        # malformed data: the identity's column codes, too short, and
        # column codes outside [0, 9) that no byte key holds
        GroupElement(unipotent.carrier, (1, 3, 0, 0)),
        GroupElement(unipotent.carrier, (1, 0)),
        GroupElement(unipotent.carrier, (1, 0, 0, 300)),
        GroupElement(unipotent.carrier, (1, 0, -1, 1)),
    ]
    for el in outside:
        with pytest.raises(ElementNotInGroupError):
            unipotent.element_index(el)
    s3 = corpus["s3"]
    # too short, and image arrays that no byte key holds
    for data in ((0, 1), (0, 1, 300), (0, 1, -1)):
        with pytest.raises(ElementNotInGroupError):
            s3.element_index(GroupElement(s3.carrier, data))
    with pytest.raises(ElementNotInGroupError):
        s3.element_index(unipotent.element(1))  # another carrier


def test_closure_keeps_keys_and_converts_only_at_the_boundary(monkeypatch):
    from_key = groups_module.MatrixCarrier.from_key
    calls = []

    def counted(carrier, key):
        calls.append(key)
        return from_key(carrier, key)

    monkeypatch.setattr(groups_module.MatrixCarrier, "from_key", counted)
    gens = gl2_generators(3, (1, 0, 1))
    group = group_generate(gens)
    assert group.order == 5760
    assert calls == []
    assert group.element(group.generators[0]).data == gens[0].data
    assert len(calls) == 1


def conjugated_gl2_f3_generators():
    """h g h^-1 for the corpus generators g of GL2(F3)."""
    f3 = field_create(3, 1)
    h = matrix_element(f3, [[1, 2], [1, 0]])
    carrier = h.carrier
    h_inv = carrier.inv(h.data)
    return [
        GroupElement(carrier, carrier.mul(carrier.mul(h.data, g.data), h_inv))
        for g in (matrix_element(f3, rows) for rows in corpus_spec("gl2_f3").generators)
    ]


def conjugated_gl2_f3():
    """GL2(F3) from conjugated generators: same group, new order."""
    return group_generate(conjugated_gl2_f3_generators(), name="GL2(F3)^h")


def word_bound(group):
    """The depth bound on product words: max(8, 2 * bit_length(|G|))."""
    return max(8, 2 * group.order.bit_length())


def assert_mul_inv_match_carrier(group, pairs=None, seed=13):
    """Products against carrier products, on every pair or on `pairs` seeded
    ones, and conjugation against its two products on the same pairs; every
    inverse against the carrier inverse; words within the bound, and one
    letter for each generator."""
    carrier, n = group.carrier, group.order
    elements = [group.element(i).data for i in range(n)]

    def index(data):
        return group.element_index(GroupElement(carrier, data))

    if pairs is None:
        todo = [(a, b) for a in range(n) for b in range(n)]
    else:
        rng = random.Random(seed)
        todo = [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs)]
    for a, b in todo:
        assert group.mul(a, b) == index(carrier.mul(elements[a], elements[b])), (a, b)
        assert group.conj(a, b) == group.mul(group.mul(a, b), group.inv(a)), (a, b)
    assert [group.inv(a) for a in range(n)] == [index(carrier.inv(a)) for a in elements]
    assert max(len(word) for word in group._words) <= word_bound(group)
    assert all(len(group._words[s]) == 1 for s in group.generators)


# The test ids below predate the single multiplication path; each one now
# checks `mul` and `inv` against the carrier.


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_composed_table_matches_carrier_on_corpus(name):
    assert_mul_inv_match_carrier(corpus_group(name))


def test_composed_table_matches_carrier_extension_field():
    group = build_group(parse_group_spec(GL2_F4_SPEC))
    assert group.order == 180
    assert_mul_inv_match_carrier(group)
    # above 2048 elements, seeded pairs
    group = gl2(2, (1, 0, 1, 1))
    assert group.order == 3528
    assert_mul_inv_match_carrier(group, pairs=2000)


def test_extension_field_reductions_are_bounded_by_distinct_products(monkeypatch):
    # F8 has 64 products; building SL2(F8) reduces no product twice
    gens = parse_group_spec(SL2_F8_SPEC).generator_elements()
    poly_mod = fields_module._poly_mod
    calls = []

    def counted(*args):
        calls.append(args)
        return poly_mod(*args)

    monkeypatch.setattr(fields_module, "_poly_mod", counted)
    assert group_generate(gens).order == 504
    assert 0 < len(calls) <= 8 * 8


def test_composed_table_matches_carrier_conjugated_generators():
    group = conjugated_gl2_f3()
    corpus = corpus_group("gl2_f3")
    assert group.order == 48
    assert group.elements != corpus.elements  # a different discovery order
    assert group.canonical_encodings() == corpus.canonical_encodings()
    assert_mul_inv_match_carrier(group)


def test_carrier_path_above_table_limit(large_groups):
    s7 = large_groups["s7"]
    assert s7.order == 5040
    assert s7.inv(0) == 0
    assert_mul_inv_match_carrier(s7, pairs=2000)


def test_cyclic_group_words_stay_shallow():
    # GL1(F_10007) from one generator and its inverse: a plain breadth-first
    # search would need words of about |G|/2 = 5003 letters
    group = group_generate([matrix_element(field_create(10007, 1), [[5]])])
    assert group.order == 10006
    assert word_bound(group) == 28
    assert_mul_inv_match_carrier(group, pairs=2000, seed=7)


def test_table_build_makes_no_carrier_products(monkeypatch):
    # products and inverses come from the closure's recorded actions alone;
    # the carriers are consulted before the patch, and only for the check
    gl2_f5 = build_group(parse_group_spec(GL2_F5_SPEC))
    s7 = group_generate(symmetric_group(7))
    assert (gl2_f5.order, s7.order) == (480, 5040)

    def product_index(group, a, b):
        data = group.carrier.mul(group.element(a).data, group.element(b).data)
        return group.element_index(GroupElement(group.carrier, data))

    expected = {
        group: [product_index(group, a, b) for a, b in ((5, 7), (group.order - 1, 3))]
        for group in (gl2_f5, s7)
    }
    calls = []

    def counted(fn):
        def wrapped(carrier, *args):
            calls.append(fn.__qualname__)
            return fn(carrier, *args)

        return wrapped

    for cls in (groups_module.MatrixCarrier, groups_module.PermutationCarrier):
        for attr in ("mul", "inv"):
            monkeypatch.setattr(cls, attr, counted(getattr(cls, attr)))
    for group, products in expected.items():
        assert group.inv(0) == 0
        assert [group.mul(5, 7), group.mul(group.order - 1, 3)] == products
        assert all(group.mul(a, group.inv(a)) == 0 for a in range(group.order))
    assert calls == []


def gl2_f16_upper_triangular(diagonal):
    """Generators of the unipotent subgroup of GL2(F16), the transvections
    [[1, a], [0, 1]] for a over a basis of F16 over F2, or of the Borel
    subgroup: [[1, 1], [0, 1]], diag(x, 1) and diag(1, x), x generating
    F16* under the primitive modulus x^4 + x + 1."""
    f16 = field_create(2, 4, (1, 1, 0, 0, 1))
    x = 2
    if not diagonal:
        return [matrix_element(f16, [[1, a], [0, 1]]) for a in (1, 2, 4, 8)]
    rows = ([[1, 1], [0, 1]], [[x, 0], [0, 1]], [[1, 0], [0, x]])
    return [matrix_element(f16, r) for r in rows]


def reference_closure(gens):
    """The closure by carrier products: breadth-first from the identity,
    left-multiplying by the generators and then their inverses.  Returns
    the elements, the index, each seed's recorded action and the
    generators' indices."""
    carrier = gens[0].carrier
    seeds = list(dict.fromkeys([g.data for g in gens] + [carrier.inv(g.data) for g in gens]))
    identity = carrier.identity()
    elements, index = [identity], {identity: 0}
    actions = [[] for _ in seeds]
    for x in elements:
        for s, act in zip(seeds, actions):
            y = carrier.mul(s, x)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            act.append(index[y])
    generators = tuple(dict.fromkeys(i for i in (index[g.data] for g in gens) if i != 0))
    return elements, index, actions, generators


CLOSURE_CASES = {
    **{name: lambda name=name: corpus_spec(name).generator_elements() for name in CORPUS_NAMES},
    "gl2_f3_conjugated": conjugated_gl2_f3_generators,
    "gl2_f4": lambda: parse_group_spec(GL2_F4_SPEC).generator_elements(),
    "sl2_f8": lambda: parse_group_spec(SL2_F8_SPEC).generator_elements(),
    "gl2_f8": lambda: gl2_generators(2, (1, 0, 1, 1)),
    "gl2_f9": lambda: gl2_generators(3, (1, 0, 1)),
    "gl3_f3": lambda: gl3_generators(3),
    "gl1_f10007": lambda: [matrix_element(field_create(10007, 1), [[5]])],
    "s7": lambda: symmetric_group(7),
    # S3 on the first 3 of 256 points (byte keys) and of 257 (tuple keys)
    "s3_on_256": lambda: symmetric_group(3, degree=256),
    "s3_on_257": lambda: symmetric_group(3, degree=257),
    # q**n = 256 column codes, the largest alphabet of byte keys; only the
    # orbit of the basis columns is met
    "unipotent_gl2_f16": lambda: gl2_f16_upper_triangular(diagonal=False),
    "borel_gl2_f16": lambda: gl2_f16_upper_triangular(diagonal=True),
    # q**n = 289 column codes, of which the closure meets only codes below 256
    "unipotent_gl2_f17": lambda: [matrix_element(field_create(17, 1), [[1, 1], [0, 1]])],
}


@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_closure_matches_the_carrier_product_closure(name):
    gens = CLOSURE_CASES[name]()
    group = group_generate(gens)
    elements, index, actions, generators = reference_closure(gens)
    assert [group.element(i).data for i in range(group.order)] == elements
    assert len(group.index) == len(index)
    assert {x: group.element_index(GroupElement(group.carrier, x)) for x in index} == index
    assert group._actions == actions
    assert group.generators == generators


def test_closure_keys_do_not_change_the_recorded_actions():
    # byte keys on 256 points and tuple keys on 257 give the same search
    s3 = group_generate(symmetric_group(3))
    for degree, key_type in ((256, bytes), (257, tuple)):
        padded = group_generate(symmetric_group(3, degree=degree))
        assert type(padded.elements[0]) is key_type
        assert padded._actions == s3._actions
        assert padded.generators == s3.generators
    unipotent = group_generate(gl2_f16_upper_triangular(diagonal=False))
    borel = group_generate(gl2_f16_upper_triangular(diagonal=True))
    assert (unipotent.order, borel.order) == (16, 15 * 15 * 16)
    assert type(borel.elements[0]) is bytes
    # the key type follows the letters met, not the alphabet: q**n = 289,
    # but every column of a unipotent matrix over F17 codes below 256
    unipotent_f17 = group_generate(CLOSURE_CASES["unipotent_gl2_f17"]())
    assert (unipotent_f17.order, type(unipotent_f17.elements[0])) == (17, bytes)


@pytest.mark.parametrize("cap", [True, 2.5, "5", None, 0])
def test_closure_entry_points_refuse_a_non_int_cap(cap):
    # True and 2.5 were taken as caps, and "5" and None let a TypeError out
    gens = [permutation_element([1, 2, 3, 0])]
    with pytest.raises(ValueError, match="cap must be"):
        group_generate(gens, cap=cap)
    with pytest.raises(ValueError, match="cap must be"):
        build_group(corpus_spec("s3"), cap=cap)


def test_matrix_closure_cap_is_exact():
    spec = corpus_spec("gl2_f3")
    with pytest.raises(CapExceededError):
        build_group(spec, cap=47)
    assert build_group(spec, cap=48).order == 48


GL16_F2 = (  # a transvection and the 16-cycle: every nonzero column of F2^16
    [[int(r == c or (r, c) == (0, 1)) for c in range(16)] for r in range(16)],
    [[int(r == (c + 1) % 16) for c in range(16)] for r in range(16)],
)


@pytest.mark.parametrize(
    "p, rows",
    [
        (65521, ([[1, 1], [0, 1]], [[1, 0], [1, 1]])),  # SL2, 65521^2 - 1 columns
        (101, ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])),
        (2, GL16_F2),
    ],
    ids=["sl2_f65521", "gl3_f101_subgroup", "gl16_f2"],
)
def test_cap_refuses_a_large_matrix_alphabet_at_once(monkeypatch, p, rows):
    # by orbit-stabilizer, one basis column's orbit of more than cap columns
    # proves the group larger than cap, so the letter images stop there
    # rather than covering n * cap columns, or every column
    cap, seeds, calls = 50, [], []
    letter_image = groups_module.MatrixCarrier.letter_image

    def counted(carrier, s):
        seeds.append(s)
        image = letter_image(carrier, s)

        def count(code):
            calls.append(code)
            if len(calls) > len(seeds) * (cap + 1):
                raise AssertionError("the orbit walk went past the cap")
            return image(code)

        return count

    monkeypatch.setattr(groups_module.MatrixCarrier, "letter_image", counted)
    field = field_create(p, 1)
    with pytest.raises(CapExceededError, match=f"cap of {cap} elements"):
        group_generate([matrix_element(field, r) for r in rows], cap=cap)
    assert calls


def test_closure_makes_no_carrier_products(monkeypatch):
    # seeds act through recorded letter images, on byte and tuple keys alike
    def refuse(carrier, a, b):
        raise AssertionError("carrier product in the closure")

    for cls in (groups_module.MatrixCarrier, groups_module.PermutationCarrier):
        monkeypatch.setattr(cls, "mul", refuse)
    assert build_group(parse_group_spec(GL2_F4_SPEC)).order == 180
    assert build_group(parse_group_spec(GL2_F5_SPEC)).order == 480
    assert group_generate(symmetric_group(7)).order == 5040
    for name, order in (("s3_on_257", 6), ("gl1_f10007", 10006)):
        group = group_generate(CLOSURE_CASES[name]())
        assert (group.order, type(group.elements[0])) == (order, tuple)


def letter_positions(group):
    """The product words with each letter as its position in the order of
    first use, and the letters in that order."""
    first = {}
    words = [tuple(first.setdefault(id(act), (len(first), act))[0] for act in w) for w in group._words]
    return words, [act for _, act in first.values()]


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "gl2_f4", "s7"])
def test_tuple_keys_give_the_byte_key_group(monkeypatch, name):
    gens = CLOSURE_CASES[name]()
    byte_keyed = group_generate(gens)
    monkeypatch.setattr(groups_module, "BYTE_LETTERS", 0)  # every letter is too large
    tuple_keyed = group_generate(gens)
    assert (type(byte_keyed.elements[0]), type(tuple_keyed.elements[0])) == (bytes, tuple)
    assert tuple_keyed._actions == byte_keyed._actions
    assert tuple_keyed._inv_table == byte_keyed._inv_table
    assert letter_positions(tuple_keyed) == letter_positions(byte_keyed)
    assert tuple_keyed.generators == byte_keyed.generators
    for i in range(tuple_keyed.order):
        el = tuple_keyed.element(i)
        assert el == byte_keyed.element(i)
        assert tuple_keyed.element_index(el) == byte_keyed.element_index(el) == i


def reference_words(group):
    """Product words and inverse table by the breadth-first search over the
    seeds' actions that `group_generate`'s tree replaces, with the same
    restarts: the words must not depend on which search read them."""
    n, letters = group.order, list(group._actions)
    bound = word_bound(group)
    while True:
        words, _, _, deep = groups_module._shallow_words(n, letters, bound)
        if deep is None:
            break
        action = range(n)
        for act in deep:
            action = list(map(act.__getitem__, action))
        letters += (action, groups_module._inverse_permutation(action))
    inverse = [next(j for j in range(n) if group.mul(i, j) == 0) for i in range(n)]
    return words, inverse, len(letters)


def cycle_group(n):
    """The cyclic group of order n from one n-cycle and its inverse."""
    return group_generate([permutation_element([*range(1, n), 0])])


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "cycle64"])
def test_words_and_inverses_match_the_shallow_words_reference(name):
    # a 64-cycle needs words of 32 letters over its two seeds, deeper than
    # the bound of 14, so its words come from the restarts
    group = cycle_group(64) if name == "cycle64" else corpus_group(name)
    words, inverse, letters = reference_words(group)
    assert group._words == words
    assert group._inv_table == inverse
    assert (letters > len(group._actions)) == (name == "cycle64")


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "cycle64"])
def test_closure_tree_parents_precede_their_children(name):
    group = cycle_group(64) if name == "cycle64" else corpus_group(name)
    assert len(group._tree) == group.order - 1
    for x, (p, act) in enumerate(group._tree, 1):
        assert p < x and act[p] == x
        assert any(act is seed for seed in group._actions)


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "cycle64"])
def test_conjugates_follow_the_index_order(name):
    group = cycle_group(64) if name == "cycle64" else corpus_group(name)
    for a in range(min(group.order, 12)):
        assert list(group.conjugates(a)) == [group.conj(g, a) for g in range(group.order)]

import random

import pytest

from commprob.branching import TypeRegistry, branching_matrix, tuple_z_type
from commprob.conjugacy import (
    centralizer,
    commuting_tuple,
    conjugacy_classes,
    subgroup_conjugate,
    z_classes,
)
from commprob.errors import ElementNotInGroupError, NotCommutingError
from commprob.fields import field_create
from commprob.groups import Subgroup, group_generate, matrix_element, permutation_element

from conftest import subgroup_closure


def find_element(group, predicate):
    return next(i for i in range(group.order) if predicate(i))


def test_centralizer_of_identity_is_group(corpus):
    g = corpus["s3"]
    assert centralizer(g, (0,)).order == g.order
    assert centralizer(g, ()).order == g.order  # empty tuple


def test_centralizer_of_transposition(corpus):
    g = corpus["s3"]
    t = find_element(g, lambda i: g.element_order(i) == 2)
    cent = centralizer(g, (t,))
    assert cent.order == 2
    assert cent.is_subgroup()


def test_centralizer_of_unipotent_gl2_f3(corpus):
    g = corpus["gl2_f3"]
    u = g.element_index(
        matrix_element(field_create(3, 1), [[1, 1], [0, 1]])
    )
    cent = centralizer(g, (u,))
    # exactly the matrices [[a, b], [0, a]]: q(q-1) = 6 of them at q = 3
    assert cent.order == 6
    for m in cent.members:
        a, b, c, d = g.elements[m]
        assert c == 0 and a == d


def test_centralizer_invariant_under_permutation_and_duplicates(corpus):
    g = corpus["s4"]
    rng = random.Random(3)
    for _ in range(20):
        a = rng.randrange(g.order)
        b_candidates = centralizer(g, (a,)).members
        b = rng.choice(b_candidates)
        base = centralizer(g, (a, b))
        assert centralizer(g, (b, a)) == base
        assert centralizer(g, (a, b, a, b, b)) == base


def test_centralizer_rejects_foreign_index(corpus):
    with pytest.raises(ElementNotInGroupError):
        centralizer(corpus["s3"], (99,))


def test_conjugacy_classes_s3_q8_cyclic(corpus):
    sizes = sorted(c.size for c in conjugacy_classes(corpus["s3"]).classes)
    assert sizes == [1, 2, 3]
    sizes = sorted(c.size for c in conjugacy_classes(corpus["q8"]).classes)
    assert sizes == [1, 1, 2, 2, 2]
    cyclic = group_generate([permutation_element([1, 2, 3, 4, 5, 0])])
    assert all(c.size == 1 for c in conjugacy_classes(cyclic).classes)


def test_classes_partition_and_divide(corpus):
    for group in corpus.values():
        part = conjugacy_classes(group)
        members = sorted(m for cls in part.classes for m in cls.members)
        assert members == list(range(group.order))
        for cls in part.classes:
            assert group.order % cls.size == 0
            assert cls.representative == min(cls.members)
            # every member really is conjugate to the representative
            x = cls.members[-1]
            assert any(group.conj(g, cls.representative) == x for g in range(group.order))


def test_subgroup_conjugate_identity_witness(corpus):
    g = corpus["s4"]
    sub = Subgroup(g, subgroup_closure(g, [1]))
    assert subgroup_conjugate(g, sub, sub) == 0


def test_subgroup_conjugate_q8_normal_subgroups(corpus):
    g = corpus["q8"]
    i_sub = Subgroup(g, subgroup_closure(g, [1]))
    j_sub = Subgroup(g, subgroup_closure(g, [4]))
    assert i_sub.order == j_sub.order == 4
    assert i_sub != j_sub
    assert subgroup_conjugate(g, i_sub, j_sub) is None


def test_subgroup_conjugate_s3_transposition_subgroups(corpus):
    g = corpus["s3"]
    two_subgroups = [
        Subgroup(g, subgroup_closure(g, [t]))
        for t in range(g.order)
        if g.element_order(t) == 2
    ]
    witness = subgroup_conjugate(g, two_subgroups[0], two_subgroups[1])
    assert witness is not None
    conjugated = frozenset(g.conj(witness, x) for x in two_subgroups[0].members)
    assert conjugated == two_subgroups[1].member_set


def test_subgroup_conjugacy_is_equivalence(corpus):
    g = corpus["s4"]
    rng = random.Random(11)
    subs = [Subgroup(g, subgroup_closure(g, [rng.randrange(g.order)])) for _ in range(8)]
    _, registry = branching_matrix(g)
    subs += [entry.centralizer for entry in registry.types]
    for a in subs:
        assert subgroup_conjugate(g, a, a) is not None  # reflexive
    for a in subs:
        for b in subs:
            w = subgroup_conjugate(g, a, b)
            if w is None:
                continue
            # symmetric via the inverse witness
            inv = g.inv(w)
            assert frozenset(g.conj(inv, x) for x in b.members) == a.member_set
            for c in subs:
                v = subgroup_conjugate(g, b, c)
                if v is None:
                    continue
                prod = g.mul(v, w)  # transitive via the product witness
                assert frozenset(g.conj(prod, x) for x in a.members) == c.member_set


def test_z_classes_s3(corpus):
    zcs = z_classes(corpus["s3"])
    assert len(zcs) == 3
    assert all(len(z.class_ids) == 1 for z in zcs)
    assert sorted(z.centralizer.order for z in zcs) == [2, 3, 6]
    assert zcs[0].centralizer.order == 6  # central z-class first


def test_z_classes_q8(corpus):
    zcs = z_classes(corpus["q8"])
    assert len(zcs) == 4
    assert len(zcs[0].class_ids) == 2  # both central classes share centralizer Q8
    assert zcs[0].centralizer.order == 8
    assert [z.centralizer.order for z in zcs[1:]] == [4, 4, 4]


def test_z_classes_of_abelian_subgroup(corpus):
    g = corpus["s4"]
    cyclic4 = Subgroup(g, subgroup_closure(g, [find_4cycle(g)]))
    zcs = z_classes(g, cyclic4)
    assert len(zcs) == 1
    assert len(zcs[0].class_ids) == cyclic4.order  # singleton classes
    assert zcs[0].centralizer == cyclic4


def find_4cycle(group):
    return next(i for i in range(group.order) if group.element_order(i) == 4)


def test_z_class_sizes_equal_and_cover(corpus):
    for group in corpus.values():
        part = conjugacy_classes(group)
        zcs = z_classes(group)
        covered = sorted(cid for z in zcs for cid in z.class_ids)
        assert covered == list(range(part.count))
        for z in zcs:
            sizes = {part.classes[cid].size for cid in z.class_ids}
            assert len(sizes) == 1  # all member classes have equal size


def test_z_class_membership_has_witness(corpus):
    # each member class's centralizer is conjugate to the z-class anchor
    for name in ("q8", "s4", "gl2_f3"):
        group = corpus[name]
        part = conjugacy_classes(group)
        for z in z_classes(group):
            # the anchor is the centralizer of the recorded representative
            assert z.representative == part.classes[z.class_ids[0]].representative
            assert centralizer(group, (z.representative,)) == z.centralizer
            for cid in z.class_ids:
                cent = centralizer(group, (part.classes[cid].representative,))
                witness = subgroup_conjugate(group, cent, z.centralizer)
                assert witness is not None
                image = frozenset(group.conj(witness, x) for x in cent.members)
                assert image == z.centralizer.member_set


def test_commuting_tuple_validation(corpus):
    g = corpus["s3"]
    t = find_element(g, lambda i: g.element_order(i) == 2)
    r = find_element(g, lambda i: g.element_order(i) == 3)
    with pytest.raises(NotCommutingError):
        commuting_tuple(g, (t, r))
    assert commuting_tuple(g, (r, g.mul(r, r))) == (r, g.mul(r, r))


def test_tuple_z_type_central_tuple(corpus):
    g = corpus["q8"]
    registry = TypeRegistry(g)
    minus_one = next(
        i for i in range(1, g.order) if centralizer(g, (i,)).order == g.order
    )
    assert tuple_z_type(g, (minus_one,), registry) == 0
    assert tuple_z_type(g, (), registry) == 0
    assert len(registry) == 1


def test_tuple_z_type_q8_i(corpus):
    g = corpus["q8"]
    registry = TypeRegistry(g)
    tid = tuple_z_type(g, (1,), registry)
    assert tid == 1
    assert registry.entry(tid).centralizer.order == 4


def test_tuple_z_type_gl3_regular_unipotent(corpus):
    g = corpus["gl3_f2"]
    f2 = field_create(2, 1)
    u = g.element_index(matrix_element(f2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    # independent scan: centralizer order is q^2 = 4
    by_scan = sum(1 for x in range(g.order) if g.commute(x, u))
    assert by_scan == 4
    registry = TypeRegistry(g)
    tid = tuple_z_type(g, (u,), registry)
    entry = registry.entry(tid)
    assert entry.centralizer.order == 4
    assert entry.centralizer.is_abelian


def test_z_type_shared_across_tuple_lengths(corpus):
    # a tuple and a longer tuple with the same centralizer share a type
    g = corpus["q8"]
    registry = TypeRegistry(g)
    minus_one = next(
        i for i in range(1, g.order) if centralizer(g, (i,)).order == g.order
    )
    t1 = tuple_z_type(g, (1,), registry)
    t2 = tuple_z_type(g, (1, minus_one, 1), registry)
    assert t1 == t2

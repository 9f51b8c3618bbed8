import random

import pytest

from commprob import conjugacy, groups
from commprob.branching import TypeRegistry, branching_matrix, verify_structure
from commprob.conjugacy import (
    centralizer,
    commuting_tuple,
    conjugacy_classes,
    subgroup_conjugate,
    z_classes,
)
from commprob.errors import ElementNotInGroupError, NotCommutingError, PreconditionError
from commprob.fields import field_create
from commprob.groups import (
    FiniteGroup,
    GroupElement,
    Subgroup,
    center,
    group_generate,
    matrix_element,
    permutation_element,
)
from commprob.groupspec import corpus_group, corpus_spec

from conftest import gl2, recording, sl2, subgroup_closure, symmetric_group


def element_of_order(group, n):
    """The least element index generating a cyclic subgroup of order n."""
    return next(i for i in range(group.order) if len(subgroup_closure(group, [i])) == n)


def test_centralizer_of_identity_is_group(corpus):
    g = corpus["s3"]
    assert centralizer(g, (0,)).order == g.order
    assert centralizer(g, ()).order == g.order  # empty tuple


def test_centralizer_of_transposition(corpus):
    g = corpus["s3"]
    t = element_of_order(g, 2)
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
        a, b, c, d = g.element(m).data
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
    cyclic = [Subgroup(g, subgroup_closure(g, [t])) for t in range(g.order)]
    two_subgroups = [sub for sub in cyclic if sub.order == 2]
    witness = subgroup_conjugate(g, two_subgroups[0], two_subgroups[1])
    assert witness is not None
    conjugated = frozenset(g.conj(witness, x) for x in two_subgroups[0].members)
    assert conjugated == two_subgroups[1].member_set


def test_transporter_search_skips_subgroups_in_different_classes(corpus):
    # <(1 2)> and <(1 2)(3 4)> have the same element orders, but their
    # involutions lie in different G-classes, so no candidate is tried
    g = corpus["s4"]
    t = g.element_index(permutation_element([1, 0, 2, 3]))
    v = g.element_index(permutation_element([1, 0, 3, 2]))
    a, b = Subgroup(g, [0, t]), Subgroup(g, [0, v])
    tried = []
    assert subgroup_conjugate(g, a, b, transporter=recording(range(g.order), tried)) is None
    assert tried == []


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
    cyclic4 = Subgroup(g, subgroup_closure(g, [element_of_order(g, 4)]))
    zcs = z_classes(g, cyclic4)
    assert len(zcs) == 1
    assert len(zcs[0].class_ids) == cyclic4.order  # singleton classes
    assert zcs[0].centralizer == cyclic4


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
    t = element_of_order(g, 2)
    r = element_of_order(g, 3)
    with pytest.raises(NotCommutingError):
        commuting_tuple(g, (t, r))
    assert commuting_tuple(g, (r, g.mul(r, r))) == (r, g.mul(r, r))


@pytest.mark.parametrize("indices", [[0.0, 1.9], [1.0], [True], [0, False]])
def test_commuting_tuple_refuses_floats_and_bools(corpus, indices):
    # int() would truncate [0.0, 1.9] to the commuting tuple (0, 1)
    with pytest.raises(ValueError, match="not an int"):
        commuting_tuple(corpus["s4"], indices)


# The z-type of a tuple: the type id its centralizer gets in the registry


def test_tuple_z_type_central_tuple(corpus):
    g = corpus["q8"]
    registry = TypeRegistry(g)
    minus_one = next(
        i for i in range(1, g.order) if centralizer(g, (i,)).order == g.order
    )
    for tup in ((minus_one,), ()):
        t = commuting_tuple(g, tup)
        assert registry.lookup_or_register(centralizer(g, t), t) == (0, False)
    assert len(registry) == 1


def test_tuple_z_type_q8_i(corpus):
    g = corpus["q8"]
    registry = TypeRegistry(g)
    t = commuting_tuple(g, (1,))
    tid, _ = registry.lookup_or_register(centralizer(g, t), t)
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
    t = commuting_tuple(g, (u,))
    tid, _ = registry.lookup_or_register(centralizer(g, t), t)
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
    t1 = commuting_tuple(g, (1,))
    t2 = commuting_tuple(g, (1, minus_one, 1))
    tid1, new1 = registry.lookup_or_register(centralizer(g, t1), t1)
    tid2, new2 = registry.lookup_or_register(centralizer(g, t2), t2)
    assert tid1 == tid2 and (new1, new2) == (True, False)


# Reference definitions: the plain scans over every member that the
# orbit-stabilizer code replaced, kept here as its oracle.


def reference_classes(group, h):
    """(representative, sorted members) per class, conjugating by all of H."""
    seen, classes = set(), []
    for x in h.members:
        if x in seen:
            continue
        orbit = {group.conj(g, x) for g in h.members}
        seen |= orbit
        classes.append((x, tuple(sorted(orbit))))
    return classes


def reference_centralizer(group, tup, universe):
    return tuple(z for z in universe if all(group.commute(z, g) for g in tup))


def reference_transporter(group, a, b, candidates):
    """First candidate g with g A g^-1 = B, testing every member of A."""
    if a.order != b.order:
        return None
    for g in candidates:
        if frozenset(group.conj(g, x) for x in a.members) == b.member_set:
            return g
    return None


def registered_subgroups(corpus):
    """(group, registry, type id) for every registered type of every corpus
    group; type 0's centralizer is the whole group."""
    for group in corpus.values():
        _, registry = branching_matrix(group)
        for tid in range(len(registry)):
            yield group, registry, tid


def test_classes_and_centralizers_match_definition(corpus):
    for group, registry, tid in registered_subgroups(corpus):
        h = registry.entry(tid).centralizer
        got = [(c.representative, c.members) for c in conjugacy_classes(group, within=h).classes]
        assert got == reference_classes(group, h), (group, tid)
        for x in h.members:
            cent = centralizer(group, (x,), within=h)
            assert cent.members == reference_centralizer(group, (x,), h.members), (group, tid, x)
    for group in corpus.values():
        assert conjugacy_classes(group) == conjugacy_classes(group, within=Subgroup.whole(group))


def test_centralizer_of_type_representative_matches_definition(corpus):
    for group, registry, tid in registered_subgroups(corpus):
        entry = registry.entry(tid)
        cent = centralizer(group, entry.representative)
        assert cent.members == reference_centralizer(group, entry.representative, range(group.order))
        assert cent == entry.centralizer


@pytest.mark.parametrize("name", ["s4", "gl2_f3", "s5"])
def test_subgroup_conjugate_matches_all_members_scan(corpus, name):
    group = group_generate(symmetric_group(5)) if name == "s5" else corpus[name]
    _, registry = branching_matrix(group)
    cents = [entry.centralizer for entry in registry.types]
    # conjugates of the registered centralizers, so that witnesses exist
    cents += [
        Subgroup(group, [group.conj(g, x) for x in c.members]) for c in cents for g in (1, 2)
    ]
    backwards = range(group.order - 1, -1, -1)
    for a in cents:
        for b in cents:
            for candidates in (range(group.order), backwards):
                expected = reference_transporter(group, a, b, candidates)
                got = subgroup_conjugate(group, a, b, transporter=candidates)
                assert got == expected


def reference_z_grouping(group, h):
    """z-classes as (class ids, centralizer, representative): one centralizer
    per class, each placed with the first earlier z-class whose centralizer
    an element of H conjugates onto it."""
    grouped, cents = [], []
    classes = conjugacy_classes(group, within=h).classes
    for cid, cls in enumerate(classes):
        cent = centralizer(group, (cls.representative,), within=h)
        for ids, existing in zip(grouped, cents):
            if subgroup_conjugate(group, existing, cent, transporter=h.members) is not None:
                ids.append(cid)
                break
        else:
            grouped.append([cid])
            cents.append(cent)
    return [(tuple(ids), c, classes[ids[0]].representative) for ids, c in zip(grouped, cents)]


@pytest.fixture(scope="module")
def type_centralizers(corpus):
    """(group, H) for every registered type of the corpus groups, S5,
    GL2(F5) and SL2(F7)."""
    groups = list(corpus.values()) + [group_generate(symmetric_group(5)), gl2(5), sl2(7)]
    return [
        (group, entry.centralizer)
        for group in groups
        for entry in branching_matrix(group)[1].types
    ]


def test_z_classes_match_the_transporter_placement(type_centralizers):
    for group, h in type_centralizers:
        got = [
            (z.class_ids, z.centralizer, z.representative) for z in z_classes(group, h)
        ]
        expected = reference_z_grouping(group, h)
        assert got == expected, (group, h)
        assert [z[1].generators for z in got] == [z[1].generators for z in expected]


def test_z_classes_open_one_centralizer_per_z_class_and_search_no_transporter(
    type_centralizers, monkeypatch
):
    calls = {"centralizer": 0, "subgroup_conjugate": 0, "center": 0}
    spied = ((conjugacy, "centralizer"), (conjugacy, "subgroup_conjugate"), (groups, "center"))
    for module, name in spied:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for group, h in type_centralizers:
        for name in calls:
            calls[name] = 0
        zcs = z_classes(group, h)
        assert calls["subgroup_conjugate"] == 0, (group, h)
        assert calls["centralizer"] == len(zcs) - 1, (group, h)  # the central one is H
        assert calls["center"] == 0, (group, h)


@pytest.mark.parametrize("name", ["s4", "gl2_f3", "gl3_f2"])
def test_an_openers_stabilizer_stops_before_walking_its_class(monkeypatch, name):
    # with the partition cached, the orbit length of a class representative
    # is its class size, and the walk stops once the stabilizer is complete;
    # walking every class to the end costs |G| conjugations per generator
    group = corpus_group(name)  # fresh: nothing cached yet
    reps = [c.representative for c in conjugacy_classes(group).classes]
    calls = []
    conj = FiniteGroup.conj

    def counted(group, g, x):
        calls.append(1)
        return conj(group, g, x)

    monkeypatch.setattr(FiniteGroup, "conj", counted)
    cents = [centralizer(group, (r,)) for r in reps]
    assert len(calls) < group.order
    monkeypatch.undo()
    for r, cent in zip(reps, cents):
        assert cent.members == reference_centralizer(group, (r,), range(group.order))


def test_early_stopped_and_full_walks_give_the_same_stabilizer(corpus):
    # H's cached partition stops the walk early; a fresh copy of H has no
    # partition, so its walk runs to the end before the closure
    for group, registry, tid in registered_subgroups(corpus):
        h = registry.entry(tid).centralizer
        fresh = Subgroup(group, h.members, h.generators)
        for cls in conjugacy_classes(group, within=h).classes:
            x = cls.representative
            early = centralizer(group, (x,), within=h)
            full = centralizer(group, (x,), within=fresh)
            assert fresh._classes is None
            assert early.members == full.members == reference_centralizer(group, (x,), h.members)
            assert early.generators == full.generators, (group, tid, x)


def test_generators_span_the_members(corpus):
    rng = random.Random(5)
    for group, registry, tid in registered_subgroups(corpus):
        sub = registry.entry(tid).centralizer
        assert subgroup_closure(group, sub.generators) == sub.member_set
        assert set(sub.generators) <= sub.member_set and 0 not in sub.generators
    for group in corpus.values():
        assert subgroup_closure(group, Subgroup.whole(group).generators) == frozenset(range(group.order))
        for _ in range(6):
            seed = [rng.randrange(group.order) for _ in range(2)]
            sub = Subgroup(group, subgroup_closure(group, seed))  # greedy generators
            gens = sub.generators
            assert subgroup_closure(group, gens) == sub.member_set
            assert list(gens) == sorted(gens) and 0 not in gens


def test_registry_key_is_a_conjugation_invariant(corpus):
    for name in ("s4", "gl2_f3", "gl3_f2"):
        group = corpus[name]
        _, registry = branching_matrix(group)
        for tid, entry in enumerate(registry.types):
            key = entry.centralizer.fingerprint
            for g in range(0, group.order, 7):
                conj = Subgroup(group, [group.conj(g, x) for x in entry.centralizer.members])
                assert conj.fingerprint == key
                assert registry.lookup(conj) == tid


@pytest.mark.parametrize("name", ["s4", "gl2_f3", "gl3_f2"])
def test_matrix_and_types_unchanged_under_conjugated_generators(corpus, name):
    gens = corpus_spec(name).generator_elements()
    carrier = gens[0].carrier
    h = carrier.mul(gens[0].data, carrier.mul(gens[-1].data, gens[0].data))
    h_inv = carrier.inv(h)
    conjugated = group_generate(
        [GroupElement(carrier, carrier.mul(carrier.mul(h, g.data), h_inv)) for g in gens]
    )
    assert conjugated.elements != corpus[name].elements
    matrix, registry = branching_matrix(conjugated)
    expected_matrix, expected_registry = branching_matrix(corpus[name])
    assert matrix == expected_matrix
    assert [t.representative for t in registry.types] == [
        t.representative for t in expected_registry.types
    ]
    assert [t.centralizer.members for t in registry.types] == [
        t.centralizer.members for t in expected_registry.types
    ]


def test_classes_of_s7_cost_less_than_a_scan_by_every_element(monkeypatch):
    # conjugating each class representative by all of G would make
    # k(G) * |G| = 15 * 5040 = 75,600 conjugations, two products each; a
    # fresh group, since the whole group's classes are cached on it
    s7 = group_generate(symmetric_group(7))
    s7.inv(0)
    calls = []
    mul = FiniteGroup.mul

    def counted(group, a, b):
        calls.append(1)
        return mul(group, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    assert conjugacy_classes(s7).count == 15
    assert len(calls) < 15 * 5040


@pytest.mark.parametrize("name", ["s4", "gl3_f2"])
def test_whole_group_classes_computed_once(monkeypatch, name):
    # z_classes of type 0, the fingerprints the registry's lookups compare
    # and both class checks of verify_structure share one partition of the
    # whole group
    group = corpus_group(name)  # fresh: nothing cached yet
    made = []
    partition = conjugacy.ClassPartition

    def counted(classes, class_of):
        made.append(sum(len(c.members) for c in classes))
        return partition(classes, class_of)

    monkeypatch.setattr(conjugacy, "ClassPartition", counted)
    matrix, registry = branching_matrix(group)
    assert verify_structure(matrix, registry).ok
    assert made.count(group.order) == 1
    assert conjugacy_classes(group) is conjugacy_classes(group, within=Subgroup.whole(group))
    assert made.count(group.order) == 1


def test_subgroups_of_another_group_are_refused(corpus):
    # a partition made with another group's products would stay cached on
    # the subgroup, so the subgroup must lie in the group that acts
    group = corpus["s4"]
    # another group, and another build of the same group: equal elements
    # but not the same object
    for other in (corpus_group("d4"), corpus_group("s4")):
        foreign = centralizer(other, (1,))
        calls = (
            lambda: conjugacy_classes(group, within=foreign),
            lambda: centralizer(group, (1,), within=foreign),
            lambda: z_classes(group, foreign),
            lambda: center(group, within=foreign),
        )
        for call in calls:
            with pytest.raises(PreconditionError) as info:
                call()
            assert repr(foreign) in str(info.value) and repr(group) in str(info.value)
        assert foreign._classes is None

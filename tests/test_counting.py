import functools
import inspect
import math
import sys
import time
from fractions import Fraction

import pytest

from commprob import branching, cli, conjugacy, counting
from commprob.branching import branching_matrix, verify_structure
from commprob.counting import (
    ORACLE_CAP,
    FamilySpec,
    asymptotic_ratio,
    class_count,
    class_count_form,
    class_count_sequence,
    commuting_count,
    commuting_tuple_total,
    cp,
    family_asymptote,
    family_base,
    family_max_abelian,
    family_order,
    lie_type_estimate,
    max_abelian,
    oracle_class_count,
    oracle_class_counts,
)
from commprob.conjugacy import conjugacy_classes
from commprob.errors import CapExceededError, CertificateError, InvalidFamilyError
from commprob.fields import field_create
from commprob.groups import FiniteGroup, Subgroup, group_generate, matrix_element, permutation_element
from commprob.groupspec import corpus_group
from commprob.symbolic import degree_windows, first_column_degree, fixture

from conftest import (
    bruteforce_abelian_subgroups,
    bruteforce_max_abelian_order,
    gl2,
    gl3_generators,
    naive_orbit_count,
    sl2,
    symmetric_group,
)
from test_groups import conjugated_gl2_f3


def test_class_count_small_values(corpus):
    s3 = corpus["s3"]
    assert class_count(s3, 0) == 1
    assert class_count(s3, 1) == 3
    assert class_count(s3, 2) == 8


def test_negative_d_is_refused_by_count_and_sequence(corpus):
    for count in (class_count, class_count_sequence):
        with pytest.raises(ValueError, match="d must be >= 0"):
            count(corpus["s3"], -1)


def test_q8_closed_form(corpus):
    # solving the Q8 recurrence gives c(d) = (3/2) 4^d - 2^(d-1)
    q8 = corpus["q8"]
    for d in range(1, 7):
        assert class_count(q8, d) == 3 * 4**d // 2 - 2 ** (d - 1)


def test_s3_closed_form(corpus):
    # eigenvalues of the S3 matrix are 1, 2, 3: c(d) = -1/2 + 2^d + 3^d/2
    s3 = corpus["s3"]
    for d in range(0, 21):
        expected = Fraction(-1, 2) + 2**d + Fraction(3**d, 2)
        assert class_count(s3, d) == expected


# --- the certified exponential sum c(d) = sum of kappa_z * z^d -------------


def test_class_count_form_matches_the_walk_to_d_200(corpus, large_groups):
    groups = dict(corpus, s7=large_groups["s7"])
    for name, group in groups.items():
        walk = class_count_sequence(group, 200)
        assert [class_count(group, d) for d in range(201)] == walk, name
        form = class_count_form(group)
        diagonal = {row[i] for i, row in enumerate(branching_matrix(group)[0].entries)}
        assert sorted(form, reverse=True) == list(form) == sorted(diagonal, reverse=True), name
        assert [sum(k * z**d for z, k in form.items()) for d in range(4)] == walk[:4], name


def test_class_count_at_d_100000_matches_the_matrix_power(corpus):
    group = corpus["gl2_f3"]
    d = 10**5
    column_sum = sum(row[0] for row in branching_matrix(group)[0].power(d))
    assert class_count(group, d) == column_sum
    assert commuting_count(group, d + 1) == group.order * column_sum


def test_single_counts_walk_no_further_than_the_form_needs(monkeypatch):
    group = corpus_group("gl3_f2")  # fresh: no form cached on it
    matrix, _ = branching_matrix(group)
    steps = []
    walk = branching.BranchingMatrix.first_column_sums

    def recorded(self, dmax):
        steps.append(dmax)
        return walk(self, dmax)

    monkeypatch.setattr(branching.BranchingMatrix, "first_column_sums", recorded)
    values = [class_count(group, 1000), commuting_count(group, 900), cp(group, 800)]
    assert steps == [len(class_count_form(group)) - 1] and steps[0] < matrix.size
    monkeypatch.undo()
    walk = class_count_sequence(group, 1000)
    assert values == [walk[1000], 168 * walk[899], Fraction(168 * walk[799], 168**800)]


def test_certificate_refuses_a_jordan_block():
    with pytest.raises(CertificateError, match="count-form certificate failed"):
        counting._certified_form(branching.BranchingMatrix([[2, 0], [1, 2]]))
    # equal diagonal values off every path are fine, and so are distinct ones
    diagonal = branching.BranchingMatrix([[2, 0], [0, 2]])
    assert counting._certified_form(diagonal) == ((2,), (1,), 1)
    triangular = branching.BranchingMatrix([[2, 0], [1, 3]])  # c(d) = 3^d
    assert counting._certified_form(triangular) == ((3, 2), (1, 0), 1)


def test_a_matrix_failing_the_certificate_gets_no_count():
    # no fallback: a group whose cached matrix fails the check has no c(d)
    group = group_generate(symmetric_group(3))
    registry = branching_matrix(group)[1]
    group._branching = (branching.BranchingMatrix([[2, 0], [1, 2]]), registry)
    for count, d in ((class_count, 3), (cp, 2), (commuting_count, 2)):
        with pytest.raises(CertificateError):
            count(group, d)
    with pytest.raises(CertificateError):
        class_count_form(group)


def test_class_count_form_of_the_trivial_group():
    trivial = group_generate([permutation_element([0])])
    assert class_count_form(trivial) == {1: 1}
    assert [class_count(trivial, d) for d in (0, 1, 10**6)] == [1, 1, 1]
    assert cp(trivial, 10**6) == 1
    with pytest.raises(ValueError, match="d must be >= 0"):
        class_count(trivial, -1)


def test_single_counts_refuse_a_non_int_d(corpus):
    q8 = corpus["q8"]
    for call, d in ((class_count, 2.0), (commuting_count, 3.0), (cp, 3.0)):
        with pytest.raises(ValueError, match="d must be an int"):
            call(q8, d)
    assert class_count(q8, 2) == 22


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda q8, gl2: commuting_count(q8, 3.0), "d must be an int, got 3.0"),
        (lambda q8, gl2: cp(q8, 3.0), "d must be an int, got 3.0"),
        (lambda q8, gl2: class_count(q8, True), "d must be an int, got True"),
        (lambda q8, gl2: first_column_degree(gl2, True), "d must be an int, got True"),
        (lambda q8, gl2: class_count_sequence(q8, True), "d must be an int, got True"),
        (lambda q8, gl2: class_count_sequence(q8, 2.0), "d must be an int, got 2.0"),
        (lambda q8, gl2: oracle_class_counts(q8, 2.0), "d must be an int, got 2.0"),
        (lambda q8, gl2: commuting_tuple_total(q8, 2.0), "d must be an int, got 2.0"),
        (lambda q8, gl2: asymptotic_ratio(q8, 4.0), "dmax must be an int, got 4.0"),
        (lambda q8, gl2: degree_windows(gl2, 3.0), "d must be an int, got 3.0"),
        (lambda q8, gl2: conjugacy.centralizer(q8, (1.0,)), "element index 1.0 is not an int"),
    ],
    ids=[
        "commuting_count", "cp", "class_count", "first_column_degree",
        "class_count_sequence_bool", "class_count_sequence", "oracle_class_counts",
        "commuting_tuple_total", "asymptotic_ratio", "degree_windows", "centralizer",
    ],
)
def test_count_entry_points_refuse_floats_and_bools(corpus, call, message):
    # each refusal names the caller's own argument, and no TypeError escapes
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(corpus["q8"], fixture("gl2"))


@pytest.mark.parametrize(
    "name,kappa",
    [("s4", Fraction(7, 6)), ("q8", Fraction(3, 2)), ("gl2_f3", Fraction(1, 2)),
     ("gl3_f2", Fraction(1, 3))],
)
def test_leading_coefficient_is_the_normalizer_sum(corpus, name, kappa):
    # sum of 1/[N_G(A):A] over the conjugacy classes of abelian subgroups A
    # of the largest order a, with the subgroups and normalizers found by
    # brute force
    group = corpus[name]
    abelian = bruteforce_abelian_subgroups(group)
    a = max(len(sub) for sub in abelian)
    largest = {sub for sub in abelian if len(sub) == a}
    total = Fraction(0)
    while largest:
        sub = largest.pop()
        images = [frozenset(group.conj(g, x) for x in sub) for g in range(group.order)]
        largest -= set(images)
        normalizer = images.count(sub)
        total += Fraction(a, normalizer)
    a_form, leading = next(iter(class_count_form(group).items()))
    assert (a_form, leading) == (a, total) == (a, kappa)


def test_oracle_trivial_group():
    trivial = group_generate([permutation_element([0])])
    for d in range(1, 5):
        assert oracle_class_count(trivial, d) == 1


def test_oracle_examples(corpus):
    assert oracle_class_count(corpus["s3"], 2) == 8
    assert oracle_class_count(corpus["q8"], 2) == 22


def test_oracle_matches_naive_enumeration(corpus):
    # the recursion against literal tuple enumeration plus orbit collection
    for group in corpus.values():
        if group.order > 24:
            continue
        for d in (1, 2, 3):
            total, orbits = naive_orbit_count(group, d)
            assert commuting_tuple_total(group, d) == total
            assert oracle_class_count(group, d) == orbits
            assert class_count(group, d) == orbits


def reference_tuple_count(group, members, k, memo):
    """|C_k| of the subgroup with these members, rebuilding each centralizer
    by scanning the members: the member-tuple recursion the bitset oracle
    replaced, kept as its reference."""
    if k == 1:
        return len(members)
    key = (members, k)
    if key not in memo:
        memo[key] = sum(
            reference_tuple_count(
                group, tuple(x for x in members if group.commute(x, g)), k - 1, memo
            )
            for g in members
        )
    return memo[key]


def test_oracle_matches_member_tuple_recursion(corpus):
    for name, group in corpus.items():
        memo = {}
        whole = tuple(range(group.order))
        for d in range(1, 5):
            tuples = reference_tuple_count(group, whole, d, memo)
            assert commuting_tuple_total(group, d) == tuples, (name, d)
            orbits = reference_tuple_count(group, whole, d + 1, memo) // group.order
            assert oracle_class_count(group, d) == orbits, (name, d)


def test_oracle_past_the_default_cap():
    s6 = group_generate(symmetric_group(6), name="S6")
    with pytest.raises(CapExceededError):
        oracle_class_count(s6, 4)
    assert oracle_class_count(s6, 4, cap=720) == class_count(s6, 4)


def test_oracle_above_the_table_limit(large_groups):
    group = large_groups["sl2_f13"]  # 2184 elements
    assert oracle_class_counts(group, 3, cap=2184) == class_count_sequence(group, 3)[1:]


def test_oracle_makes_at_most_order_squared_products(monkeypatch):
    # one commutation test per pair of elements; scanning the members of
    # every centralizer again would make 2,884,800 products here
    group = gl2(5)
    expected = class_count(group, 6)
    calls = []
    mul = FiniteGroup.mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    assert oracle_class_count(group, 6) == expected
    assert len(calls) <= group.order**2


def test_oracle_rows_from_one_pass_without_the_matrix(corpus, monkeypatch, capsys):
    # every row of the oracle, and of `cpd --oracle`, from one pass, with the
    # classes and the branching matrix out of reach of the oracle
    expected = {name: class_count_sequence(group, 6)[1:] for name, group in corpus.items()}
    passes = []
    totals = counting._commuting_tuple_totals

    def counted(group, kmax, cap):
        passes.append(kmax)
        return totals(group, kmax, cap)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the matrix machinery")

    monkeypatch.setattr(counting, "_commuting_tuple_totals", counted)
    for module in (branching, conjugacy, counting, cli):
        for attr in ("conjugacy_classes", "branching_matrix"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for name in corpus:
        fresh = corpus_group(name)  # nothing cached on it
        assert oracle_class_counts(fresh, 6) == expected[name], name
        assert oracle_class_count(fresh, 1) == expected[name][0], name
        assert oracle_class_count(fresh, 6) == expected[name][5], name
    assert passes == [7, 2, 7] * len(corpus)
    monkeypatch.undo()
    passes.clear()
    monkeypatch.setattr(counting, "_commuting_tuple_totals", counted)
    assert cli.run(["cpd", "gl3_f2", "--d", "8", "--oracle"]) == 0
    assert passes == [9]
    assert capsys.readouterr().out.count("MATCH") == 8


def reference_masks(group):
    """comm[g] as a bitmask of the elements commuting with g, by testing
    every pair of elements: the pair loop that the class-conjugated masks
    replaced, kept as their reference."""
    n, mul = group.order, group.mul
    comm = [1 | 1 << g for g in range(n)]
    comm[0] = (1 << n) - 1
    for g in range(2, n):
        for x in range(1, g):
            if mul(x, g) == mul(g, x):
                comm[g] |= 1 << x
                comm[x] |= 1 << g
    return comm


def test_commutation_masks_match_the_pair_loop(corpus, large_groups):
    groups = dict(corpus)
    groups["gl2_f3 conjugated"] = conjugated_gl2_f3()
    groups["S6"] = group_generate(symmetric_group(6), name="S6")
    groups["GL2(F7)"] = gl2(7)
    groups["SL2(F13)"] = large_groups["sl2_f13"]
    # cyclic of order 100 from the primitive root 2: every element is central
    groups["GL1(F101)"] = group_generate([matrix_element(field_create(101, 1), [[2]])])
    for name, group in groups.items():
        assert counting._commutation_masks(group) == reference_masks(group), name


def centralizer_types(group, comm):
    """The number of orbits of G, acting by conjugation, on the distinct
    centralizers of non-central elements, from their masks."""
    n = group.order
    masks = set(comm) - {(1 << n) - 1}
    types = 0
    while masks:
        orbit = [masks.pop()]
        for mask in orbit:  # also visits the conjugates appended below
            for s in group.generators:
                image = sum(1 << group.conj(s, x) for x in range(n) if mask >> x & 1)
                if image in masks:
                    masks.remove(image)
                    orbit.append(image)
        types += 1
    return types


@pytest.mark.parametrize("make", [lambda: gl2(7), lambda: sl2(13)], ids=["GL2(F7)", "SL2(F13)"])
def test_commutation_masks_pack_one_mask_per_centralizer(monkeypatch, make):
    # one packed mask per distinct centralizer, and one closure per
    # conjugacy class of centralizers, fewer than the non-central classes;
    # a mask per element and a closure per class made 2,010 packs and 42
    # closures on GL2(F7), 2,182 and 15 on SL2(F13); here 3 closures each
    group = make()  # fresh: nothing cached on it
    packs, closures = [], []
    bitmask, close = counting._bitmask, counting.close_subgroup

    def counted_pack(members, n):
        packs.append(1)
        return bitmask(members, n)

    def counted_close(*args):
        closures.append(1)
        return close(*args)

    monkeypatch.setattr(counting, "_bitmask", counted_pack)
    monkeypatch.setattr(counting, "close_subgroup", counted_close)
    comm = counting._commutation_masks(group)
    monkeypatch.undo()
    assert len(packs) == len(set(comm)) - 1
    noncentral_classes = conjugacy_classes(group).count - comm.count(comm[0])
    assert len(closures) == centralizer_types(group, comm) < noncentral_classes


@pytest.mark.parametrize(
    "make,cap",
    [(lambda: gl2(5), 500), (lambda: group_generate(symmetric_group(6)), 720)],
    ids=["GL2(F5)", "S6"],
)
def test_oracle_products_fit_the_class_bound(monkeypatch, make, cap):
    # one scan per non-central class plus two products per element and
    # generator for the conjugation permutations
    group = make()  # fresh: nothing cached on it
    calls = []
    mul = FiniteGroup.mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    rows = oracle_class_counts(group, 4, cap=cap)
    monkeypatch.undo()
    assert rows == class_count_sequence(group, 4)[1:]
    k = conjugacy_classes(group).count
    assert 0 < len(calls) <= 2 * group.order * (len(group.generators) + k)


@pytest.mark.parametrize(
    "make",
    [lambda: gl2(5), lambda: sl2(7), lambda: group_generate(symmetric_group(7))],
    ids=["GL2(F5)", "SL2(F7)", "S7"],
)
def test_oracle_products_fit_half_the_order_per_class(monkeypatch, make):
    # each class centralizer C(r) is closed at its known order
    # |G| / |class(r)|, testing no element after it is reached; bounds
    # 5,760 / 1,848 / 37,800, where one scan of the group per non-central
    # class made 9,608 / 3,432 / 69,746
    group = make()  # fresh: nothing cached on it
    calls = []
    mul = FiniteGroup.mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    rows = oracle_class_counts(group, 4, cap=group.order)
    monkeypatch.undo()
    assert rows == class_count_sequence(group, 4)[1:]
    assert 0 < len(calls) <= group.order * conjugacy_classes(group).count // 2


def test_oracle_above_the_old_reach(large_groups):
    s7 = large_groups["s7"]
    assert oracle_class_counts(s7, 3, cap=5040) == class_count_sequence(s7, 3)[1:]
    gl3_f3 = group_generate(gl3_generators(3), name="GL3(F3)")  # 11232 elements
    assert oracle_class_counts(gl3_f3, 3, cap=11232) == class_count_sequence(gl3_f3, 3)[1:]


def test_oracle_on_gl2_f11():
    group = gl2(11)  # 13,200 elements
    rows = oracle_class_counts(group, 6, cap=13200)
    assert rows[:3] == [120, 13400, 1497000]
    assert rows == class_count_sequence(group, 6)[1:]


def test_oracle_on_s7_without_classes_or_matrix(large_groups, monkeypatch):
    expected = class_count_sequence(large_groups["s7"], 3)[1:]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the class or matrix machinery")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "commprob"]:
        for attr in ("conjugacy_classes", "centralizer", "z_classes", "branching_matrix"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    fresh = group_generate(symmetric_group(7), name="S7")
    assert oracle_class_counts(fresh, 3, cap=5040) == expected
    assert Subgroup.whole(fresh)._classes is None and fresh._branching is None


def oracle_round(group):
    """Every oracle entry point: all rows, each row alone, and the totals."""
    rows = oracle_class_counts(group, 6)
    assert [oracle_class_count(group, d) for d in range(1, 7)] == rows
    return rows, [commuting_tuple_total(group, d) for d in range(1, 5)]


def test_oracle_products_are_made_once_per_group(monkeypatch):
    group = gl2(5)  # 480 elements, fresh
    calls = []
    mul = FiniteGroup.mul

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    first = oracle_round(group)
    assert 0 < len(calls) <= group.order**2
    calls.clear()
    assert oracle_round(group) == first
    assert calls == []


def test_oracle_cache_is_per_group_and_independent(monkeypatch):
    fresh = corpus_group("gl3_f2")
    oracle_round(fresh)
    assert fresh._centralizer_dag is not None
    assert fresh._branching is None and Subgroup.whole(fresh)._classes is None
    # the same group with its elements in another order: each copy
    # multiplies its own elements into its own DAG
    plain, conjugated = corpus_group("gl2_f3"), conjugated_gl2_f3()
    assert plain.elements != conjugated.elements
    multiplied = []
    mul = FiniteGroup.mul

    def recorded(self, a, b):
        multiplied.append(self)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", recorded)
    assert oracle_round(plain) == oracle_round(conjugated)
    assert multiplied[0] is plain and multiplied[-1] is conjugated
    assert plain._centralizer_dag is not conjugated._centralizer_dag


def test_oracle_cap(corpus):
    with pytest.raises(CapExceededError):
        oracle_class_count(corpus["gl3_f2"], 2, cap=100)


@pytest.mark.parametrize(
    "oracle,at_one",
    [(oracle_class_counts, [11]), (oracle_class_count, 11), (commuting_tuple_total, 720)],
    ids=["oracle_class_counts", "oracle_class_count", "commuting_tuple_total"],
)
def test_every_oracle_entry_point_refuses_alike(oracle, at_one):
    # d < 1 is refused first, then a bad cap, then a group above the cap,
    # all before the group's DAG
    assert inspect.signature(oracle).parameters["cap"].default == ORACLE_CAP == 500
    s6 = group_generate(symmetric_group(6), name="S6")
    with pytest.raises(ValueError, match=r"^d must be >= 1$"):
        oracle(s6, 0)
    with pytest.raises(CapExceededError, match=r"^group of order 720 exceeds oracle cap 500$"):
        oracle(s6, 2)
    with pytest.raises(CapExceededError, match=r"^group of order 720 exceeds oracle cap 719$"):
        oracle(s6, 2, cap=719)
    # a bad cap is a ValueError naming it, not a TypeError from a
    # comparison, and True is not taken as 1
    for cap, message in ((None, "an int, got None"), ("500", "an int, got '500'"),
                         (True, "an int, got True"), (0, ">= 1")):
        with pytest.raises(ValueError, match=f"^cap must be {message}$"):
            oracle(s6, 2, cap=cap)
    assert s6._centralizer_dag is None
    assert oracle(s6, 1, cap=720) == at_one  # S6 has 11 classes


def test_commuting_count_examples(corpus):
    assert commuting_count(corpus["s3"], 2) == 18
    assert commuting_count(corpus["q8"], 2) == 40
    cyclic = group_generate([permutation_element([1, 2, 0])])
    for d in range(1, 6):
        assert commuting_count(cyclic, d) == 3**d


def test_pair_count_is_centralizer_sum(corpus):
    # commuting pairs are counted by summing centralizer orders
    from commprob.conjugacy import centralizer

    for group in corpus.values():
        by_sum = sum(centralizer(group, (g,)).order for g in range(group.order))
        assert commuting_count(group, 2) == by_sum


def test_cp_examples(corpus):
    for group in corpus.values():
        assert cp(group, 1) == 1
    assert cp(corpus["s3"], 2) == Fraction(1, 2)
    assert cp(corpus["q8"], 2) == Fraction(5, 8)


def test_cp_monotone_and_bounded(corpus):
    for group in corpus.values():
        values = [cp(group, d) for d in range(1, 6)]
        assert all(0 < v <= 1 for v in values)
        assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_max_abelian_examples(corpus):
    a, witness = max_abelian(corpus["s3"])
    assert a == 3 and witness.order == 3 and witness.is_abelian
    assert max_abelian(corpus["q8"])[0] == 4
    assert max_abelian(corpus["gl2_f3"])[0] == 8  # q^2 - 1 at q = 3


def test_max_entry_is_bruteforce_max_abelian(corpus):
    for name, group in corpus.items():
        matrix, _ = branching_matrix(group)
        expected = bruteforce_max_abelian_order(group)
        assert matrix.max_entry() == expected, name
        assert max_abelian(group)[0] == expected, name


def test_ratio_q8_exact(corpus):
    report = asymptotic_ratio(corpus["q8"], 20)
    for d, ratio in enumerate(report.ratios, start=1):
        assert ratio == Fraction(3, 2) - Fraction(1, 2 ** (d + 1))
    assert report.last_delta == Fraction(1, 2**21)
    assert report.max_abelian_order == 4
    assert list(report.counts) == class_count_sequence(corpus["q8"], 20)


def test_ratio_abelian_is_constant():
    cyclic = group_generate([permutation_element([1, 2, 3, 0])])
    report = asymptotic_ratio(cyclic, 10)
    assert all(r == 1 for r in report.ratios)
    assert report.last_delta == 0


def test_ratio_s3_matches_closed_form(corpus):
    report = asymptotic_ratio(corpus["s3"], 20)
    for d, ratio in enumerate(report.ratios, start=1):
        expected = (Fraction(-1, 2) + 2**d + Fraction(3**d, 2)) / 3**d
        assert ratio == expected


def _leading_digits(value: Fraction, count: int) -> str:
    scaled = value.numerator * 10**30 // value.denominator
    return str(scaled)[:count]


def test_ratio_cauchy_decreasing_and_stabilising(corpus):
    for name, group in corpus.items():
        matrix, _ = branching_matrix(group)
        report = asymptotic_ratio(group, 50)
        deltas = [
            abs(report.ratios[i + 1] - report.ratios[i])
            for i in range(len(report.ratios) - 1)
        ]
        for d in range(matrix.size, len(deltas) - 1):
            assert deltas[d + 1] <= deltas[d], (name, d)
        assert _leading_digits(report.ratios[-1], 6) == _leading_digits(
            report.ratios[-2], 6
        ), name


# --- classical families ---------------------------------------------------


def test_family_base_examples():
    assert family_base("GL", 2, 3) == Fraction(1, 6)
    for q in (3, 5, 7, 9):
        assert family_base("GL", 3, q) == Fraction(1, q**3 * (q**2 - 1) * (q - 1))
        assert family_base("Sp", 1, q) == Fraction(2, q**2 - 1)
        assert family_base("U", 3, q) == Fraction(
            1, q**3 * (q**2 - q + 1) * (q - 1)
        )


def test_family_bases_match_displayed_forms():
    # denominators written exactly as displayed for the classical families
    def products(q, lo, hi, sign=False):
        out = 1
        for i in range(lo, hi + 1):
            out *= q**i - ((-1) ** i if sign else 1)
        return out

    for q in (3, 5, 7, 9):
        assert family_base("GL", 2, q) == Fraction(1, q * (q - 1))
        assert family_base("GL", 4, q) == Fraction(1, q**2 * products(q, 2, 4))
        assert family_base("GL", 5, q) == Fraction(1, q**4 * products(q, 2, 5))
        assert family_base("U", 4, q) == Fraction(1, q**2 * products(q, 2, 4, sign=True))
        assert family_base("U", 5, q) == Fraction(1, q**4 * products(q, 2, 5, sign=True))
        assert family_base("Sp", 2, q) == Fraction(
            2, q * (q**2 - 1) * (q**4 - 1)
        )
        assert family_base("O", 2, q) == Fraction(
            1, q * (q**2 - 1) * (q**4 - 1)
        )


def test_gl_u_duality():
    for q in (3, 5, 7, 9):
        for n in (4, 5, 6):
            assert abs(family_base("GL", n, -q)) == family_base("U", n, q)


def test_family_a_matches_generated_groups(corpus):
    for name, family, size, q in (
        ("gl2_f2", "GL", 2, 2),
        ("gl2_f3", "GL", 2, 3),
        ("gl3_f2", "GL", 3, 2),
    ):
        assert family_max_abelian(family, size, q) == max_abelian(corpus[name])[0]


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_sp2_formulas_match_sl2(large_groups, q):
    # Sp2(F_q) = SL2(F_q); its largest abelian centralizer is +-1 times the
    # unipotent radical, of order 2q
    group = large_groups["sl2_f13"] if q == 13 else sl2(q)
    assert family_order("Sp", 1, q) == group.order
    assert family_max_abelian("Sp", 1, q) == max_abelian(group)[0] == 2 * q


def test_family_asymptote_sp2_q5():
    result = family_asymptote(FamilySpec("Sp", 1, 5))
    assert result.order == 120
    assert result.max_abelian_order == 10
    assert result.base == Fraction(1, 12)


def test_family_order_formulas():
    # |GL_n(q)| = prod (q^n - q^i)
    for n, q in ((2, 2), (2, 3), (3, 2), (4, 3)):
        expected = 1
        for i in range(n):
            expected *= q**n - q**i
        assert family_order("GL", n, q) == expected


def test_family_validation():
    with pytest.raises(InvalidFamilyError):
        family_asymptote(FamilySpec("Sp", 1, 4))  # even q
    with pytest.raises(InvalidFamilyError):
        family_asymptote(FamilySpec("O", 1, 5))  # l too small
    with pytest.raises(InvalidFamilyError):
        family_asymptote(FamilySpec("GL", 1, 5))  # n too small
    with pytest.raises(InvalidFamilyError):
        family_asymptote(FamilySpec("GL", 3, 6))  # not a prime power
    with pytest.raises(InvalidFamilyError):
        family_asymptote(FamilySpec("SL", 3, 5))  # unknown family
    family_asymptote(FamilySpec("GL", 3, 9))  # prime power accepted


def test_lie_type_estimate(corpus):
    assert lie_type_estimate(4, 2, 3, 1) == 3**4
    assert lie_type_estimate(16, 5, 2, 3) == 2 ** (16 + 10)
    estimate = lie_type_estimate(4, 2, 3, 2)
    assert estimate == 729
    exact = commuting_tuple_total(corpus["gl2_f3"], 2)
    ratio = Fraction(exact, estimate)
    assert Fraction(1, 4) <= ratio <= 4


def test_counting_identity_full_budget(corpus):
    start = time.monotonic()
    for name, group in corpus.items():
        dmax = 4 if group.order <= 50 else 3
        for d in range(1, dmax + 1):
            assert class_count(group, d) == oracle_class_count(group, d), (name, d)
    assert time.monotonic() - start < 60


def test_class_count_sequence_consistent(corpus):
    group = corpus["s4"]
    seq = class_count_sequence(group, 6)
    assert seq[0] == 1
    for d in range(7):
        assert seq[d] == class_count(group, d)


# Class numbers against closed forms, most for groups above the 500-element
# default oracle cap, up to GL2(F11) with 13,200 elements.


@pytest.mark.parametrize("n,partitions", [(5, 7), (6, 11), (7, 15)])
def test_class_number_of_symmetric_group_is_partition_count(large_groups, n, partitions):
    group = large_groups["s7"] if n == 7 else group_generate(symmetric_group(n))
    assert conjugacy_classes(group).count == partitions


@pytest.mark.parametrize(
    "p,modulus,q",
    [
        (2, (1, 1, 1), 4),
        (5, None, 5),
        (7, None, 7),
        (2, (1, 0, 1, 1), 8),
        (3, (1, 0, 1), 9),
        (11, None, 11),
    ],
)
def test_class_number_of_gl2_is_q_squared_minus_one(p, modulus, q):
    group = gl2(p, modulus)
    assert group.order == q * (q - 1) * (q * q - 1)
    assert conjugacy_classes(group).count == q * q - 1


def test_class_number_and_structure_of_gl3_f3():
    group = group_generate(gl3_generators(3), name="GL3(F3)")
    assert group.order == family_order("GL", 3, 3)
    assert conjugacy_classes(group).count == 3**3 - 3
    matrix, registry = branching_matrix(group)
    assert verify_structure(matrix, registry).ok
    assert matrix.size == 10


def test_class_numbers_above_both_caps(large_groups):
    assert conjugacy_classes(large_groups["sl2_f13"]).count == 17  # p + 4 for odd p
    assert conjugacy_classes(large_groups["s5xs4"]).count == 7 * 5


@pytest.mark.parametrize("name,k", [("s7", 15), ("sl2_f13", 17)])
def test_counts_and_structure_above_both_caps(large_groups, name, k):
    group = large_groups[name]
    assert group.order > 2048
    assert class_count(group, 1) == k
    assert commuting_count(group, 2) == group.order * k
    assert verify_structure(*branching_matrix(group)).ok


# Wreath products G wr S_n at every d, by the exponential formula
# (J. Bryan and J. Fulman, Ann. Comb. 2, 1998; T. W. Mueller, Adv. Math.
# 153, 2000):
#     sum_n c_{G wr S_n}(d) u^n = exp(c_G(d) * sum_m a_m(Z^(d+1)) u^m / m),
# with a_m(Z^k) the number of index-m subgroups of Z^k.  It uses neither the
# branching matrix nor the oracle, only commuting tuples of the small base G.


def index_subgroup_counts(k, nmax):
    """{m: a_m(Z^k)} for m = 1..nmax, by a_m(Z^k) = sum over e | m of
    e^(k-1) * a_{m/e}(Z^(k-1)), from a_m(Z^0) = [m = 1]."""
    a = {m: int(m == 1) for m in range(1, nmax + 1)}
    for j in range(1, k + 1):
        a = {m: sum(e ** (j - 1) * a[m // e] for e in range(1, m + 1) if m % e == 0) for m in a}
    return a


def wreath_class_count(base_count, n, d):
    """c_{G wr S_n}(d) from c_G(d), by n * f_n = sum_j a_j(Z^(d+1)) * c_G(d) * f_(n-j)."""
    a = index_subgroup_counts(d + 1, n)
    f = [1]
    for size in range(1, n + 1):
        total = sum(a[j] * base_count * f[size - j] for j in range(1, size + 1))
        assert total % size == 0
        f.append(total // size)
    return f[n]


def commuting_tuple_number(group, k):
    """The number of commuting k-tuples of a small group, by recursion on the
    common centralizer of the entries chosen so far."""

    @functools.lru_cache(maxsize=None)
    def count(members, k):
        if k == 0:
            return 1
        return sum(
            count(frozenset(y for y in members if group.commute(x, y)), k - 1) for x in members
        )

    return count(frozenset(range(group.order)), k)


def wreath_generators(base, m, n):
    """G wr S_n on n blocks of m points: G's generators (image arrays on
    0..m-1) on block 0, and an n-cycle and a transposition of the blocks."""

    def on_blocks(block_images):
        return [block_images[p // m] * m + p % m for p in range(n * m)]

    gens = [list(g) + list(range(m, n * m)) for g in base]
    gens.append(on_blocks([(b + 1) % n for b in range(n)]))
    gens.append(on_blocks([1, 0] + list(range(2, n))))
    return [permutation_element(g) for g in gens]


WREATHS = {  # name: (base generators on m points, m, n)
    "S4": ([], 1, 4),
    "S5": ([], 1, 5),
    "S6": ([], 1, 6),
    "S7": ([], 1, 7),
    "C2wrS3": ([[1, 0]], 2, 3),
    "C2wrS4": ([[1, 0]], 2, 4),
    "C3wrS3": ([[1, 2, 0]], 3, 3),
    "S3wrS2": ([[1, 0, 2], [1, 2, 0]], 3, 2),
}


@pytest.mark.parametrize("name", list(WREATHS))
def test_wreath_products_match_the_exponential_formula_at_every_d(name):
    base_gens, m, n = WREATHS[name]
    base = group_generate([permutation_element(g) for g in base_gens or [list(range(m))]])
    wreath = group_generate(wreath_generators(base_gens, m, n))
    assert wreath.order == base.order**n * math.factorial(n)
    expected = [
        wreath_class_count(commuting_tuple_number(base, d + 1) // base.order, n, d)
        for d in range(9)
    ]
    assert [class_count(wreath, d) for d in range(9)] == expected
    if wreath.order <= ORACLE_CAP:
        assert oracle_class_counts(wreath, 8) == expected[1:]

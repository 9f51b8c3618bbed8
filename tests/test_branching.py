from fractions import Fraction

import pytest

from commprob import branching, conjugacy
from commprob.branching import BranchingMatrix, branching_matrix, verify_structure
from commprob.conjugacy import centralizer, conjugacy_classes
from commprob.counting import ORACLE_CAP, class_count, class_count_sequence
from commprob.groups import (
    Subgroup,
    center,
    group_generate,
    permutation_element,
    subgroup_or_whole,
)
from commprob.groupspec import corpus_group
from commprob.symbolic import exact_walk, fixture, verify_symbolic_structure

from conftest import build_large_groups, gl2_generators, unitriangular
from test_groups import conjugated_gl2_f3


def test_s3_matrix_exact(corpus):
    matrix, registry = branching_matrix(corpus["s3"])
    assert [list(r) for r in matrix.entries] == [[1, 0, 0], [1, 2, 0], [1, 0, 3]]
    assert [t.centralizer.order for t in registry.types] == [6, 2, 3]


def test_q8_matrix_shape(corpus):
    matrix, _ = branching_matrix(corpus["q8"])
    assert matrix.size == 4
    assert [row[0] for row in matrix.entries] == [2, 1, 1, 1]
    assert [matrix.entries[i][i] for i in range(4)] == [2, 4, 4, 4]


def test_abelian_group_matrix():
    cyclic = group_generate([permutation_element([1, 2, 3, 4, 5, 6, 0])])
    matrix, registry = branching_matrix(cyclic)
    assert matrix.size == 1
    assert matrix.entries == ((7,),)
    assert registry.entry(0).centralizer.order == 7


def test_structure_checks_pass_on_corpus(corpus):
    for name, group in corpus.items():
        matrix, registry = branching_matrix(group)
        report = verify_structure(matrix, registry)
        assert report.ok, (name, report.summary())


def test_tampered_diagonal_fails_the_centre_order_check(corpus):
    # one diagonal entry off by one: the check names that type first
    matrix, registry = branching_matrix(corpus["s4"])
    for tid in (0, registry.abelian_type_ids()[-1]):
        bad = [list(r) for r in matrix.entries]
        bad[tid][tid] += 1
        check = named_check(
            verify_structure(BranchingMatrix(bad), registry), "diagonal_is_center_order"
        )
        detail = f"diagonal at type {tid}: {bad[tid][tid]} != {matrix.entries[tid][tid]}"
        assert (check.passed, check.detail) == (False, detail)


def test_structure_check_fails_on_tampered_matrix(corpus):
    matrix, registry = branching_matrix(corpus["s3"])
    bad = [list(r) for r in matrix.entries]
    bad[0][1] = 5
    report = verify_structure(BranchingMatrix(bad), registry)
    assert not report.ok
    assert any(c.name == "first_row_zero_after_corner" for c in report.failures())


SHAPE_CHECKS = [
    "first_column_is_depth_one",
    "first_row_zero_after_corner",
    "prediagonal_entry_every_row",
    "abelian_columns_diagonal_only",
    "max_degree_on_abelian_diagonal",
]


def test_finite_and_symbolic_reports_share_the_shape_checks(corpus):
    finite = verify_structure(*branching_matrix(corpus["s4"]))
    assert [c.name for c in finite.checks] == [
        "diagonal_is_center_order",
        *SHAPE_CHECKS,
        "acyclic_apart_from_loops",
        "column_sums_are_class_counts",
        "finite_size",
    ]
    symbolic = verify_symbolic_structure(fixture("gl4"))
    assert [c.name for c in symbolic.checks] == [
        "corner_is_center_dim",
        "diagonal_monomials",
        *SHAPE_CHECKS,
    ]


def test_finite_reports_pass_the_depth_and_alpha_checks(corpus, large_groups):
    groups = dict(corpus, gl2_f3_conjugated=conjugated_gl2_f3(), **large_groups)
    for name, group in groups.items():
        report = verify_structure(*branching_matrix(group))
        assert report.ok, (name, report.summary())
        checks = {c.name: c.passed for c in report.checks}
        assert checks["first_column_is_depth_one"], name
        assert checks["max_degree_on_abelian_diagonal"], name


def named_check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def test_tampered_s4_fails_the_depth_and_alpha_checks(corpus):
    matrix, registry = branching_matrix(corpus["s4"])
    (deep,) = [tid for tid, t in enumerate(registry.types) if t.depth > 1]
    bad = [list(r) for r in matrix.entries]
    bad[deep][0] = 1  # a depth-two type met in the first column
    check = named_check(
        verify_structure(BranchingMatrix(bad), registry), "first_column_is_depth_one"
    )
    assert (check.passed, check.detail) == (False, f"rows {[deep]}")

    diag = max(matrix.entries[t][t] for t in registry.abelian_type_ids())
    bad = [list(r) for r in matrix.entries]
    bad[1][0] = diag + 1  # an off-diagonal entry above every abelian order
    check = named_check(
        verify_structure(BranchingMatrix(bad), registry), "max_degree_on_abelian_diagonal"
    )
    detail = f"alpha={diag + 1}, abelian diagonal max={diag}"
    assert (check.passed, check.detail) == (False, detail)


def acyclic_check(report):
    return named_check(report, "acyclic_apart_from_loops")


def test_corpus_matrices_are_acyclic_apart_from_loops(corpus):
    for name, group in corpus.items():
        assert acyclic_check(verify_structure(*branching_matrix(group))).passed, name


def test_tampered_two_cycle_fails_the_acyclic_check(corpus):
    matrix, registry = branching_matrix(corpus["s4"])
    bad = [list(r) for r in matrix.entries]
    i, k = next((i, k) for i, row in enumerate(bad) for k, x in enumerate(row) if x and i > k > 0)
    bad[k][i] = 1  # the edge i -> k closes a 2-cycle with k -> i
    check = acyclic_check(verify_structure(BranchingMatrix(bad), registry))
    assert not check.passed
    assert check.detail == f"rows {[k, i]} lie on a cycle that is not a loop"


def test_corner_entry_is_center_order(corpus):
    for group in corpus.values():
        matrix, _ = branching_matrix(group)
        assert matrix.entries[0][0] == center(group).order


def test_diagonal_entries_are_centralizer_center_orders(corpus):
    group = corpus["s4"]
    matrix, registry = branching_matrix(group)
    for tid, entry in enumerate(registry.types):
        sub = entry.centralizer
        z = sum(
            1
            for x in sub.members
            if all(group.mul(x, y) == group.mul(y, x) for y in sub.members)
        )
        assert matrix.entries[tid][tid] == z


def test_column_sums_count_classes(corpus):
    for group in corpus.values():
        matrix, registry = branching_matrix(group)
        for tid, entry in enumerate(registry.types):
            expected = conjugacy_classes(group, within=entry.centralizer).count
            assert sum(row[tid] for row in matrix.entries) == expected
        assert sum(row[0] for row in matrix.entries) == conjugacy_classes(group).count


def test_type_column_walk_counts_classes_of_its_centralizer(corpus):
    """Sum_a (B^d)[a][tau] = c_H(d) for H = C(tau) built as its own group.

    The walk from tau only reaches types below tau, whose centralizers are
    centralizers in H, so the tau column of B^d counts H's own classes of
    commuting d-tuples."""
    for name in ("s3", "q8", "s4", "gl2_f3", "gl3_f2"):
        group = corpus[name]
        matrix, registry = branching_matrix(group)
        sums = {d: [sum(col) for col in zip(*matrix.power(d))] for d in range(7)}
        for tid, entry in enumerate(registry.types):
            h = group_generate([group.element(g) for g in entry.centralizer.generators])
            assert h.order == entry.centralizer.order
            v = [1 if i == tid else 0 for i in range(matrix.size)]
            walk = [1]
            for _ in range(6):
                v = [sum(x * y for x, y in zip(row, v)) for row in matrix.entries]
                walk.append(sum(v))
            assert walk == class_count_sequence(h, 6), (name, tid)
            assert walk == [sums[d][tid] for d in range(7)], (name, tid)


def test_exact_walk_from_every_column_matches_power(corpus):
    for name, group in corpus.items():
        matrix, _ = branching_matrix(group)
        n = matrix.size
        powers = [matrix.power(d) for d in range(9)]
        assert powers[0] == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        with pytest.raises(ValueError):
            matrix.power(-1)  # halving a negative exponent never reaches 0
        for j in range(n):
            walk = [[int(i == j) for i in range(n)]] + list(exact_walk(matrix.entries, j, 8, 0, 1))
            assert walk == [[row[j] for row in power] for power in powers], (name, j)


def test_registry_invariants(corpus):
    from commprob.conjugacy import subgroup_conjugate

    for group in corpus.values():
        _, registry = branching_matrix(group)
        assert registry.entry(0).centralizer.order == group.order
        depths = [t.depth for t in registry.types]
        assert depths == sorted(depths)  # construction is depth-major
        for i in range(len(registry)):
            for j in range(i + 1, len(registry)):
                assert (
                    subgroup_conjugate(
                        group,
                        registry.entry(i).centralizer,
                        registry.entry(j).centralizer,
                    )
                    is None
                )


def test_s4_has_deeper_type(corpus):
    # a pair of commuting double transpositions has a genuinely new centralizer
    _, registry = branching_matrix(corpus["s4"])
    assert max(t.depth for t in registry.types) == 2


def test_verify_reads_the_partitions_branching_made(corpus, large_groups, monkeypatch):
    # branching_matrix partitions every type, abelian or not, in z_classes,
    # and verify_structure reads those partitions, making none of its own.
    # a call that finds no partition cached on its subgroup makes one
    partition = conjugacy.conjugacy_classes
    partitioned = []

    def counted(group, within=None):
        h = subgroup_or_whole(group, within)
        if h._classes is None:
            partitioned.append(h)
        return partition(group, within)

    for module in (conjugacy, branching):
        monkeypatch.setattr(module, "conjugacy_classes", counted)
    for name, group in dict(corpus, s7=large_groups["s7"]).items():
        matrix, registry = branching_matrix(group)
        cents = [entry.centralizer for entry in registry.types]
        for _ in range(2):
            partitioned.clear()
            assert verify_structure(matrix, registry).ok, name
            assert partitioned == [], name
        for h in cents:
            assert conjugacy_classes(group, within=h) is conjugacy_classes(group, within=h)


def test_gl2_f16_matrix_is_the_generic_gl2_matrix():
    # 61,200 elements, far above the oracle cap: the generic GL2(F_q)
    # matrix at q = 16, with rows and columns G, Z.U, the split torus and
    # the non-split torus, told apart by their centre orders
    q = 16
    g = group_generate(gl2_generators(2, [1, 1, 0, 0, 1]), cap=70000)
    assert g.order == q * (q - 1) * (q * q - 1)
    matrix, registry = branching_matrix(g)
    diagonal = [matrix.entries[i][i] for i in range(matrix.size)]
    order = [diagonal.index(z) for z in (q - 1, q * (q - 1), (q - 1) ** 2, q * q - 1)]
    assert sorted(order) == list(range(matrix.size))
    expected = [
        [q - 1, 0, 0, 0],
        [q - 1, q * (q - 1), 0, 0],
        [(q - 1) * (q - 2) // 2, 0, (q - 1) ** 2, 0],
        [q * (q - 1) // 2, 0, 0, q * q - 1],
    ]
    assert [[matrix.entries[a][b] for b in order] for a in order] == expected
    assert verify_structure(matrix, registry).ok
    for d in (1, 2, 3, 10, 50):
        c = (
            Fraction((q * q - 1) ** d, 2)
            + Fraction((q * (q - 1)) ** d, q - 1)
            + Fraction((q - 1) ** (2 * d), 2)
            - (q - 1) ** (d - 1)
        )
        assert class_count(g, d) == c, d


def test_diagonal_check_filters_a_fresh_centre_per_type(corpus, monkeypatch):
    # z_classes finds centres too; the diagonal check must not reuse them,
    # so each report filters every type's centre again
    group = corpus["gl2_f3"]
    matrix, registry = branching_matrix(group)
    made = []

    def counted(group, within=None):
        made.append(within)
        return center(group, within=within)

    monkeypatch.setattr(branching, "center", counted)
    for _ in range(2):
        assert verify_structure(matrix, registry).ok
    assert made == [entry.centralizer for entry in registry.types] * 2


@pytest.mark.parametrize("n, p, beta", [(4, 3, 43), (5, 2, 225)])
def test_unitriangular_groups_above_the_oracle_cap(n, p, beta):
    # UT4(F3) (729 elements) and UT5(F2) (1,024) have many types for their
    # order.  Both lie above the oracle cap, so c(1) and c(2) are checked
    # against class counts instead: c(1) = k(G) and c(2) = sum of k(C(r))
    # over the class representatives r.
    group = unitriangular(n, p)
    assert group.order == p ** (n * (n - 1) // 2) > ORACLE_CAP
    matrix, registry = branching_matrix(group)
    assert matrix.size == beta
    assert verify_structure(matrix, registry).ok
    reps = [c.representative for c in conjugacy_classes(group).classes]
    pairs = sum(conjugacy_classes(group, within=centralizer(group, (r,))).count for r in reps)
    expected = [1, len(reps), pairs]
    assert class_count_sequence(group, 2) == expected
    assert [class_count(group, d) for d in (1, 2)] == expected[1:]


def column_rule_calls(group, monkeypatch):
    """branching_matrix on `group`, recording each `z_classes` call as
    (subgroup, number of z-classes) and counting registry lookups."""
    zcalls, lookups = [], []
    z_classes, lookup = branching.z_classes, branching.TypeRegistry.lookup

    def counted_z_classes(group, subgroup=None):
        result = z_classes(group, subgroup)
        zcalls.append((subgroup, len(result)))
        return result

    def counted_lookup(registry, subgroup):
        lookups.append(subgroup)
        return lookup(registry, subgroup)

    with monkeypatch.context() as patched:
        patched.setattr(branching, "z_classes", counted_z_classes)
        patched.setattr(branching.TypeRegistry, "lookup", counted_lookup)
        _, registry = branching_matrix(group)
    return registry, zcalls, lookups


@pytest.mark.parametrize("name", ["s3", "q8", "s4", "gl2_f3", "gl3_f2"])
def test_every_type_takes_its_column_by_one_rule(name, monkeypatch):
    # one z_classes call per type, abelian or not; its central z-class is
    # the type's own and needs no lookup, and each other z-class one
    registry, zcalls, lookups = column_rule_calls(corpus_group(name), monkeypatch)
    assert len(zcalls) == len(registry)
    assert all(h is entry.centralizer for (h, _), entry in zip(zcalls, registry.types))
    assert len(lookups) == sum(n - 1 for _, n in zcalls)


def test_column_rule_counts_on_groups_above_the_table_limit(monkeypatch):
    # S7, SL2(F13) and S5 x S4 together: 73 types and 240 non-central
    # z-classes, so 73 z_classes calls and 240 lookups
    zcalls, lookups = 0, 0
    for group in build_large_groups().values():
        registry, calls, looked = column_rule_calls(group, monkeypatch)
        assert len(calls) == len(registry)
        zcalls, lookups = zcalls + len(calls), lookups + len(looked)
    assert (zcalls, lookups) == (73, 240)


def registry_searches(group, monkeypatch):
    """The registry's transporter searches (`subgroup_conjugate` calls)
    while `branching_matrix` runs on `group`."""
    calls = []
    search = branching.subgroup_conjugate

    def counted(*args):
        calls.append(1)
        return search(*args)

    with monkeypatch.context() as patched:
        patched.setattr(branching, "subgroup_conjugate", counted)
        branching_matrix(group)
    return len(calls)


def test_registry_searches_each_member_set_once(monkeypatch):
    # a centralizer whose member set was registered or matched before is
    # answered from the registry's dict: a fresh S5 x S4 makes 186 lookups
    # but 22 searches (139 without the dict), S7 51 lookups and 23 searches
    # (31 without); S7 still searches
    groups = build_large_groups()
    searches = {name: registry_searches(groups[name], monkeypatch) for name in ("s5xs4", "s7")}
    assert searches == {"s5xs4": 22, "s7": 23}


def test_a_seen_member_set_costs_no_fingerprint_and_no_search(corpus, monkeypatch):
    group = corpus["gl3_f2"]
    _, registry = branching_matrix(group)
    monkeypatch.setattr(branching, "subgroup_conjugate", None)  # any search fails
    for tid, entry in enumerate(registry.types):
        same = Subgroup(group, entry.centralizer.members)
        assert registry.lookup(same) == tid
        assert "fingerprint" not in same.__dict__

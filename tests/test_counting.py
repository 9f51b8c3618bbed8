import time
from fractions import Fraction

import pytest

from commprob.branching import branching_matrix
from commprob.counting import (
    FamilySpec,
    asymptotic_ratio,
    class_count,
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
)
from commprob.errors import CapExceededError, InvalidFamilyError
from commprob.groups import group_generate, permutation_element

from conftest import bruteforce_max_abelian_order, naive_orbit_count


def test_class_count_small_values(corpus):
    s3 = corpus["s3"]
    assert class_count(s3, 0) == 1
    assert class_count(s3, 1) == 3
    assert class_count(s3, 2) == 8


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


def test_oracle_trivial_group():
    trivial = group_generate([permutation_element([0])])
    for d in range(1, 5):
        assert oracle_class_count(trivial, d) == 1


def test_oracle_examples(corpus):
    assert oracle_class_count(corpus["s3"], 2) == 8
    assert oracle_class_count(corpus["q8"], 2) == 22


def test_oracle_matches_naive_enumeration(corpus):
    # the recursion against literal tuple enumeration plus orbit collection
    for name in ("s3", "d4", "q8"):
        group = corpus[name]
        for d in (1, 2, 3):
            total, orbits = naive_orbit_count(group, d)
            assert commuting_tuple_total(group, d) == total
            assert oracle_class_count(group, d) == orbits
            assert class_count(group, d) == orbits


def test_oracle_cap(corpus):
    with pytest.raises(CapExceededError):
        oracle_class_count(corpus["gl3_f2"], 2, cap=100)


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

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commprob.errors import (
    PreconditionError,
    UnknownFixtureError,
    WindowViolatedError,
)
from commprob import symbolic
from commprob.symbolic import (
    EXACT_CHECK_DMAX,
    NEG_INF,
    PsiPoly,
    cp_bounds,
    degree_envelope,
    degree_window,
    degree_windows,
    diagonal_degree_interval,
    first_column_degree,
    fixture,
    max_entry_degree,
    maxplus_walk,
    psi_matrix_from_exponents,
    psi_power,
    psi_walk,
    tropical_first_column_degrees,
    verify_symbolic_structure,
)

# Exponent transcriptions, one token per printed entry ('.' = zero entry,
# an integer k = the monomial of degree k).  Kept deliberately close to the
# printed layout so they can be proofread row by row.

GL2_ROWS = """
1 . .
1 2 .
2 . 2
"""

GL3_ROWS = """
1 . . . . .
1 2 . . . .
2 . 2 . . .
1 2 . 3 . .
2 3 2 . 3 .
3 . 3 . . 3
"""

GL4_ROWS = """
1 . . . . . . . . . . . . . . . . . .
1 2 . . . . . . . . . . . . . . . . .
1 . 2 . . . . . . . . . . . . . . . .
1 2 . 3 . . . . . . . . . . . . . . .
2 . . . 2 . . . . . . . . . . . . . .
2 3 . . 2 3 . . . . . . . . . . . . .
2 . . . . . 2 . . . . . . . . . . . .
2 3 . . . . 2 3 . . . . . . . . . . .
3 . . . 3 . 3 . 3 . . . . . . . . . .
1 2 3 3 . . . . . 4 . . . . 4 . 3 3 .
2 3 . 4 2 3 . . . . 4 . . . . . 4 4 .
2 3 4 . . . 2 3 . . . 4 . . . 4 . . .
3 4 . . 3 4 3 4 3 . . . 4 . . . . . .
4 . . . 4 . 4 . 4 . . . . 4 . . . . .
. 1 2 . . . . . . . . . . . 3 . . . .
. 2 3 . . . . . . . . . . . . 3 . . .
. 1 . . . . . . . . . . . . . . 3 . .
. 1 . . . . . . . . . . . . . . . 3 .
. . . . . . . . . . . . . . 4 4 3 3 5
"""


def parse_rows(text):
    rows = []
    for line in text.strip().splitlines():
        rows.append([-1 if tok == "." else int(tok) for tok in line.split()])
    return rows


@pytest.mark.parametrize(
    "name,rows,meta",
    [
        ("gl2", GL2_ROWS, (4, 2, 2)),
        ("gl3", GL3_ROWS, (9, 3, 3)),
        ("gl4", GL4_ROWS, (16, 4, 5)),
    ],
)
def test_fixture_matches_transcription(name, rows, meta):
    matrix = fixture(name)
    expected = parse_rows(rows)
    assert matrix.exponent_grid() == expected
    n, rank, alpha = meta
    assert matrix.group_dim == n
    assert matrix.rank == rank
    assert max_entry_degree(matrix) == alpha
    assert matrix.alpha == alpha
    assert matrix.size == len(expected)


def test_gl3_diagonal():
    grid = fixture("gl3").exponent_grid()
    assert [grid[i][i] for i in range(6)] == [1, 2, 2, 3, 3, 3]


def test_gl4_block_structure():
    matrix = fixture("gl4")
    assert matrix.size == 19
    assert matrix.depths == (1,) * 14 + (2,) * 4 + (3,)
    grid = matrix.exponent_grid()
    assert grid[18][18] == 5  # deepest abelian type carries the top degree
    assert [grid[i][i] for i in range(14, 18)] == [3, 3, 3, 3]


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        fixture("gl5")


FIXTURE_SUMMARY = (
    "corner_is_center_dim=pass; diagonal_monomials=pass; first_column_is_depth_one=pass; "
    "first_row_zero_after_corner=pass; prediagonal_entry_every_row=pass; "
    "abelian_columns_diagonal_only=pass; max_degree_on_abelian_diagonal=pass"
)
FIXTURE_SUMMARY_NAMES = [part.split("=")[0] for part in FIXTURE_SUMMARY.split("; ")]


def test_structure_checks_pass_on_fixtures():
    for name in ("gl2", "gl3", "gl4"):
        report = verify_symbolic_structure(fixture(name))
        assert report.ok, (name, report.summary())
        assert report.summary() == FIXTURE_SUMMARY, name


@pytest.mark.parametrize(
    "grid,detail",
    [
        ([[1, -1], [1, 2]], "alpha=2, no abelian type"),
        ([[-1, -1], [-1, -1]], "matrix has no nonzero entry"),
    ],
)
def test_structure_check_reports_unplaceable_alpha(grid, detail):
    report = verify_symbolic_structure(psi_matrix_from_exponents("t", grid, 4, 2))
    assert [c.name for c in report.checks] == FIXTURE_SUMMARY_NAMES
    last = report.checks[-1]
    assert (last.name, last.passed, last.detail) == ("max_degree_on_abelian_diagonal", False, detail)


@pytest.mark.parametrize(
    "grid,message", [([], "must not be empty"), ([[1, -1], [1]], "must be square")]
)
def test_exponent_grid_must_be_nonempty_and_square(grid, message):
    with pytest.raises(ValueError, match=message):
        psi_matrix_from_exponents("t", grid, 4, 2)


def test_fixtures_are_shared_and_their_grids_copied():
    for name in ("gl2", "gl3", "gl4"):
        assert fixture(name) is fixture(name)
    grid = fixture("gl2").exponent_grid()
    grid[0][0] = 7
    grid[2].append(3)
    assert fixture("gl2").exponent_grid() == parse_rows(GL2_ROWS)
    assert fixture("gl2").entries[0][0] == PsiPoly.monomial(1)


def test_structure_check_catches_tampering():
    matrix = fixture("gl2")
    grid = matrix.exponent_grid()
    grid[0][1] = 2  # nonzero first row after the corner
    bad = psi_matrix_from_exponents(
        "bad", grid, group_dim=4, rank=2, depths=matrix.depths, abelian=matrix.abelian
    )
    report = verify_symbolic_structure(bad)
    assert not report.ok
    assert any(c.name == "first_row_zero_after_corner" for c in report.failures())


# --- polynomial arithmetic -------------------------------------------------


def test_psi_poly_basics():
    zero = PsiPoly.zero()
    assert zero.degree == NEG_INF
    assert not zero
    p = PsiPoly.monomial(2) + PsiPoly.monomial(2) + PsiPoly.monomial(0)
    assert p.coeffs == {2: 2, 0: 1}
    assert p.degree == 2
    with pytest.raises(ValueError):
        PsiPoly({1: -1})


@pytest.mark.parametrize("coeffs", [{1: 0.5}, {1.7: 2}, {1: 2.0}, {True: 1}, {1: True}])
def test_psi_poly_refuses_non_int_exponents_and_coefficients(coeffs):
    # a fractional coefficient would be stored as a false-looking zero
    # term, breaking the rule that exactly the zero entries are false
    with pytest.raises(ValueError, match="must be ints"):
        PsiPoly(coeffs)


def test_exponent_grid_takes_ints_and_none_only():
    with pytest.raises(ValueError, match="exponents must be ints or None"):
        psi_matrix_from_exponents("t", [[1.5, -1], [1, 2]], 4, 2)
    matrix = psi_matrix_from_exponents("t", [[1, None], [1, -3]], 4, 2)
    assert matrix.grid == ((1, -1), (1, -1))


@pytest.mark.parametrize(
    "name,value,message",
    [
        ("group_dim", 0, "group_dim must be >= 1"),
        ("group_dim", -4, "group_dim must be >= 1"),
        ("group_dim", 4.0, "group_dim must be an int"),
        ("group_dim", True, "group_dim must be an int"),
        ("rank", -1, "rank must be >= 0"),
        ("rank", 1.0, "rank must be an int"),
        ("center_dim", -1, "center_dim must be >= 0"),
        ("center_dim", True, "center_dim must be an int"),
        ("grid", [[True]], "exponents must be ints or None"),
    ],
)
def test_psi_matrix_refuses_bad_input_at_the_call(name, value, message):
    # group_dim=0 used to escape later as a ZeroDivisionError from
    # degree_window, and a bool was stored as an int
    args = {"name": "t", "grid": [[1]], "group_dim": 4, "rank": 1, name: value}
    with pytest.raises(ValueError, match=message):
        psi_matrix_from_exponents(**args)


def test_psi_poly_ring_laws():
    rng = random.Random(5)

    def rand_poly():
        return PsiPoly({rng.randrange(6): rng.randrange(1, 5) for _ in range(rng.randrange(4))})

    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a and b:
            assert (a * b).degree == a.degree + b.degree  # no cancellation


def test_psi_poly_total_equals_the_sum_and_changes_no_term():
    rng = random.Random(38)

    def rand_poly():
        # about one in five is the zero polynomial
        return PsiPoly({rng.randrange(8): rng.randrange(1, 9) for _ in range(rng.randrange(5))})

    assert PsiPoly.total([]) == PsiPoly.zero()
    assert PsiPoly.total(iter([])) == PsiPoly.zero()
    for count in [0, 1, 1, 2, 3] + [rng.randrange(2, 12) for _ in range(200)]:
        terms = [rand_poly() for _ in range(count)]
        if count and rng.random() < 0.2:
            terms[rng.randrange(count)] = PsiPoly.zero()
        before = [dict(t.coeffs) for t in terms]
        total = PsiPoly.total(terms)
        assert total == sum(terms, PsiPoly.zero())
        assert total == PsiPoly.total(iter(terms))
        assert [t.coeffs for t in terms] == before
        assert all(total.coeffs is not t.coeffs for t in terms)
        assert all(c > 0 for c in total.coeffs.values())


# --- degree calculus --------------------------------------------------------


def test_first_column_degree_examples():
    gl2 = fixture("gl2")
    assert first_column_degree(gl2, 1) == 2
    assert first_column_degree(gl2, 2) == 4


def test_first_column_degree_refuses_a_non_int_d():
    gl2 = fixture("gl2")
    for call in (first_column_degree, degree_window, cp_bounds):
        with pytest.raises(ValueError, match="d must be an int"):
            call(gl2, 30.0)
    with pytest.raises(ValueError, match="d must be >= 1"):
        first_column_degree(gl2, 0)


def test_gl2_square_first_column_exact():
    # hand multiplication: first column of B^2 is (psi^2, psi^2+psi^3, psi^3+psi^4)
    square = psi_power(fixture("gl2"), 2)
    assert square[0][0] == PsiPoly.monomial(2)
    assert square[1][0] == PsiPoly.monomial(2) + PsiPoly.monomial(3)
    assert square[2][0] == PsiPoly.monomial(3) + PsiPoly.monomial(4)


def test_gl2_degree_is_2d():
    degrees = tropical_first_column_degrees(fixture("gl2"), 50)
    assert degrees == [2 * d for d in range(1, 51)]


def exact_degrees(column):
    return [int(p.degree) if p else -1 for p in column]


def test_tropical_polynomial_agreement_entrywise():
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        grid = matrix.exponent_grid()
        powers = {d: psi_power(matrix, d) for d in range(1, 7)}
        for j in range(matrix.size):
            walks = zip(maxplus_walk(grid, j, 20), psi_walk(matrix.entries, j, 20))
            for d, (trop, exact) in enumerate(walks, start=1):
                assert trop == exact_degrees(exact), (name, j, d)
                if d in powers:
                    assert exact == [row[j] for row in powers[d]], (name, j, d)


def reference_walk(entries, steps):
    """B^t e_1 for t = 1..steps, each entry added with `+` one term at a time."""
    v = [PsiPoly.monomial(0)] + [PsiPoly.zero()] * (len(entries) - 1)
    for _ in range(steps):
        column = []
        for row in entries:
            entry = PsiPoly.zero()
            for k, x in enumerate(row):
                entry = entry + x * v[k]
            column.append(entry)
        v = column
        yield v


def reference_power(entries, d):
    """B^d as d - 1 products B . B^t, each entry added with `+` one term at a time."""
    size = len(entries)
    power = entries
    for _ in range(d - 1):
        product = []
        for row in entries:
            out = []
            for j in range(size):
                entry = PsiPoly.zero()
                for k, x in enumerate(row):
                    entry = entry + x * power[k][j]
                out.append(entry)
            product.append(tuple(out))
        power = tuple(product)
    return power


@pytest.mark.parametrize("name", ["gl2", "gl3", "gl4"])
def test_exact_walk_and_power_equal_termwise_addition(name):
    # whole polynomials, not only their degrees, against entries added
    # with `+` one term at a time
    matrix = fixture(name)
    dmax = EXACT_CHECK_DMAX
    reference = list(reference_walk(matrix.entries, dmax))
    for d, (exact, expected) in enumerate(zip(psi_walk(matrix.entries, 0, dmax), reference), 1):
        assert exact == expected, (name, d)
    assert symbolic._exact_first_column_degree(matrix, dmax) == [
        int(sum(column, PsiPoly.zero()).degree) for column in reference
    ]
    for d in range(1, 7):
        assert psi_power(matrix, d) == reference_power(matrix.entries, d), (name, d)


def test_entries_are_the_monomials_of_the_grid():
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        expected = tuple(tuple(symbolic._monomial(e) for e in row) for row in matrix.grid)
        assert matrix.entries == expected
        assert all(type(p) is PsiPoly for row in matrix.entries for p in row)
        assert [[bool(p) for p in row] for row in matrix.entries] == [
            [e >= 0 for e in row] for row in matrix.grid
        ]


def test_cross_check_built_into_first_column_degree(monkeypatch):
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        for d in (1, 3, 7, 12):
            assert first_column_degree(matrix, d) == tropical_first_column_degrees(matrix, d)[-1]
    # a disagreement at any d <= 24, not only the last one, must raise
    exact = symbolic._exact_first_column_degree

    def off_at_two(matrix, dmax):
        degrees = exact(matrix, dmax)
        degrees[1] += 1
        return degrees

    monkeypatch.setattr(symbolic, "_exact_first_column_degree", off_at_two)
    with pytest.raises(WindowViolatedError, match="d=2"):
        first_column_degree(fixture("gl3"), 12)
    with pytest.raises(WindowViolatedError, match="d=2"):
        list(degree_windows(fixture("gl3"), 100))
    assert first_column_degree(fixture("gl3"), 30) == 90  # beyond the checked range


def test_cp_bounds_examples():
    gl2 = fixture("gl2")
    assert cp_bounds(gl2, 10) == (Fraction(1, 2), Fraction(3, 5))
    lower, upper = cp_bounds(gl2, 2)
    assert (lower, upper) == (Fraction(1, 2), Fraction(1))
    assert lower <= Fraction(3, 4) <= upper  # known value (n + rank) / 2n


def test_cp_bounds_bracket_known_pair_probability():
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        known = Fraction(matrix.group_dim + matrix.rank, 2 * matrix.group_dim)
        lower, upper = cp_bounds(matrix, 2)
        assert lower <= known <= upper, name


def test_degree_window_examples():
    w = degree_window(fixture("gl2"), 100)
    assert (w.degree_low, w.degree, w.degree_high) == (194, 200, 200)
    assert (w.window_low, w.window_high) == (Fraction(97, 200), Fraction(51, 100))
    assert (w.cp_lower, w.cp_upper) == cp_bounds(fixture("gl2"), 100)
    degree_window(fixture("gl3"), 100)
    degree_window(fixture("gl4"), 100)


def test_degree_windows_match_degree_window():
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        windows = list(degree_windows(matrix, 40))
        assert windows == [degree_window(matrix, d) for d in range(1, 41)], name


def test_degree_windows_read_the_envelope_as_they_yield(monkeypatch):
    # the windows past the walk come one at a time, so a long table costs
    # nothing before its first row
    reads = []
    envelope_degree = symbolic._envelope_degree

    def counted(lines, d):
        reads.append(d)
        return envelope_degree(lines, d)

    monkeypatch.setattr(symbolic, "_envelope_degree", counted)
    matrix = fixture("gl4")
    windows = degree_windows(matrix, 10**6)
    head = [next(windows) for _ in range(40)]
    assert reads == list(range(EXACT_CHECK_DMAX + 1, 41))
    assert head == [degree_window(matrix, d) for d in range(1, 41)]


def test_degree_window_sweep_to_1000():
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        alpha = max_entry_degree(matrix)
        beta = matrix.size
        degrees = tropical_first_column_degrees(matrix, 1000)
        for d in range(1, 1001):
            assert (d - beta) * alpha <= degrees[d - 1] <= d * alpha, (name, d)


def test_bounds_converge_to_alpha_over_n():
    d = 1000
    for name, limit in (("gl2", Fraction(1, 2)), ("gl3", Fraction(1, 3)), ("gl4", Fraction(5, 16))):
        matrix = fixture(name)
        lower, upper = cp_bounds(matrix, d)
        assert abs(lower - limit) <= Fraction(1, d)
        assert abs(upper - limit) <= Fraction(1, d)
        assert Fraction(max_entry_degree(matrix), matrix.group_dim) == limit


def test_monotone_degree_growth():
    # consecutive degrees grow at least by the smallest diagonal degree
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        grid = matrix.exponent_grid()
        min_diag = min(grid[i][i] for i in range(matrix.size))
        degrees = tropical_first_column_degrees(matrix, 100)
        for d in range(1, 100):
            assert degrees[d] >= degrees[d - 1] + min_diag, (name, d)


def test_window_violation_raises():
    # a matrix whose first column dies out cannot satisfy the degree law,
    # on the walked path (d <= 24) and on the power path alike
    broken = psi_matrix_from_exponents(
        "broken", [[-1, -1], [1, -1]], group_dim=4, rank=1
    )
    for d in (2, 30):
        with pytest.raises(WindowViolatedError, match=f"vanished at d={d}"):
            first_column_degree(broken, d)


# --- single degrees from the loop envelope -----------------------------------

FIXTURE_LINES = {
    "gl2": {2: 0, 1: 1},
    "gl3": {3: 0, 2: 1, 1: 3},
    "gl4": {5: -7, 4: 0, 3: 1, 2: 3, 1: 6},
}


def envelope_degree(lines, d):
    return max((w * d + b for w, b in lines.items()), default=-1)


def test_envelope_lines_of_the_fixtures():
    for name, expected in FIXTURE_LINES.items():
        lines = degree_envelope(fixture(name))
        assert list(lines.items()) == list(expected.items()), name
        assert max(lines) == max_entry_degree(fixture(name)), name


def test_gl4_degree_is_5d_minus_7_from_7_on():
    gl4 = fixture("gl4")
    degrees = tropical_first_column_degrees(gl4, 600)
    assert degrees[5] == 24 != 5 * 6 - 7  # below d = 7 the 4d line leads
    assert all(degrees[d - 1] == 5 * d - 7 for d in range(7, 601))
    assert all(first_column_degree(gl4, d) == 5 * d - 7 for d in (25, 1000, 10**6, 10**12))


def test_envelope_matches_walk_from_beta_to_600():
    for name in FIXTURE_LINES:
        matrix = fixture(name)
        lines = degree_envelope(matrix)
        walk = tropical_first_column_degrees(matrix, 600)
        for d in range(matrix.size, 601):
            assert envelope_degree(lines, d) == walk[d - 1], (name, d)


def test_first_column_degree_power_path_matches_walk():
    checked = list(range(EXACT_CHECK_DMAX + 1, 201)) + [1000, 4096, 4097]
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        walk = tropical_first_column_degrees(matrix, max(checked))
        for d in checked:
            assert first_column_degree(matrix, d) == walk[d - 1], (name, d)


def test_large_d_never_walks_past_the_checked_range(monkeypatch):
    walk = symbolic.maxplus_walk

    def short_walks_only(grid, start, steps):
        if steps > EXACT_CHECK_DMAX:
            raise AssertionError(f"walked {steps} steps")
        return walk(grid, start, steps)

    monkeypatch.setattr(symbolic, "maxplus_walk", short_walks_only)
    gl4 = fixture("gl4")
    assert first_column_degree(gl4, 10**6) == 4_999_993
    lower, upper = cp_bounds(gl4, 10**6)
    assert (lower, upper) == (Fraction(4_999_993, 16 * 10**6), Fraction(5_000_009, 16 * 10**6))


def test_degrees_below_beta_are_walked():
    # a 30-row chain 0 -> 1 -> ... -> 29 with one loop, at the end: a walk
    # of length d < 29 takes no loop, which the only line, 5d - 116, misses
    size = 30
    grid = [[-1] * size for _ in range(size)]
    for i in range(1, size):
        grid[i][i - 1] = 1
    grid[size - 1][size - 1] = 5
    chain = psi_matrix_from_exponents("chain", grid, group_dim=8, rank=1)
    assert degree_envelope(chain) == {5: -116}
    assert envelope_degree({5: -116}, 28) == 24
    assert first_column_degree(chain, 28) == 28
    walk = tropical_first_column_degrees(chain, 80)
    assert [w.degree for w in degree_windows(chain, 80)] == walk
    assert [first_column_degree(chain, d) for d in (25, 29, 30, 80)] == [25, 29, 34, 284]


def test_envelope_misses_a_loop_free_path_of_length_beta_minus_1():
    # no loop at all: the lines are empty, so they are right from d = beta
    # on, where every walk has died, but not at d = beta - 1
    path = psi_matrix_from_exponents("path", [[-1, -1, -1], [2, -1, -1], [-1, 3, -1]], 4, 1)
    assert degree_envelope(path) == {}
    assert tropical_first_column_degrees(path, 4) == [2, 5, -1, -1]


def test_envelope_refuses_a_cycle_that_is_not_a_loop():
    two = psi_matrix_from_exponents("two", [[1, 0], [0, 1]], 4, 1)
    three = psi_matrix_from_exponents(
        "three", [[1, -1, -1, -1], [-1, 2, -1, 0], [-1, 0, -1, -1], [-1, -1, 0, -1]], 4, 1
    )  # 1 -> 2 -> 3 -> 1, which no walk from 0 reaches
    for matrix, rows in ((two, [0, 1]), (three, [1, 2, 3])):
        message = f"rows {rows} lie on a cycle that is not a loop"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            degree_envelope(matrix)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            first_column_degree(matrix, EXACT_CHECK_DMAX + 1)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            list(degree_windows(matrix, EXACT_CHECK_DMAX + 1))
        first_column_degree(matrix, EXACT_CHECK_DMAX)  # the walked range needs no order


@st.composite
def loop_acyclic_grids(draw):
    """Square exponent grids whose only cycles are loops: every other edge
    k -> i runs forward in a random order of the rows, which need not put
    row 0 first."""
    size = draw(st.integers(1, 7))
    rank = draw(st.permutations(range(size)))
    cell = st.one_of(st.just(-1), st.integers(0, 5))
    return [
        [draw(cell) if i == k or rank[k] < rank[i] else -1 for k in range(size)]
        for i in range(size)
    ]


@settings(max_examples=150)
@given(loop_acyclic_grids())
def test_envelope_matches_walk_on_random_loop_acyclic_grids(grid):
    matrix = psi_matrix_from_exponents("random", grid, group_dim=4, rank=1)
    lines = degree_envelope(matrix)
    walk = tropical_first_column_degrees(matrix, 60)
    assert [envelope_degree(lines, d) for d in range(matrix.size, 61)] == walk[matrix.size - 1 :]
    if lines:  # else every walk has died by d = beta
        # each b_w is within 6 edges * 5 of 0, so the top line leads from d = 60
        assert first_column_degree(matrix, 200) == walk[-1] + 140 * max(lines)


@st.composite
def exponent_grids(draw):
    """Square exponent grids with cycles, rows no walk from 0 reaches and,
    sometimes, a first column of zeros."""
    size = draw(st.integers(1, 5))
    cell = st.one_of(st.just(-1), st.integers(0, 4))
    row = st.lists(cell, min_size=size, max_size=size)
    grid = draw(st.lists(row, min_size=size, max_size=size))
    if draw(st.booleans()):
        for row in grid:
            row[0] = -1
    for i in draw(st.sets(st.integers(1, size), max_size=2)):
        if i < size:  # nothing but a loop leads into row i
            grid[i] = [w if k == i else -1 for k, w in enumerate(grid[i])]
    return grid


@settings(max_examples=100)
@given(exponent_grids())
def test_envelope_refuses_exactly_the_grids_with_other_cycles(grid):
    # reach[k][i]: a path of non-loop edges k -> ... -> i, by transitive closure
    size = len(grid)
    reach = [[i != k and grid[i][k] >= 0 for i in range(size)] for k in range(size)]
    for m in range(size):
        for k in range(size):
            if reach[k][m]:
                reach[k] = [a or b for a, b in zip(reach[k], reach[m])]
    matrix = psi_matrix_from_exponents("random", grid, group_dim=4, rank=1)
    if any(reach[i][i] for i in range(size)):
        with pytest.raises(PreconditionError) as refused:
            degree_envelope(matrix)
        rows = [int(x) for x in re.search(r"rows \[(.*)\]", str(refused.value))[1].split(",")]
        assert len(rows) >= 2 and all(reach[r][r] for r in rows)
    else:
        lines = degree_envelope(matrix)
        walk = tropical_first_column_degrees(matrix, 40)
        assert [envelope_degree(lines, d) for d in range(size, 41)] == walk[size - 1 :]


# --- symbolised diagonal entries --------------------------------------------


def test_diagonal_degree_interval_singleton():
    result = diagonal_degree_interval([[7]], 0, 3)
    assert result.degree == 3  # the single entry contributes b^r exactly


def test_diagonal_degree_interval_integer_matrix():
    entries = [[1, 0, 0], [1, 2, 0], [1, 0, 3]]
    result = diagonal_degree_interval(entries, 1, 5)
    assert result.degree == 4
    assert (result.low, result.high) == (2, 5)


def test_diagonal_degree_interval_preconditions():
    with pytest.raises(PreconditionError):
        diagonal_degree_interval([[0, 1], [1, 1]], 0, 3)  # zero diagonal
    with pytest.raises(PreconditionError):
        diagonal_degree_interval([[1, 1], [0, 1]], 0, 3)  # no pre-diagonal entry
    with pytest.raises(PreconditionError):
        diagonal_degree_interval([[1]], 0, 1)  # r too small
    with pytest.raises(PreconditionError):
        diagonal_degree_interval([[1, 0], [1, 1]], 5, 3)  # row out of range
    for entries in ([[1, 0], [1, 1, 0]], [[1, 0, 0], [1, 1]]):
        with pytest.raises(PreconditionError, match="matrix must be square"):
            diagonal_degree_interval(entries, 1, 3)
    with pytest.raises(PreconditionError, match="entries must be non-negative"):
        diagonal_degree_interval([[1, 0], [-1, 1]], 1, 3)


def test_verify_symbolic_structure_refuses_metadata_that_misses_a_row():
    gl2 = fixture("gl2")
    for short in (replace(gl2, depths=gl2.depths[:-1]), replace(gl2, abelian=gl2.abelian[:1])):
        with pytest.raises(PreconditionError, match="metadata must label every row"):
            verify_symbolic_structure(short)


def test_diagonal_degree_interval_refuses_non_int_row_or_power():
    entries = [[1, 0], [1, 1]]
    for l, r in ((1, 2.5), (1.0, 3), (True, 3), (1, True)):
        with pytest.raises(PreconditionError, match="row and power must be ints"):
            diagonal_degree_interval(entries, l, r)


def test_diagonal_degree_interval_refuses_non_int_entries():
    symbolic._distances_from_first.cache_clear()  # 1.0 == 1 would hit a cached int matrix
    bad_rows = ([0.5, 1], [1, 1.0], [[1], 1], [True, 1])
    for entries in ([[1, 0], row] for row in bad_rows):
        with pytest.raises(PreconditionError, match=r"entry \(1,[01]\) must be an int"):
            diagonal_degree_interval(entries, 1, 3)


def test_diagonal_degree_interval_sees_a_matrix_mutated_in_place():
    entries = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    assert diagonal_degree_interval(entries, 2, 5).degree == 3  # 0 -> 1 -> 2
    entries[2][0] = 1
    assert diagonal_degree_interval(entries, 2, 5).degree == 4  # 0 -> 2


def test_diagonal_degree_interval_alternating_matrices_keep_their_answers():
    chain_3 = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    star_3 = [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
    for _ in range(3):
        assert diagonal_degree_interval(chain_3, 2, 4).degree == 2
        assert diagonal_degree_interval(star_3, 2, 4).degree == 3


def test_diagonal_degree_interval_refuses_an_invalid_matrix_on_every_call():
    entries = [[1, 0], [0, 1]]
    for _ in range(2):
        with pytest.raises(PreconditionError, match="row 1 has no entry before the diagonal"):
            diagonal_degree_interval(entries, 1, 3)


def test_diagonal_degree_interval_validates_and_searches_once_per_matrix():
    entries = random_condition_matrix(random.Random(7), 6)
    symbolic._distances_from_first.cache_clear()
    calls = [(l, r) for l in range(6) for r in range(2, 11)]
    for l, r in calls:
        diagonal_degree_interval(entries, l, r)
    info = symbolic._distances_from_first.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def random_condition_matrix(rng, m, max_entry=3):
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = rng.randint(1, max_entry)
        for j in range(m):
            if i != j and rng.random() < 0.4:
                entries[i][j] = rng.randint(0, max_entry)
    for i in range(1, m):
        if not any(entries[i][j] for j in range(i)):
            entries[i][rng.randrange(i)] = rng.randint(1, max_entry)
    return entries


def exact_diagonal_degrees(entries, l, rmax):
    """[deg (B^r)[l][0] in the symbolised b_ll for r = 1..rmax], by PsiPoly."""
    sym = [
        [
            PsiPoly.monomial(1)
            if (i, j) == (l, l)
            else (PsiPoly.monomial(0, x) if x else PsiPoly.zero())
            for j, x in enumerate(row)
        ]
        for i, row in enumerate(entries)
    ]
    return [int(v[l].degree) if v[l] else None for v in psi_walk(sym, 0, rmax)]


def reference_diagonal_degrees(entries, l, rmax):
    """The same degrees by a max-plus walk weighing the (l, l) loop 1 and
    every other nonzero entry 0: the walk that the shortest-path count
    replaced, kept as its reference."""
    weights = [
        [int((i, j) == (l, l)) if x else -1 for j, x in enumerate(row)]
        for i, row in enumerate(entries)
    ]
    return [v[l] if v[l] >= 0 else None for v in maxplus_walk(weights, 0, rmax)]


@pytest.mark.parametrize("m,trials,seed", [(4, 200, 101), (6, 100, 202)])
def test_diagonal_degree_interval_random_suite(m, trials, seed):
    rng = random.Random(seed)
    for _ in range(trials):
        entries = random_condition_matrix(rng, m)
        for l in range(m):
            exact = exact_diagonal_degrees(entries, l, 10)
            walked = reference_diagonal_degrees(entries, l, 10)
            for r in range(2, 11):
                result = diagonal_degree_interval(entries, l, r)  # raises on any violation
                assert result.degree == exact[r - 1] == walked[r - 1], (entries, l, r)


def test_gl4_abelian_columns_power_like_scalars():
    # an abelian column only ever meets itself under multiplication
    matrix = fixture("gl4")
    grid = matrix.exponent_grid()
    for d in (2, 3, 4, 5, 6):
        power = psi_power(matrix, d)
        for tau in range(matrix.size):
            if matrix.abelian[tau]:
                assert power[tau][tau] == PsiPoly.monomial(d * grid[tau][tau])

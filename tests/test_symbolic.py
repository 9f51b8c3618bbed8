import random
from fractions import Fraction

import pytest

from commprob.errors import (
    PreconditionError,
    UnknownFixtureError,
    WindowViolatedError,
)
from commprob import symbolic
from commprob.symbolic import (
    NEG_INF,
    PsiPoly,
    cp_bounds,
    degree_window,
    degree_windows,
    diagonal_degree_interval,
    export_grid,
    first_column_degree,
    fixture,
    import_grid,
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


def test_structure_checks_pass_on_fixtures():
    for name in ("gl2", "gl3", "gl4"):
        report = verify_symbolic_structure(fixture(name))
        assert report.ok, (name, report.summary())


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


# --- degree calculus --------------------------------------------------------


def test_first_column_degree_examples():
    gl2 = fixture("gl2")
    assert first_column_degree(gl2, 1) == 2
    assert first_column_degree(gl2, 2) == 4


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
        for j in range(matrix.size):
            walks = zip(maxplus_walk(grid, j, 20), psi_walk(matrix.entries, j, 20))
            for d, (trop, exact) in enumerate(walks, start=1):
                assert trop == exact_degrees(exact), (name, j, d)
                if d == 4:
                    power = psi_power(matrix, 4)
                    assert exact == [power[i][j] for i in range(matrix.size)], (name, j)


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
    # a matrix whose first column dies out cannot satisfy the degree law
    broken = psi_matrix_from_exponents(
        "broken", [[-1, -1], [1, -1]], group_dim=4, rank=1
    )
    with pytest.raises(WindowViolatedError):
        first_column_degree(broken, 2)


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


@pytest.mark.parametrize("m,trials,seed", [(4, 200, 101), (6, 100, 202)])
def test_diagonal_degree_interval_random_suite(m, trials, seed):
    rng = random.Random(seed)
    for _ in range(trials):
        entries = random_condition_matrix(rng, m)
        for l in range(m):
            exact = exact_diagonal_degrees(entries, l, 10)
            for r in range(2, 11):
                result = diagonal_degree_interval(entries, l, r)  # raises on any violation
                assert result.degree == exact[r - 1], (entries, l, r)


def test_gl4_abelian_columns_power_like_scalars():
    # an abelian column only ever meets itself under multiplication
    matrix = fixture("gl4")
    grid = matrix.exponent_grid()
    for d in (2, 3, 4, 5, 6):
        power = psi_power(matrix, d)
        for tau in range(matrix.size):
            if matrix.abelian[tau]:
                assert power[tau][tau] == PsiPoly.monomial(d * grid[tau][tau])


# --- exponent grid round trips ----------------------------------------------


def test_grid_round_trip_bit_exact():
    for name in ("gl2", "gl3", "gl4"):
        matrix = fixture(name)
        text = export_grid(matrix)
        again = import_grid(text)
        assert again == matrix
        assert export_grid(again) == text


def test_grid_import_accepts_blank_cells():
    text = (
        "name tiny\ngroup_dim 4\nrank 2\ncenter_dim 1\n"
        "depths 1 1\nabelian 0 1\ngrid\n1,\n1,2\n"
    )
    matrix = import_grid(text)
    assert matrix.exponent_grid() == [[1, -1], [1, 2]]
    assert import_grid(export_grid(matrix)) == matrix

"""Symbolic branching matrices with monomial entries and their degree calculus.

For reductive algebraic groups the branching-matrix entries are monomials
psi^k recording dimension differences, so entries of powers are polynomials
with non-negative integer coefficients.  Because nothing can cancel, the
degree of an entry of B^d is the weight of the heaviest length-d walk in
the exponent grid.  One integer max-plus kernel, `maxplus_walk`, computes
every such degree here, so degrees at d = 10**6 are as cheap as at d = 3.
It follows the `exponent_grid` convention: -1 marks a zero entry of the
grid and an entry not reached by the walk.

Each exactness claim keeps an independent check by PsiPoly arithmetic
(`psi_walk`, `psi_power`).  In the library, `first_column_degree` and
`degree_windows` compare every degree they report for d <= 24 with the
exact polynomial walk and raise on a disagreement.  The tier-1 tests
compare `diagonal_degree_interval` with the exact symbolised power on every
case of their random suites, and the kernel walked from every start column
with exact powers.

All values here are immutable and operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, UnknownFixtureError, WindowViolatedError
from .report import CheckResult, StructureReport

NEG_INF = float("-inf")


class PsiPoly:
    """Sparse univariate polynomial with non-negative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for deg, c in (coeffs or {}).items():
            if c < 0:
                raise ValueError("coefficients must be non-negative")
            if c:
                clean[int(deg)] = int(c)
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "PsiPoly":
        return cls()

    @classmethod
    def monomial(cls, degree: int, coefficient: int = 1) -> "PsiPoly":
        return cls({degree: coefficient})

    @property
    def degree(self):
        """Largest exponent, or NEG_INF for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PsiPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other: "PsiPoly") -> "PsiPoly":
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, 0) + c
        return PsiPoly(out)

    def __mul__(self, other: "PsiPoly") -> "PsiPoly":
        if not self.coeffs or not other.coeffs:
            return PsiPoly()
        if len(other.coeffs) == 1:
            (deg, c), = other.coeffs.items()
            return PsiPoly({d + deg: x * c for d, x in self.coeffs.items()})
        out: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return PsiPoly(out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for deg in sorted(self.coeffs, reverse=True):
            c = self.coeffs[deg]
            head = "" if c == 1 and deg > 0 else str(c)
            if deg == 0:
                terms.append(str(c))
            elif deg == 1:
                terms.append(f"{head}psi")
            else:
                terms.append(f"{head}psi^{deg}")
        return " + ".join(terms)


@dataclass(frozen=True)
class PsiMatrix:
    """Square matrix of monomials psi^k (or zero) with group metadata.

    group_dim is the dimension of the group, rank its reductive rank,
    center_dim the dimension of the centre; depths and abelian flags label
    the tuple type behind each row/column.  alpha, the largest abelian
    dimension, is read off as the maximal entry degree.
    """

    name: str
    entries: tuple[tuple[PsiPoly, ...], ...]
    group_dim: int
    rank: int
    center_dim: int = 1
    depths: tuple[int, ...] = field(default=())
    abelian: tuple[bool, ...] = field(default=())

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def alpha(self) -> int:
        return max_entry_degree(self)

    def exponent_grid(self) -> list[list[int]]:
        """Entry degrees with -1 standing for zero entries."""
        return [
            [int(e.degree) if e else -1 for e in row]
            for row in self.entries
        ]


def psi_matrix_from_exponents(
    name: str,
    grid,
    group_dim: int,
    rank: int,
    center_dim: int = 1,
    depths=None,
    abelian=None,
) -> PsiMatrix:
    """Build a PsiMatrix from an exponent grid; -1 (or None) marks zeros."""
    rows = []
    for row in grid:
        rows.append(
            tuple(
                PsiPoly.zero() if e is None or e < 0 else PsiPoly.monomial(int(e))
                for e in row
            )
        )
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("exponent grid must be square")
    return PsiMatrix(
        name,
        tuple(rows),
        group_dim,
        rank,
        center_dim,
        tuple(depths) if depths is not None else tuple([1] * size),
        tuple(bool(b) for b in abelian) if abelian is not None else tuple([False] * size),
    )


_GL2_GRID = [
    [1, -1, -1],
    [1, 2, -1],
    [2, -1, 2],
]

_GL3_GRID = [
    [1, -1, -1, -1, -1, -1],
    [1, 2, -1, -1, -1, -1],
    [2, -1, 2, -1, -1, -1],
    [1, 2, -1, 3, -1, -1],
    [2, 3, 2, -1, 3, -1],
    [3, -1, 3, -1, -1, 3],
]

_GL4_GRID = [
    [1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [1, -1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [1, 2, -1, 3, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [2, -1, -1, -1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [2, 3, -1, -1, 2, 3, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [2, -1, -1, -1, -1, -1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [2, 3, -1, -1, -1, -1, 2, 3, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [3, -1, -1, -1, 3, -1, 3, -1, 3, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
    [1, 2, 3, 3, -1, -1, -1, -1, -1, 4, -1, -1, -1, -1, 4, -1, 3, 3, -1],
    [2, 3, -1, 4, 2, 3, -1, -1, -1, -1, 4, -1, -1, -1, -1, -1, 4, 4, -1],
    [2, 3, 4, -1, -1, -1, 2, 3, -1, -1, -1, 4, -1, -1, -1, 4, -1, -1, -1],
    [3, 4, -1, -1, 3, 4, 3, 4, 3, -1, -1, -1, 4, -1, -1, -1, -1, -1, -1],
    [4, -1, -1, -1, 4, -1, 4, -1, 4, -1, -1, -1, -1, 4, -1, -1, -1, -1, -1],
    [-1, 1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 3, -1, -1, -1, -1],
    [-1, 2, 3, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 3, -1, -1, -1],
    [-1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 3, -1, -1],
    [-1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 3, -1],
    [-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 4, 4, 3, 3, 5],
]

_FIXTURES = {
    "gl2": dict(
        grid=_GL2_GRID,
        group_dim=4,
        rank=2,
        depths=[1, 1, 1],
        abelian=[False, True, True],
    ),
    "gl3": dict(
        grid=_GL3_GRID,
        group_dim=9,
        rank=3,
        depths=[1] * 6,
        abelian=[False, False, False, True, True, True],
    ),
    "gl4": dict(
        grid=_GL4_GRID,
        group_dim=16,
        rank=4,
        depths=[1] * 14 + [2] * 4 + [3],
        abelian=[i in (9, 10, 11, 12, 13, 18) for i in range(19)],
    ),
}


def fixture(name: str) -> PsiMatrix:
    """Bundled symbolic branching matrix: gl2, gl3 or gl4."""
    key = name.lower()
    if key not in _FIXTURES:
        raise UnknownFixtureError(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}")
    spec = _FIXTURES[key]
    return psi_matrix_from_exponents(
        key,
        spec["grid"],
        group_dim=spec["group_dim"],
        rank=spec["rank"],
        depths=spec["depths"],
        abelian=spec["abelian"],
    )


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


# ---------------------------------------------------------------------------
# max-plus (tropical) degree calculus and its exact cross-check

EXACT_CHECK_DMAX = 24


def maxplus_walk(grid, start: int, steps: int):
    """Yield v_1, ..., v_steps, where v_t[i] is the heaviest length-t walk
    from `start` to i and an edge into i from k weighs grid[i][k].

    -1 in `grid` means no edge and -1 in v_t means not reached, so on an
    exponent grid v_t[i] = deg (B^t)[i][start].  Only the current vector is
    held, however many steps are taken.
    """
    edges = [[(k, w) for k, w in enumerate(row) if w >= 0] for row in grid]
    v = [-1] * len(grid)
    v[start] = 0
    for _ in range(steps):
        v = [max([v[k] + w for k, w in row if v[k] >= 0], default=-1) for row in edges]
        yield v


def psi_walk(entries, start: int, steps: int):
    """Exact counterpart of maxplus_walk on PsiPoly entries: yields the
    columns B^t e_start for t = 1..steps."""
    m = len(entries)
    v = [PsiPoly.zero()] * m
    v[start] = PsiPoly.monomial(0)
    for _ in range(steps):
        v = [
            sum((row[k] * v[k] for k in range(m) if v[k] and row[k]), PsiPoly.zero())
            for row in entries
        ]
        yield v


def tropical_first_column_degrees(matrix: PsiMatrix, dmax: int) -> list[int]:
    """[deg(1 . B^d . e1) for d = 1..dmax], -1 where the column vanished."""
    return [max(v) for v in maxplus_walk(matrix.exponent_grid(), 0, dmax)]


def _psi_matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = a[i]
        new_row = []
        for j in range(n):
            acc = PsiPoly.zero()
            for k in range(n):
                if row[k] and b[k][j]:
                    acc = acc + row[k] * b[k][j]
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def psi_power(matrix: PsiMatrix, d: int):
    """Exact d-th power of the entries, for validating the degree calculus."""
    if d < 1:
        raise ValueError("d must be >= 1")
    result = matrix.entries
    for _ in range(d - 1):
        result = _psi_matmul(result, matrix.entries)
    return result


def _exact_first_column_degree(matrix: PsiMatrix, dmax: int) -> list[int]:
    """The exact twin of tropical_first_column_degrees, by PsiPoly powers."""
    degrees = []
    for v in psi_walk(matrix.entries, 0, dmax):
        total = sum(v, PsiPoly.zero())
        degrees.append(int(total.degree) if total else -1)
    return degrees


def _cross_check(matrix: PsiMatrix, degrees: list[int]) -> None:
    """Raise unless the tropical degrees for d <= EXACT_CHECK_DMAX equal the
    exact ones; the two must coincide because no coefficient can cancel."""
    head = degrees[:EXACT_CHECK_DMAX]
    exact = _exact_first_column_degree(matrix, len(head))
    for d, (degree, expected) in enumerate(zip(head, exact), start=1):
        if degree != expected:
            raise WindowViolatedError(
                f"tropical degree {degree} disagrees with exact degree {expected} at d={d}"
            )


def first_column_degree(matrix: PsiMatrix, d: int) -> int:
    """deg(1 . B^d . e1), the degree tracked by the dimension bounds.

    Computed tropically; for d <= EXACT_CHECK_DMAX every degree up to d is
    also computed exactly and any disagreement raises.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    degrees = tropical_first_column_degrees(matrix, d)
    if d <= EXACT_CHECK_DMAX:
        _cross_check(matrix, degrees)
    if degrees[-1] < 0:
        raise WindowViolatedError(f"first column of {matrix.name} vanished at d={d}")
    return degrees[-1]


def max_entry_degree(matrix: PsiMatrix) -> int:
    best = max(e.degree for row in matrix.entries for e in row)
    if best == NEG_INF:
        raise ValueError("matrix has no nonzero entry")
    return int(best)


@dataclass(frozen=True)
class DegreeWindow:
    degree: int
    degree_low: int
    degree_high: int
    window_low: Fraction
    window_high: Fraction
    cp_lower: Fraction
    cp_upper: Fraction


def _window(matrix: PsiMatrix, alpha: int, d: int, degree: int) -> DegreeWindow:
    if degree < 0:
        raise WindowViolatedError(f"first column of {matrix.name} vanished at d={d}")
    low, high = (d - matrix.size) * alpha, d * alpha
    if not low <= degree <= high:
        raise WindowViolatedError(
            f"degree {degree} outside [{low}, {high}] for {matrix.name} at d={d}"
        )
    n = matrix.group_dim
    cp_lower = Fraction(degree, d * n)
    return DegreeWindow(
        degree,
        low,
        high,
        Fraction(low, d * n),
        Fraction(alpha, n) + Fraction(1, d),
        cp_lower,
        cp_lower + Fraction(1, d),
    )


def degree_window(matrix: PsiMatrix, d: int) -> DegreeWindow:
    """Check (d - beta)*alpha <= deg(1.B^d.e1) <= d*alpha and return the
    commuting-probability window ((1 - beta/d)*alpha/n, alpha/n + 1/d) with
    the sandwich deg/(d*n) <= cp_d <= deg/(d*n) + 1/d.

    A violation would mean a corrupted matrix or an arithmetic bug, so it
    raises rather than reporting.
    """
    return _window(matrix, max_entry_degree(matrix), d, first_column_degree(matrix, d))


def degree_windows(matrix: PsiMatrix, dmax: int):
    """Yield degree_window(matrix, d) for d = 1..dmax from one walk, with
    every d <= EXACT_CHECK_DMAX cross-checked in one exact pass."""
    degrees = tropical_first_column_degrees(matrix, dmax)
    _cross_check(matrix, degrees)
    alpha = max_entry_degree(matrix)
    for d, degree in enumerate(degrees, start=1):
        yield _window(matrix, alpha, d, degree)


def cp_bounds(matrix: PsiMatrix, d: int) -> tuple[Fraction, Fraction]:
    """Exact sandwich deg/(d*n) <= cp_d <= deg/(d*n) + 1/d."""
    window = degree_window(matrix, d)
    return window.cp_lower, window.cp_upper


@dataclass(frozen=True)
class DegreeInterval:
    degree: int | None
    low: int
    high: int


def diagonal_degree_interval(entries, l: int, r: int) -> DegreeInterval:
    """Degree of (B^r)[l][0] in the symbolised diagonal entry b_ll.

    The input is a plain non-negative integer matrix whose diagonal is
    nonzero and in which every row past the first has a nonzero entry
    before the diagonal.  Entry (l, l) is replaced by an indeterminate, so
    the degree is the largest number of (l, l) loops on a length-r walk
    from 0 to l: a max-plus walk weighing that loop 1 and every other
    nonzero entry 0.  It must land in [r - m, r].  The entry can only be
    the zero polynomial while r is at most the matrix size (no descent path
    that short exists yet); that case reports degree None.
    """
    m = len(entries)
    if r < 2:
        raise PreconditionError("power r must be >= 2")
    if not 0 <= l < m:
        raise PreconditionError(f"row {l} outside matrix of size {m}")
    for i, row in enumerate(entries):
        if len(row) != m:
            raise PreconditionError("matrix must be square")
        if any(x < 0 for x in row):
            raise PreconditionError("entries must be non-negative")
        if row[i] == 0:
            raise PreconditionError(f"diagonal entry ({i},{i}) is zero")
        if i > 0 and not any(row[j] for j in range(i)):
            raise PreconditionError(f"row {i} has no entry before the diagonal")
    weights = [
        [int((i, j) == (l, l)) if x else -1 for j, x in enumerate(row)]
        for i, row in enumerate(entries)
    ]
    for v in maxplus_walk(weights, 0, r):
        pass
    degree = v[l]
    if degree < 0:
        if r > m:
            raise WindowViolatedError(
                f"(B^{r})[{l}][0] vanished although r exceeds the size {m}"
            )
        return DegreeInterval(None, r - m, r)
    if not r - m <= degree <= r:
        raise WindowViolatedError(
            f"degree {degree} of (B^{r})[{l}][0] outside [{r - m}, {r}]"
        )
    return DegreeInterval(degree, r - m, r)


def verify_symbolic_structure(matrix: PsiMatrix) -> StructureReport:
    """Structural checks for a symbolic branching matrix.

    Mirrors the finite-group checks with exponents: monomial diagonal with
    psi^center_dim in the corner, zero first row after the corner, first
    column supported on the depth-one rows, a pre-diagonal entry in every
    later row, abelian columns concentrated on the diagonal, and finite
    size with the maximal degree realised on an abelian diagonal entry.
    """
    checks = []
    entries = matrix.entries
    size = matrix.size
    if len(matrix.depths) != size or len(matrix.abelian) != size:
        raise PreconditionError("depth/abelian metadata must label every row")

    corner = entries[0][0]
    ok = corner.is_monomial() and corner.degree == matrix.center_dim
    checks.append(CheckResult("corner_is_center_dim", ok, "" if ok else repr(corner)))

    bad = [
        (i, i)
        for i in range(size)
        if not (entries[i][i].is_monomial())
    ]
    checks.append(CheckResult("diagonal_monomials", not bad, f"{bad}" if bad else ""))

    bad = [
        i
        for i in range(size)
        if (not entries[i][0].is_zero()) != (matrix.depths[i] == 1)
    ]
    checks.append(
        CheckResult("first_column_is_depth_one", not bad, f"rows {bad}" if bad else "")
    )

    bad = [j for j in range(1, size) if not entries[0][j].is_zero()]
    checks.append(
        CheckResult("first_row_zero_after_corner", not bad, f"columns {bad}" if bad else "")
    )

    bad = [
        i
        for i in range(1, size)
        if not any(not entries[i][j].is_zero() for j in range(i))
    ]
    checks.append(
        CheckResult("prediagonal_entry_every_row", not bad, f"rows {bad}" if bad else "")
    )

    ok, detail = True, ""
    for j in range(size):
        if not matrix.abelian[j]:
            continue
        nonzero = [i for i in range(size) if not entries[i][j].is_zero()]
        if nonzero != [j]:
            ok, detail = False, f"abelian column {j} supported on rows {nonzero}"
            break
    checks.append(CheckResult("abelian_columns_diagonal_only", ok, detail))

    alpha = max_entry_degree(matrix)
    diag_max = max(int(entries[i][i].degree) for i in range(size) if matrix.abelian[i])
    ok = alpha == diag_max
    checks.append(
        CheckResult(
            "max_degree_on_abelian_diagonal",
            ok,
            "" if ok else f"alpha={alpha}, abelian diagonal max={diag_max}",
        )
    )
    return StructureReport(tuple(checks))


# ---------------------------------------------------------------------------
# exponent-grid text format

_META_FIELDS = ("group_dim", "rank", "center_dim")


def export_grid(matrix: PsiMatrix) -> str:
    """Canonical text form: metadata lines, then comma-separated exponents
    with -1 for zero entries.  Importing the export reproduces the matrix
    bit-exactly."""
    lines = [f"name {matrix.name}"]
    for f_name in _META_FIELDS:
        lines.append(f"{f_name} {getattr(matrix, f_name)}")
    lines.append("depths " + " ".join(str(d) for d in matrix.depths))
    lines.append("abelian " + " ".join("1" if b else "0" for b in matrix.abelian))
    lines.append("grid")
    for row in matrix.exponent_grid():
        lines.append(",".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def import_grid(text: str) -> PsiMatrix:
    """Parse the text form written by export_grid; blank cells mean zero."""
    meta: dict[str, object] = {}
    grid: list[list[int]] = []
    in_grid = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_grid:
            grid.append([int(cell) if cell.strip() else -1 for cell in line.split(",")])
            continue
        if line == "grid":
            in_grid = True
            continue
        key, _, value = line.partition(" ")
        if key == "name":
            meta["name"] = value.strip()
        elif key in _META_FIELDS:
            meta[key] = int(value)
        elif key == "depths":
            meta["depths"] = [int(x) for x in value.split()]
        elif key == "abelian":
            meta["abelian"] = [x == "1" for x in value.split()]
        else:
            raise ValueError(f"unknown metadata line {raw!r}")
    if not grid:
        raise ValueError("no grid section found")
    return psi_matrix_from_exponents(
        str(meta.get("name", "imported")),
        grid,
        group_dim=int(meta["group_dim"]),
        rank=int(meta["rank"]),
        center_dim=int(meta.get("center_dim", 1)),
        depths=meta.get("depths"),
        abelian=meta.get("abelian"),
    )

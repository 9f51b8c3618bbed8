"""Symbolic branching matrices with monomial entries and their degree calculus.

For reductive algebraic groups the branching-matrix entries are monomials
psi^k recording dimension differences, so a `PsiMatrix` stores only its
exponent grid: k for psi^k, -1 for a zero entry.  Entries of powers are
polynomials with non-negative integer coefficients.  Because nothing can
cancel, the degree of an entry of B^d is the weight of the heaviest
length-d walk in the grid, an entry of B^d over the max-plus semiring.
Degrees are plain ints, -1 marking an entry not reached.  Sequences of
degrees walk: `maxplus_walk` holds one vector and takes O(beta^2) per step.
A single degree past the walked range comes from the loop envelope.  A
branching matrix has no cycle but its loops, so for every d >= beta,
deg(1 . B^d . e1) = max_w (w*d + b_w), w over the loop weights;
`degree_envelope` finds the lines once in O(beta^3) by longest paths in a
topological order, and refuses a grid with any other cycle.
`first_column_degree` reads one d > 24 off the lines, and `degree_windows`
walks only to max(24, beta - 1) and reads the rest.

One exact kernel, `exact_walk` and `exact_power`, multiplies matrices over
ints for the finite branching matrices and over PsiPoly (`psi_walk`,
`psi_power`) for the independent check of every exactness claim here; each
PsiPoly entry adds its terms into one dict (`PsiPoly.total`).
`first_column_degree` and `degree_windows` compare every degree they
report for d <= 24 with the exact polynomial walk and raise on a
disagreement.  The tier-1 tests compare `diagonal_degree_interval` with
the exact symbolised power on every case of their random suites, the
max-plus and exact walks from every start column with exact powers, and
the envelope with the walk for every d >= beta.

`diagonal_degree_interval` reads deg (B^r)[l][0] in a symbolised diagonal
entry as r minus the fewest steps from row 0 to row l.  It checks the
matrix and searches it once per distinct matrix, so one validation and
one search serve every (l, r) query on a matrix, each repeat costing an
O(m^2) key.

All values here are immutable and operations pure, apart from the
one-matrix cache behind `diagonal_degree_interval`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import chain

from .errors import PreconditionError, UnknownFixtureError, WindowViolatedError
from .groups import is_int, require_int
from .report import CheckResult, StructureReport

NEG_INF = float("-inf")


class PsiPoly:
    """Sparse univariate polynomial with non-negative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for deg, c in (coeffs or {}).items():
            if not (is_int(deg) and is_int(c)):
                raise ValueError(f"exponents and coefficients must be ints, got {deg!r}: {c!r}")
            if c < 0:
                raise ValueError("coefficients must be non-negative")
            if c:
                clean[deg] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "PsiPoly":
        """Wrap a dict of int exponents to positive int coefficients as is.

        Only sums and products of PsiPolys, whose positive coefficients give
        positive ones, and the monomials of a checked exponent grid come
        here, so `__init__`'s checks would find nothing to drop or refuse."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PsiPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    @classmethod
    def total(cls, terms) -> "PsiPoly":
        """The sum of an iterable of PsiPolys, zero if it is empty.

        The first term's dict is copied once and every later term is added
        into that copy, where `sum(terms, zero)` would copy the running
        sum's dict once per term; no term is changed."""
        terms = iter(terms)
        first = next(terms, None)
        if first is None:
            return cls._trusted({})
        out = dict(first.coeffs)
        for term in terms:
            for deg, c in term.coeffs.items():
                out[deg] = out.get(deg, 0) + c
        return cls._trusted(out)

    def __add__(self, other: "PsiPoly") -> "PsiPoly":
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, 0) + c
        return PsiPoly._trusted(out)

    def __mul__(self, other: "PsiPoly") -> "PsiPoly":
        if not self.coeffs or not other.coeffs:
            return PsiPoly._trusted({})
        if len(other.coeffs) == 1:
            (deg, c), = other.coeffs.items()
            return PsiPoly._trusted({d + deg: x * c for d, x in self.coeffs.items()})
        out: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return PsiPoly._trusted(out)

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


def _monomial(exponent: int) -> PsiPoly:
    return PsiPoly.monomial(exponent) if exponent >= 0 else PsiPoly.zero()


@dataclass(frozen=True)
class PsiMatrix:
    """Square matrix of monomials psi^k (or zero) with group metadata,
    stored as its exponent grid: grid[i][j] is k for psi^k, -1 for zero.

    group_dim is the dimension of the group, rank its reductive rank,
    center_dim the dimension of the centre; depths and abelian flags label
    the tuple type behind each row/column.  alpha, the largest abelian
    dimension, is read off as the maximal entry degree.
    """

    name: str
    grid: tuple[tuple[int, ...], ...]
    group_dim: int
    rank: int
    center_dim: int = 1
    depths: tuple[int, ...] = field(default=())
    abelian: tuple[bool, ...] = field(default=())

    @property
    def size(self) -> int:
        return len(self.grid)

    @property
    def alpha(self) -> int:
        return max_entry_degree(self)

    @property
    def entries(self) -> tuple[tuple[PsiPoly, ...], ...]:
        """The entries as PsiPoly monomials, built afresh for the exact checks.

        `psi_matrix_from_exponents` has checked every exponent to be an int
        >= -1, so each monomial is wrapped as is, with no `PsiPoly` check."""
        return tuple(
            tuple(PsiPoly._trusted({e: 1} if e >= 0 else {}) for e in row) for row in self.grid
        )

    def exponent_grid(self) -> list[list[int]]:
        """A fresh copy of the grid, -1 standing for zero entries."""
        return [list(row) for row in self.grid]


def _grid_exponent(e) -> int:
    if e is None:
        return -1
    if not is_int(e):
        raise ValueError(f"exponents must be ints or None, got {e!r}")
    return max(e, -1)


def psi_matrix_from_exponents(
    name: str,
    grid,
    group_dim: int,
    rank: int,
    center_dim: int = 1,
    depths=None,
    abelian=None,
) -> PsiMatrix:
    """Build a PsiMatrix from an int exponent grid; -1 (or None) marks zeros.

    group_dim must be an int >= 1, and rank and center_dim ints >= 0."""
    require_int(group_dim, 1, "group_dim")
    require_int(rank, 0, "rank")
    require_int(center_dim, 0, "center_dim")
    rows = tuple(tuple(_grid_exponent(e) for e in row) for row in grid)
    size = len(rows)
    if size == 0:
        raise ValueError("exponent grid must not be empty")
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

_FIXTURE_SPECS = {
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


_FIXTURES = {key: psi_matrix_from_exponents(key, **spec) for key, spec in _FIXTURE_SPECS.items()}


def fixture(name: str) -> PsiMatrix:
    """Bundled symbolic branching matrix: gl2, gl3 or gl4."""
    key = name.lower()
    if key not in _FIXTURES:
        raise UnknownFixtureError(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}")
    return _FIXTURES[key]


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


# ---------------------------------------------------------------------------
# the exact matrix kernel, the max-plus (tropical) degree calculus and its check

EXACT_CHECK_DMAX = 24


def _summer(zero):
    """How the exact kernel adds the terms of one entry: `PsiPoly.total`,
    into one dict, for PsiPoly entries, and the builtin `sum` for numbers."""
    return PsiPoly.total if isinstance(zero, PsiPoly) else sum


def exact_walk(matrix, start: int, steps: int, zero, one):
    """Yield the columns B^t e_start for t = 1..steps, exactly.

    B is a square matrix over numbers or PsiPolys, zero and one given, in
    which exactly the zero entries are false.  Zero entries of B and of
    the current column are skipped; only the current column is held.  The
    terms of an entry are products by `*`; a PsiPoly entry sums them with
    `PsiPoly.total`, into one dict, and a number entry with `sum`.
    """
    total = _summer(zero)
    edges = [[(k, x) for k, x in enumerate(row) if x] for row in matrix]
    v = [zero] * len(matrix)
    v[start] = one
    for _ in range(steps):
        v = [total(v[k] * x for k, x in row if v[k]) for row in edges]
        yield v


def exact_power(matrix, d: int, zero, one):
    """B^d (d >= 0) by repeated squaring, over entries as for `exact_walk`
    and summed the same way: `PsiPoly.total` per PsiPoly entry, `sum` per
    number entry."""
    require_int(d, 0)
    total = _summer(zero)

    def times(a, b):
        rows = [[(k, x) for k, x in enumerate(row) if x] for row in a]
        cols = list(zip(*b))
        return [[total(x * col[k] for k, x in row if col[k]) for col in cols] for row in rows]

    n = len(matrix)
    result = [[one if i == j else zero for j in range(n)] for i in range(n)]
    base = matrix
    while d:
        if d & 1:
            result = times(base, result)
        d >>= 1
        if d:
            base = times(base, base)
    return tuple(tuple(row) for row in result)


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
    return exact_walk(entries, start, steps, PsiPoly.zero(), PsiPoly.monomial(0))


def tropical_first_column_degrees(matrix: PsiMatrix, dmax: int) -> list[int]:
    """[deg(1 . B^d . e1) for d = 1..dmax], -1 where the column vanished."""
    return [max(v) for v in maxplus_walk(matrix.grid, 0, dmax)]


def psi_power(matrix: PsiMatrix, d: int):
    """Exact d-th power of the entries, for validating the degree calculus."""
    require_int(d, 1)
    return exact_power(matrix.entries, d, PsiPoly.zero(), PsiPoly.monomial(0))


def _exact_first_column_degree(matrix: PsiMatrix, dmax: int) -> list[int]:
    """The exact twin of tropical_first_column_degrees, by PsiPoly powers."""
    degrees = []
    for v in psi_walk(matrix.entries, 0, dmax):
        total = PsiPoly.total(v)
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


def topological_order(predecessors) -> list[int]:
    """The nodes 0..n-1 in an order in which every edge k -> i, for k in
    predecessors[i] and k != i, runs forward; loops are ignored.

    Raises PreconditionError naming the rows of one cycle that is not a
    loop, if there is one and so no such order.
    """
    graph = {i: [k for k in ks if k != i] for i, ks in enumerate(predecessors)}
    try:
        return list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        rows = sorted(set(exc.args[1]))
        raise PreconditionError(f"rows {rows} lie on a cycle that is not a loop") from None


def degree_envelope(matrix: PsiMatrix) -> dict[int, int]:
    """{w: b_w}, largest slope first, with deg(1 . B^d . e1) = max_w (w*d + b_w)
    for every d >= beta; empty if no walk from 0 reaches a loop.

    The grid must have no cycle but its loops (PreconditionError otherwise,
    from `topological_order`), as every branching matrix does.  A length-d
    walk from 0 is then a path of p <= beta - 1 edges through distinct
    rows with d - p loops spread over them, and it weighs at most the path
    plus d - p times its heaviest loop weight w, which a walk reaches by
    spending every loop on one row m of loop weight w.  With each path
    edge weighing e - w, that walk weighs w*d plus the heaviest path from
    0 through m; b_w is the best such path over the rows m of loop weight
    w.  For d >= beta every walk takes a loop, so the lines give the
    degree exactly; below beta a loop-free path may beat them.  The
    longest paths to and from every row follow the topological order, so
    each distinct w costs O(beta^2).
    """
    grid = matrix.grid
    size = len(grid)
    edges_into = [[] for _ in range(size)]
    edges_out = [[] for _ in range(size)]
    for i, row in enumerate(grid):
        for k, e in enumerate(row):
            if e >= 0 and k != i:  # the edge k -> i; loops give the slopes
                edges_into[i].append((k, e))
                edges_out[k].append((i, e))
    order = topological_order([[k for k, _ in edges] for edges in edges_into])
    lines = {}
    for w in sorted({grid[m][m] for m in range(size) if grid[m][m] >= 0}, reverse=True):
        into = {0: 0}  # heaviest paths from 0; rows no walk reaches stay out
        for i in order:
            steps = [into[k] + e - w for k, e in edges_into[i] if k in into]
            if steps:
                into[i] = max(steps)
        out = [0] * size
        for k in reversed(order):
            out[k] = max([0] + [out[i] + e - w for i, e in edges_out[k]])
        ends = [into[m] + out[m] for m in into if grid[m][m] == w]
        if ends:
            lines[w] = max(ends)
    return lines


def _envelope_degree(lines: dict[int, int], d: int) -> int:
    return max((w * d + b for w, b in lines.items()), default=-1)


def _walked_dmax(matrix: PsiMatrix) -> int:
    """The largest d whose degree is walked rather than read off the
    envelope: the checked range and the d < beta the lines miss."""
    return max(EXACT_CHECK_DMAX, matrix.size - 1)


def first_column_degree(matrix: PsiMatrix, d: int) -> int:
    """deg(1 . B^d . e1), the degree tracked by the dimension bounds.

    For d <= EXACT_CHECK_DMAX every degree up to d is walked and also
    computed exactly, and any disagreement raises; d < beta is walked too.
    Every larger d reads the single degree off `degree_envelope`, in
    O(beta^3) whatever d is.
    """
    require_int(d, 1)
    if d <= _walked_dmax(matrix):
        degrees = tropical_first_column_degrees(matrix, d)
        _cross_check(matrix, degrees)
        degree = degrees[-1]
    else:
        degree = _envelope_degree(degree_envelope(matrix), d)
    if degree < 0:
        raise WindowViolatedError(f"first column of {matrix.name} vanished at d={d}")
    return degree


def max_entry_degree(matrix: PsiMatrix) -> int:
    best = max((e for row in matrix.grid for e in row), default=-1)
    if best < 0:
        raise ValueError("matrix has no nonzero entry")
    return best


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
    every d <= EXACT_CHECK_DMAX cross-checked in one exact pass.  The walk
    stops at max(EXACT_CHECK_DMAX, beta - 1); later d read the envelope,
    one at a time as they are yielded.  A non-int or negative dmax is
    refused at the call, before any window is asked for."""
    require_int(dmax, 0)
    return _degree_windows(matrix, dmax)


def _degree_windows(matrix: PsiMatrix, dmax: int):
    walked = min(dmax, _walked_dmax(matrix))
    degrees = tropical_first_column_degrees(matrix, walked)
    _cross_check(matrix, degrees)
    if dmax > walked:
        lines = degree_envelope(matrix)
        degrees = chain(degrees, (_envelope_degree(lines, d) for d in range(walked + 1, dmax + 1)))
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
    from 0 to l along nonzero entries; coefficients are non-negative, so
    nothing cancels.  Let delta be the fewest steps from 0 to l.  Deleting
    every (l, l) loop from such a walk leaves a walk from 0 to l, so at
    most r - delta loops fit; a shortest path followed by r - delta loops
    at l fits exactly that many.  The degree is therefore r - delta, and
    the entry is zero (degree None) while r < delta.  A pre-diagonal entry
    in row i gives delta(i) <= delta(j) + 1 for some j < i, so
    delta <= l < m and the degree lands in [r - m, r].

    l, r and every entry must be ints, not bools.  The matrix is checked,
    and delta found for every row by one breadth-first search, once per
    distinct matrix (`_distances_from_first` keeps the last one): the calls
    for every (l, r) of one matrix cost one validation and one search, then
    an O(m^2) key each.  A matrix equal to the previous call's is answered
    from that key, so an entry that equals an int without being one (1.0,
    True) is refused only in a matrix not equal to the previous call's.
    """
    m = len(entries)
    if not (is_int(l) and is_int(r)):
        raise PreconditionError(f"row and power must be ints, got {l!r} and {r!r}")
    if r < 2:
        raise PreconditionError("power r must be >= 2")
    if not 0 <= l < m:
        raise PreconditionError(f"row {l} outside matrix of size {m}")
    # built from a list, so the key tuple is made at its final size; a
    # tuple grown from an iterator is resized, and each call would leave
    # one more tuple on CPython's free list for the smaller size
    rows = tuple([tuple(row) for row in entries])
    try:
        delta = _distances_from_first(rows)[l]
    except TypeError:  # an unhashable entry, which the uncached checks name
        delta = _distances_from_first.__wrapped__(rows)[l]
    if delta is None or r < delta:
        if r > m:
            raise WindowViolatedError(
                f"(B^{r})[{l}][0] vanished although r exceeds the size {m}"
            )
        return DegreeInterval(None, r - m, r)
    degree = r - delta
    if not r - m <= degree <= r:
        raise WindowViolatedError(
            f"degree {degree} of (B^{r})[{l}][0] outside [{r - m}, {r}]"
        )
    return DegreeInterval(degree, r - m, r)


@lru_cache(maxsize=1)
def _distances_from_first(rows) -> tuple[int | None, ...]:
    """The fewest steps from row 0 to each row (None where none leads),
    a step from k to i wherever rows[i][k] is nonzero, after checking
    `diagonal_degree_interval`'s preconditions on the matrix.

    Only the previous matrix is kept, so no answer outlives a change of
    matrix; a refused matrix is checked, and refused, again on every call.
    """
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise PreconditionError("matrix must be square")
        for j, x in enumerate(row):
            if not is_int(x):
                raise PreconditionError(f"entry ({i},{j}) must be an int, got {x!r}")
        if min(row) < 0:
            raise PreconditionError("entries must be non-negative")
        if row[i] == 0:
            raise PreconditionError(f"diagonal entry ({i},{i}) is zero")
        if i > 0 and not any(row[:i]):
            raise PreconditionError(f"row {i} has no entry before the diagonal")
    distance = [None] * m
    distance[0] = 0
    frontier = [0]
    for k in frontier:  # also visits the rows appended below: breadth-first
        for i in range(m):
            if distance[i] is None and rows[i][k]:
                distance[i] = distance[k] + 1
                frontier.append(i)
    return tuple(distance)


def shape_checks(grid, zero, depths, abelian) -> list[CheckResult]:
    """The five shape checks that every branching matrix, finite or
    symbolic, passes; exactly the entries of `grid` above `zero` are present.

    depths and abelian label the type behind each row/column: a present
    first-column entry exactly on the depth-one rows, a zero first row
    after the corner, a pre-diagonal entry in every later row, abelian
    columns present only on the diagonal, and the largest entry (alpha)
    on the diagonal of an abelian type.
    """
    size = len(grid)
    present = [[x > zero for x in row] for row in grid]
    checks = []

    bad = [i for i in range(size) if present[i][0] != (depths[i] == 1)]
    checks.append(
        CheckResult("first_column_is_depth_one", not bad, f"rows {bad}" if bad else "")
    )

    bad = [j for j in range(1, size) if present[0][j]]
    checks.append(
        CheckResult("first_row_zero_after_corner", not bad, f"columns {bad}" if bad else "")
    )

    bad = [i for i in range(1, size) if not any(present[i][:i])]
    checks.append(
        CheckResult("prediagonal_entry_every_row", not bad, f"rows {bad}" if bad else "")
    )

    detail = ""
    for j in range(size):
        if abelian[j]:
            nonzero = [i for i in range(size) if present[i][j]]
            if nonzero != [j]:
                detail = f"abelian column {j} supported on rows {nonzero}"
                break
    checks.append(CheckResult("abelian_columns_diagonal_only", not detail, detail))

    alpha = max((x for row in grid for x in row), default=zero)
    diag_max = max((grid[i][i] for i in range(size) if abelian[i]), default=zero)
    if alpha <= zero:
        detail = "matrix has no nonzero entry"
    elif not any(abelian):
        detail = f"alpha={alpha}, no abelian type"
    elif alpha != diag_max:
        detail = f"alpha={alpha}, abelian diagonal max={diag_max}"
    else:
        detail = ""
    checks.append(CheckResult("max_degree_on_abelian_diagonal", not detail, detail))
    return checks


def verify_symbolic_structure(matrix: PsiMatrix) -> StructureReport:
    """Structural checks for a symbolic branching matrix.

    A monomial diagonal with psi^center_dim in the corner, then the five
    `shape_checks` on the exponent grid, -1 marking its zero entries.
    """
    grid = matrix.grid
    size = matrix.size
    if len(matrix.depths) != size or len(matrix.abelian) != size:
        raise PreconditionError("depth/abelian metadata must label every row")

    corner = grid[0][0]
    ok = corner >= 0 and corner == matrix.center_dim
    checks = [CheckResult("corner_is_center_dim", ok, "" if ok else repr(_monomial(corner)))]

    bad = [(i, i) for i in range(size) if grid[i][i] < 0]
    checks.append(CheckResult("diagonal_monomials", not bad, f"{bad}" if bad else ""))
    checks += shape_checks(grid, -1, matrix.depths, matrix.abelian)
    return StructureReport(tuple(checks))

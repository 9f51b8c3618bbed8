"""Exact commuting-tuple statistics for finite groups.

c(d) counts simultaneous conjugacy classes of commuting d-tuples and equals
1 . B^d . e1 over the branching matrix B; the number of commuting d-tuples
is |G| * c(d-1) and the commuting probability is that count over |G|^d.
An independent cross-check comes from Burnside orbit counting: the orbit
count of G on commuting d-tuples is |C_{d+1}(G)| / |G| where
|C_{k+1}(H)| = sum over g in H of |C_k(Z_H(g))|.  Everything is exact:
arbitrary-precision integers and fractions, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .branching import branching_matrix
from .errors import CapExceededError, InexactDivisionError, InvalidFamilyError
from .fields import is_prime_power
from .groups import FiniteGroup, Subgroup


def class_count(group: FiniteGroup, d: int) -> int:
    """Number of simultaneous conjugacy classes of commuting d-tuples."""
    if d < 0:
        raise ValueError("d must be >= 0")
    matrix, _ = branching_matrix(group)
    return matrix.first_column_sums(d)[d]


def class_count_sequence(group: FiniteGroup, dmax: int) -> list[int]:
    """[c(0), c(1), ..., c(dmax)] in one pass."""
    matrix, _ = branching_matrix(group)
    return matrix.first_column_sums(dmax)


def oracle_class_count(group: FiniteGroup, d: int, cap: int = 500) -> int:
    """Burnside orbit count of commuting d-tuples, independent of the matrix.

    Memoised on the member set of the subgroup under recursion.  Intended
    as a small-instance validator only; refuses groups above `cap`.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if group.order > cap:
        raise CapExceededError(f"group of order {group.order} exceeds oracle cap {cap}")
    memo: dict[tuple, int] = {}
    total = _commuting_tuple_count(group, tuple(range(group.order)), d + 1, memo)
    orbits, remainder = divmod(total, group.order)
    if remainder:
        raise InexactDivisionError(
            f"|C_{d + 1}| = {total} is not divisible by |G| = {group.order}"
        )
    return orbits


def commuting_tuple_total(group: FiniteGroup, d: int, cap: int = 500) -> int:
    """Exact number of commuting d-tuples by the same recursion as the oracle."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if group.order > cap:
        raise CapExceededError(f"group of order {group.order} exceeds oracle cap {cap}")
    return _commuting_tuple_count(group, tuple(range(group.order)), d, {})


def _commuting_tuple_count(group, members: tuple[int, ...], k: int, memo) -> int:
    if k == 1:
        return len(members)
    key = (members, k)
    cached = memo.get(key)
    if cached is not None:
        return cached
    mul = group.mul
    total = 0
    for g in members:
        cent = tuple(x for x in members if mul(x, g) == mul(g, x))
        total += _commuting_tuple_count(group, cent, k - 1, memo)
    memo[key] = total
    return total


def commuting_count(group: FiniteGroup, d: int) -> int:
    """Number of commuting d-tuples, via the branching matrix."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return group.order * class_count(group, d - 1)


def cp(group: FiniteGroup, d: int) -> Fraction:
    """Commuting probability of a d-tuple; cp(G, 1) == 1."""
    return Fraction(commuting_count(group, d), group.order**d)


def max_abelian(group: FiniteGroup) -> tuple[int, Subgroup]:
    """Largest abelian centralizer type: (order, witness subgroup).

    Cross-checked against the largest matrix entry, which must agree.
    """
    matrix, registry = branching_matrix(group)
    best: Subgroup | None = None
    for tid in registry.abelian_type_ids():
        sub = registry.entry(tid).centralizer
        if best is None or sub.order > best.order:
            best = sub
    if best is None:
        raise RuntimeError("no abelian type registered; construction bug")
    if best.order != matrix.max_entry():
        raise RuntimeError(
            f"abelian order {best.order} disagrees with max entry {matrix.max_entry()}"
        )
    return best.order, best


@dataclass(frozen=True)
class RatioReport:
    """Exact c(d)/a^d sequence with a convergence snapshot, the abelian
    order a and the counts c(0), ..., c(dmax) it was computed from."""

    ratios: tuple[Fraction, ...]
    estimate: Fraction
    last_delta: Fraction
    max_abelian_order: int
    counts: tuple[int, ...]


def asymptotic_ratio(group: FiniteGroup, dmax: int) -> RatioReport:
    """Sequence r_d = c(d)/a^d for d = 1..dmax.

    r_dmax is reported as the running estimate of the leading constant; the
    last successive difference indicates how settled it is.  No limit is
    claimed.
    """
    if dmax < 3:
        raise ValueError("dmax must be >= 3")
    a, _ = max_abelian(group)
    counts = class_count_sequence(group, dmax)
    ratios = tuple(Fraction(counts[d], a**d) for d in range(1, dmax + 1))
    return RatioReport(ratios, ratios[-1], abs(ratios[-1] - ratios[-2]), a, tuple(counts))


_FAMILIES = ("GL", "U", "Sp", "O")


@dataclass(frozen=True)
class FamilySpec:
    """A classical group family member: GL_n(q), U_n(q), Sp_2l(q) or O_2l(q)."""

    family: str
    size: int
    q: int


@dataclass(frozen=True)
class FamilyAsymptote:
    order: int
    max_abelian_order: int
    base: Fraction


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def family_order(family: str, size: int, q: int) -> int:
    """Group order by the standard product formulas (algebraic in q)."""
    if family == "GL":
        n = size
        return q ** (n * (n - 1) // 2) * _prod(q**i - 1 for i in range(1, n + 1))
    if family == "U":
        n = size
        return q ** (n * (n - 1) // 2) * _prod(q**i - (-1) ** i for i in range(1, n + 1))
    if family == "Sp":
        l = size
        return q ** (l * l) * _prod(q ** (2 * i) - 1 for i in range(1, l + 1))
    if family == "O":
        l = size
        return 2 * q ** (l * (l - 1)) * _prod(q ** (2 * i) - 1 for i in range(1, l + 1))
    raise InvalidFamilyError(f"unknown family {family!r}")


def family_max_abelian(family: str, size: int, q: int) -> int:
    """Maximal abelian subgroup order for the family (algebraic in q).

    GL_2 and GL_3 are anisotropic tori; from n = 4 on the winner is a
    unipotent block times the centre, and the unitary values are the
    q -> -q mirror of the linear ones.
    """
    if family == "GL":
        n = size
        if n == 2:
            return q**2 - 1
        if n == 3:
            return q**3 - 1
        return q ** (n * n // 4) * (q - 1)
    if family == "U":
        n = size
        if n == 2:
            return (q + 1) ** 2
        if n == 3:
            return (q + 1) ** 3
        return q ** (n * n // 4) * (q + 1)
    if family == "Sp":
        l = size
        if l == 1:
            return 2 * q
        return 2 * q ** (l * (l + 1) // 2)
    if family == "O":
        l = size
        return 2 * q ** (l * (l - 1) // 2)
    raise InvalidFamilyError(f"unknown family {family!r}")


def family_base(family: str, size: int, q: int) -> Fraction:
    """Reduced a/|G| for the family, evaluated algebraically.

    Accepts any integer q that does not zero the order formula, so the
    q -> -q comparison between GL and U can be carried out exactly.
    """
    order = family_order(family, size, q)
    if order == 0:
        raise InvalidFamilyError(f"order formula vanishes at q={q}")
    return Fraction(family_max_abelian(family, size, q), order)


def family_asymptote(spec: FamilySpec) -> FamilyAsymptote:
    """Validated order / maximal-abelian / base triple for a family member.

    The commuting probability of a d-tuple decays like base**(d-1) up to a
    constant.  Sp and O require odd q.
    """
    if spec.family not in _FAMILIES:
        raise InvalidFamilyError(f"family must be one of {_FAMILIES}, got {spec.family!r}")
    if not is_prime_power(spec.q):
        raise InvalidFamilyError(f"q must be a prime power >= 2, got {spec.q}")
    if spec.family in ("GL", "U") and spec.size < 2:
        raise InvalidFamilyError(f"{spec.family} needs size >= 2, got {spec.size}")
    if spec.family == "Sp" and spec.size < 1:
        raise InvalidFamilyError(f"Sp needs size >= 1, got {spec.size}")
    if spec.family == "O" and spec.size < 2:
        raise InvalidFamilyError(f"O needs size >= 2, got {spec.size}")
    if spec.family in ("Sp", "O") and spec.q % 2 == 0:
        raise InvalidFamilyError(f"{spec.family} requires odd q, got {spec.q}")
    return FamilyAsymptote(
        family_order(spec.family, spec.size, spec.q),
        family_max_abelian(spec.family, spec.size, spec.q),
        family_base(spec.family, spec.size, spec.q),
    )


def lie_type_estimate(n_dim: int, alpha: int, q: int, d: int) -> int:
    """Leading-order size estimate q**(n + (d-1)*alpha) of commuting d-tuples."""
    if not n_dim >= alpha >= 1:
        raise ValueError(f"need n_dim >= alpha >= 1, got {n_dim}, {alpha}")
    if d < 1:
        raise ValueError("d must be >= 1")
    return q ** (n_dim + (d - 1) * alpha)

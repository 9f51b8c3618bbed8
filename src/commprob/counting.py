"""Exact commuting-tuple statistics for finite groups.

c(d) counts simultaneous conjugacy classes of commuting d-tuples and equals
1 . B^d . e1 over the branching matrix B; the number of commuting d-tuples
is |G| * c(d-1) and the commuting probability is that count over |G|^d.

A single count is read off an exact exponential sum,
c(d) = sum over z of kappa_z * z^d, where z runs over the m distinct
diagonal values |Z(H_tau)| of B and each kappa_z is rational
(`class_count_form`).  The sum is proved, not fitted: m sparse products
check that p(B) e1 = 0 for p(x) = prod over z of (x - z), so c(d) obeys
the linear recurrence with the distinct roots z at every d >= 0, and the
kappa_z then follow from c(0), ..., c(m-1) by Lagrange interpolation in
integers.  For a branching matrix the check cannot fail: along an edge
H_a < H_tau^g the centres strictly shrink (C_G(H) = Z(H) for a
centralizer), so no path joins two equal diagonal values.  If it fails
anyway, the matrix is refused with `CertificateError`.  The form is built
once per matrix and cached on it; `class_count`, `commuting_count` and
`cp` then cost m powers and one exact division, whatever d is.
`class_count_sequence` still walks B, because it returns every value up
to d.

An independent cross-check comes from Burnside orbit counting: the orbit
count of G on commuting d-tuples is |C_{d+1}(G)| / |G| where
|C_{k+1}(H)| = sum over g in H of |C_k(Z_H(g))|.  The oracle represents
each member set as an int bitmask, takes every centralizer as an AND with a
commutation mask, and evaluates every k by one dynamic programme over the
DAG of centralizers reachable from G.  Elements share centralizers, so
one mask is packed per distinct centralizer and handed to every element
that has it.  The classes are found by the oracle's own orbit pass under
conjugation tables (`FiniteGroup.conjugation_table`, no product), which
gives every class size.  The centralizer of a class representative r with
no mask yet is closed at its known order |G| / |class(r)| by
`groups.close_subgroup`: two products for each element tested against r,
and none tested once that order is reached.  Its conjugates are then
walked breadth-first under the tables, C(h.r.h^-1) = h.C(r).h^-1, one
mask per conjugate, so a class whose centralizers an earlier walk reached
closes nothing.  The masks and the DAG are built once per group, on
its first oracle call, and the DAG is cached on it; later calls run only
the dynamic programme.  It uses nothing from the conjugacy
classes or the branching matrix it checks.  Everything is exact:
arbitrary-precision integers and fractions, no floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .branching import BranchingMatrix, branching_matrix
from .errors import (
    CapExceededError,
    CertificateError,
    InexactDivisionError,
    InvalidFamilyError,
    OutputTooLargeError,
)
from .fields import is_prime_power
from .groups import FiniteGroup, Subgroup, close_subgroup, require_int


def class_count(group: FiniteGroup, d: int) -> int:
    """Number of simultaneous conjugacy classes of commuting d-tuples, from
    the group's certified exponential sum (`class_count_form`)."""
    require_int(d, 0)
    bases, numerators, denominator = _certified_form(branching_matrix(group)[0])
    total = sum(n * z**d for z, n in zip(bases, numerators))
    count, remainder = divmod(total, denominator)
    if remainder:
        raise InexactDivisionError(f"c({d}) = {total}/{denominator} is not an integer")
    return count


def class_count_form(group: FiniteGroup) -> dict[int, Fraction]:
    """{z: kappa_z}, largest base first, with c(d) = sum of kappa_z * z**d
    at every d >= 0; z runs over the distinct diagonal values of the
    branching matrix.  The first entry is the leading term: z is the
    largest abelian centralizer order a, and kappa_a is the limit of
    c(d)/a^d."""
    bases, numerators, denominator = _certified_form(branching_matrix(group)[0])
    return {z: Fraction(n, denominator) for z, n in zip(bases, numerators)}


def _certified_form(matrix: BranchingMatrix) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(bases, numerators, denominator) with c(d) = sum of n * z**d over
    denominator, cached on the matrix.

    Certificate: with v = e1, (B - z) v is applied once per distinct
    diagonal value z, and v must end at 0.  Then every c(d) obeys the
    recurrence whose characteristic polynomial is prod (x - z), and its
    roots are distinct.  kappa_z = sum_k coef_k * c(k) / prod over w != z
    of (z - w), where coef_k are the coefficients of prod over w != z of
    (x - w), so only c(0), ..., c(m-1) are walked.
    """
    if matrix._count_form is not None:
        return matrix._count_form
    entries = matrix.entries
    bases = sorted({entries[i][i] for i in range(matrix.size)}, reverse=True)
    edges = [[(k, x) for k, x in enumerate(row) if x] for row in entries]
    v = [1] + [0] * (matrix.size - 1)
    for z in bases:
        v = [sum(x * v[k] for k, x in row) - z * v[i] for i, row in enumerate(edges)]
    if any(v):
        raise CertificateError(
            f"count-form certificate failed for {matrix!r}: the product of (B - z) over the "
            f"diagonal values {bases} leaves {v} on e1, so c(d) is not a sum of z**d terms"
        )
    counts = matrix.first_column_sums(len(bases) - 1)
    sums, scales = [], []
    for z in bases:
        coefs = [1]  # prod over w != z of (x - w), lowest degree first
        for w in bases:
            if w != z:
                coefs = [a - w * b for a, b in zip([0] + coefs, coefs + [0])]
        sums.append(sum(c * u for c, u in zip(coefs, counts)))
        scales.append(math.prod(z - w for w in bases if w != z))
    denominator = math.lcm(*scales)
    numerators = [t * (denominator // s) for t, s in zip(sums, scales)]
    common = math.gcd(denominator, *numerators)
    matrix._count_form = (
        tuple(bases),
        tuple(n // common for n in numerators),
        denominator // common,
    )
    return matrix._count_form


def class_count_sequence(group: FiniteGroup, dmax: int) -> list[int]:
    """[c(0), c(1), ..., c(dmax)] in one pass."""
    require_int(dmax, 0)
    matrix, _ = branching_matrix(group)
    return matrix.first_column_sums(dmax)


# The largest group the oracle takes unless a call passes its own `cap`.
ORACLE_CAP = 500


def oracle_class_counts(group: FiniteGroup, dmax: int, cap: int = ORACLE_CAP) -> list[int]:
    """Burnside orbit counts [c(1), ..., c(dmax)], independent of the matrix.

    c(d) = |C_{d+1}(G)| / |G| for every d from one pass of
    `_commuting_tuple_totals`.  The group's first oracle call builds its
    centralizer DAG: one commutation mask per distinct centralizer, from one
    closure per conjugacy class of centralizers (`_commutation_masks`),
    plus one bitmask AND per (node, member).  Every later call on the group
    runs only the dynamic programme.  Refuses dmax < 1, then a `cap` that
    is not an int >= 1, then groups above `cap` (default ORACLE_CAP).  Each
    distinct mask takes |G|/8 bytes; with an explicit `cap`, the DAG is the
    cost of a first call on groups of about 10^4 elements.
    """
    require_int(dmax, 1)
    counts = []
    for d, total in enumerate(_commuting_tuple_totals(group, dmax + 1, cap)[1:], start=1):
        orbits, remainder = divmod(total, group.order)
        if remainder:
            raise InexactDivisionError(
                f"|C_{d + 1}| = {total} is not divisible by |G| = {group.order}"
            )
        counts.append(orbits)
    return counts


def oracle_class_count(group: FiniteGroup, d: int, cap: int = ORACLE_CAP) -> int:
    """Burnside orbit count c(d) of commuting d-tuples; see `oracle_class_counts`."""
    return oracle_class_counts(group, d, cap)[-1]


def commuting_tuple_total(group: FiniteGroup, d: int, cap: int = ORACLE_CAP) -> int:
    """Exact number of commuting d-tuples by the same recursion as the
    oracle, with the same refusals: d < 1, then groups above `cap`."""
    require_int(d, 1)
    return _commuting_tuple_totals(group, d, cap)[-1]


def _commuting_tuple_totals(group: FiniteGroup, kmax: int, cap: int) -> list[int]:
    """[|C_1(G)|, ..., |C_kmax(G)|], where C_k(H) is the set of commuting
    k-tuples of H, by |C_k(H)| = sum over g in H of |C_{k-1}(C_H(g))|.

    One pass per k over the group's centralizer DAG gives
    f_k(M) = sum of mult * f_{k-1}(child) from f_1(M) = |M|; the DAG is
    built on the group's first oracle call and reused after it.  The one
    cap check of the oracle: a `cap` that is not an int >= 1 is refused,
    then a group above `cap`, before its DAG.
    """
    require_int(cap, 1, "cap")
    if group.order > cap:
        raise CapExceededError(f"group of order {group.order} exceeds oracle cap {cap}")
    sizes, children = _centralizer_dag(group)
    f = sizes
    totals = [f[0]]
    for _ in range(kmax - 1):
        f = [sum(m * f[c] for c, m in kids) for kids in children]
        totals.append(f[0])
    return totals


def _commutation_masks(group: FiniteGroup) -> list[int]:
    """comm[g], the bitmask of the elements commuting with g, for every g.

    Elements share centralizers, so one mask is packed per distinct
    centralizer, not per element.  Conjugation by each generator is a
    permutation of the indices (`FiniteGroup.conjugation_table`, no
    product).  One orbit pass under the permutations gives every class
    size; an element of a class of size 1 is central and gets the full
    mask.  For a class representative r with no mask yet, |C(r)| =
    |G| / |class(r)| (orbit-stabilizer), and `close_subgroup` stops there,
    closing over the centre, r, then the elements found to commute with r
    (two products a test).  S (`same`), the members w of C(r) with
    |class(w)| = |class(r)| that commute with its closure generators, is
    exactly the w with C(w) = C(r).  A breadth-first walk then takes the
    conjugates of C(r): a permutation p maps a node (members, S) to
    (p[members], p[S]), a node whose first S element already has a mask is
    skipped, and each new node packs one mask and gives that int to all of
    its S.  So a class whose elements got masks from an earlier walk
    closes nothing.
    Only `mul`, `conj`, `conjugation_table` and `generators` are used.
    """
    n, mul, conj = group.order, group.mul, group.conj
    perms = [group.conjugation_table(s) for s in group.generators]
    class_of, sizes, reps = [-1] * n, [], []
    for x in range(n):
        if class_of[x] < 0:
            k = class_of[x] = len(sizes)
            orbit = [x]
            for y in orbit:  # also visits the class elements appended below
                for p in perms:
                    z = p[y]
                    if class_of[z] < 0:
                        class_of[z] = k
                        orbit.append(z)
            sizes.append(len(orbit))
            reps.append(x)
    size = [sizes[k] for k in class_of]
    full = (1 << n) - 1
    comm = [full if s == 1 else None for s in size]
    central = [x for x in range(n) if size[x] == 1]
    noncentral = [x for x in range(n) if size[x] > 1]

    def node(members, same):
        """The node, once its mask is packed and given to all of `same`."""
        mask = _bitmask(members, n)
        for w in same:
            comm[w] = mask
        return members, same

    for r in reps:
        if comm[r] is not None:
            continue
        commuting = (x for x in noncentral if mul(x, r) == mul(r, x))
        members, gens = close_subgroup(mul, chain(central, [r], commuting), n // size[r])
        same = [w for w in members if size[w] == size[r] and all(conj(s, w) == w for s in gens)]
        nodes = [node(members, same)]
        for members, same in nodes:  # also visits the conjugates appended below
            for p in perms:
                if comm[p[same[0]]] is None:
                    image = p.__getitem__
                    nodes.append(node(list(map(image, members)), list(map(image, same))))
    return comm


def _bitmask(members, n: int) -> int:
    """The n-bit int with bit m set for each m in `members`."""
    bits = bytearray((n + 7) // 8)
    for m in members:
        bits[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(bits, "little")


def _centralizer_dag(group: FiniteGroup) -> tuple[tuple[int, ...], tuple]:
    """(sizes, children) of the member sets reachable from G by taking
    centralizers, cached on the group; node 0 is G.

    A member set is an int bitmask and comm[g] holds the elements commuting
    with g (`_commutation_masks`), so C_M(g) = M & comm[g].  Each node
    records its children as (child id, multiplicity) pairs; the masks are
    dropped once the ids are assigned.
    """
    if group._centralizer_dag is not None:
        return group._centralizer_dag
    comm = _commutation_masks(group)
    full = comm[0]
    children: dict[int, dict[int, int]] = {}
    pending = [full]
    while pending:
        node = pending.pop()
        if node in children:
            continue
        mults: dict[int, int] = {}
        rest = node
        while rest:
            low = rest & -rest
            child = node & comm[low.bit_length() - 1]
            mults[child] = mults.get(child, 0) + 1
            rest ^= low
        children[node] = mults
        pending.extend(child for child in mults if child not in children)
    ids = {node: i for i, node in enumerate(children)}  # G is popped first
    group._centralizer_dag = (
        tuple(node.bit_count() for node in children),
        tuple(tuple((ids[c], m) for c, m in mults.items()) for mults in children.values()),
    )
    return group._centralizer_dag


def commuting_count(group: FiniteGroup, d: int) -> int:
    """Number of commuting d-tuples, via the branching matrix."""
    require_int(d, 1)
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
    require_int(dmax, 3, "dmax")
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


def family_order(family: str, size: int, q: int) -> int:
    """Group order by the standard product formulas (algebraic in q)."""
    if family == "GL":
        n = size
        return q ** (n * (n - 1) // 2) * math.prod(q**i - 1 for i in range(1, n + 1))
    if family == "U":
        n = size
        return q ** (n * (n - 1) // 2) * math.prod(q**i - (-1) ** i for i in range(1, n + 1))
    if family == "Sp":
        l = size
        return q ** (l * l) * math.prod(q ** (2 * i) - 1 for i in range(1, l + 1))
    if family == "O":
        l = size
        return 2 * q ** (l * (l - 1)) * math.prod(q ** (2 * i) - 1 for i in range(1, l + 1))
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


def _refuse_unprintable(base: int, exponent: int, what: str) -> None:
    """Raise OutputTooLargeError unless every integer below 2 * base**exponent
    has few enough digits to be printed, from logarithms alone.

    The limit is the interpreter's int-to-str digit limit, or its default
    of 4300 where there is none, so that no input makes a huge power.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    # 2**1000 bits is past any limit, and keeps the float product finite
    log2_bound = min(exponent, 2**1000) * math.log2(base) + 1
    digits = math.floor(log2_bound * math.log10(2)) + 1
    if digits > limit:
        raise OutputTooLargeError(
            f"{what} could have {digits} digits; integers print with at most {limit}"
        )


def family_base_power(base: Fraction, e: int) -> Fraction:
    """base**e (e >= 0), refused before it is computed when its numerator or
    denominator could not be printed."""
    _refuse_unprintable(max(base.numerator, base.denominator), e, f"base**{e}")
    return base**e


def family_asymptote(spec: FamilySpec) -> FamilyAsymptote:
    """Validated order / maximal-abelian / base triple for a family member.

    The commuting probability of a d-tuple decays like base**(d-1) up to a
    constant.  Sp and O require odd q.  A member whose order could not be
    printed is refused before the order is computed.
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
    # |G| < 2 * q**dim by the order formulas, with dim = n^2 for GL_n and
    # U_n, and dim <= 2l^2 + l for Sp_2l and O_2l
    n = spec.size
    dim = n * n if spec.family in ("GL", "U") else 2 * n * n + n
    _refuse_unprintable(spec.q, dim, f"the order of {spec.family}_{n}({spec.q})")
    # a prime power q >= 2 zeroes no order formula, so a / |G| is the base
    order = family_order(spec.family, spec.size, spec.q)
    a = family_max_abelian(spec.family, spec.size, spec.q)
    return FamilyAsymptote(order, a, Fraction(a, order))


def lie_type_estimate(n_dim: int, alpha: int, q: int, d: int) -> int:
    """Leading-order size estimate q**(n + (d-1)*alpha) of commuting d-tuples."""
    if not n_dim >= alpha >= 1:
        raise ValueError(f"need n_dim >= alpha >= 1, got {n_dim}, {alpha}")
    require_int(d, 1)
    return q ** (n_dim + (d - 1) * alpha)

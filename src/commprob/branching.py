"""Branching matrices of finite groups.

The branching matrix B of a group G is indexed by the types of commuting
tuples, where the type of a tuple is the G-conjugacy class of its common
centralizer.  Column tau records, for each type a, how many conjugacy
classes of H = centralizer(tau) lie in z-classes of H whose centralizer has
type a.  The construction walks a worklist: start from the type of the
identity (centralizer G), compute the z-classes of each centralizer,
register newly seen centralizer types, and stop once every type has been
processed; abelian centralizers close the recursion since their single
z-class points back at themselves.

Construction is sequential per group (type ids depend on discovery order);
finished matrices and registries are read-only and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugacy import conjugacy_classes, subgroup_conjugate, z_classes
from .errors import PreconditionError, UnknownTypeError
from .groups import FiniteGroup, Subgroup, center
from .report import CheckResult, StructureReport
from .symbolic import exact_power, exact_walk, topological_order


@dataclass(frozen=True)
class TypeEntry:
    """One registered tuple type: witness tuple, its centralizer, tuple length."""

    representative: tuple[int, ...]
    centralizer: Subgroup
    depth: int


class TypeRegistry:
    """Catalogue of tuple types, identified up to conjugacy of centralizers.

    Type 0 is always the type of the identity tuple, i.e. the group itself.
    Registration order is the canonical id order; lookups never depend on
    anything but the stored centralizers.  This is the one mutable container
    in the package: registrations must be serialized by the caller.

    A lookup tries the types in id order.  `subgroup_conjugate` rejects a
    type whose centralizer differs from the subgroup in order or in
    `fingerprint` (the multiset of G-class ids of its members, which
    conjugation keeps) before any transporter search.  Registered types are
    pairwise non-conjugate, so at most one type matches a subgroup, and the
    scan order cannot change the type id a lookup returns.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.types: list[TypeEntry] = []
        self._register(Subgroup.whole(group), (0,))

    def __len__(self) -> int:
        return len(self.types)

    def entry(self, type_id: int) -> TypeEntry:
        if not 0 <= type_id < len(self.types):
            raise UnknownTypeError(f"type {type_id} not registered (have {len(self.types)})")
        return self.types[type_id]

    def lookup(self, subgroup: Subgroup) -> int | None:
        for tid, entry in enumerate(self.types):
            if subgroup_conjugate(self.group, entry.centralizer, subgroup) is not None:
                return tid
        return None

    def _register(self, subgroup: Subgroup, representative: tuple[int, ...]) -> int:
        tid = len(self.types)
        self.types.append(TypeEntry(representative, subgroup, len(representative)))
        return tid

    def lookup_or_register(self, subgroup: Subgroup, representative: tuple[int, ...]) -> tuple[int, bool]:
        tid = self.lookup(subgroup)
        if tid is not None:
            return tid, False
        rep = tuple(x for x in representative if x != 0) or (0,)
        return self._register(subgroup, rep), True

    def abelian_type_ids(self) -> list[int]:
        return [tid for tid, entry in enumerate(self.types) if entry.centralizer.is_abelian]


class BranchingMatrix:
    """Square non-negative integer matrix over tuple types.

    Row and column i belong to type i of the group's registry.  Powers and
    walks run on the exact matrix kernel of `symbolic` over ints.
    """

    def __init__(self, entries):
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        # the certified (bases, numerators, denominator) of c(d), set on
        # first use by `counting.class_count_form`
        self._count_form = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def power(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Plain d-th matrix power (d >= 0) as tuples."""
        return exact_power(self.entries, d, 0, 1)

    def first_column_sums(self, dmax: int) -> list[int]:
        """[1 . B^d . e_0, for d = 0..dmax], e_0 the column of type 0."""
        return [1] + [sum(v) for v in exact_walk(self.entries, 0, dmax, 0, 1)]

    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, BranchingMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"BranchingMatrix(size={self.size})"


def branching_matrix(group: FiniteGroup) -> tuple[BranchingMatrix, TypeRegistry]:
    """Construct the branching matrix and type registry of a finite group.

    Types are processed in registration order.  For a type tau with
    centralizer H, the z-classes of H are computed with centralizers and
    conjugacy inside H; each z-class contributes its class count to the
    entry at (G-type of its centralizer, tau).  Two z-classes of H whose
    centralizers are conjugate in G but not in H land in the same entry and
    their counts add up.  The result is cached on the group.
    """
    if group._branching is not None:
        return group._branching
    registry = TypeRegistry(group)
    data: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(registry):
        entry = registry.types[pos]
        h = entry.centralizer
        if h.is_abelian:
            data[(pos, pos)] = h.order
            pos += 1
            continue
        for zc in z_classes(group, h):
            tid, _ = registry.lookup_or_register(
                zc.centralizer, entry.representative + (zc.representative,)
            )
            data[(tid, pos)] = data.get((tid, pos), 0) + len(zc.class_ids)
        pos += 1
    beta = len(registry)
    entries = [[data.get((i, j), 0) for j in range(beta)] for i in range(beta)]
    result = (BranchingMatrix(entries), registry)
    group._branching = result
    return result


def verify_structure(matrix: BranchingMatrix, registry: TypeRegistry) -> StructureReport:
    """Check the structural properties of a finite branching matrix.

    Returns a per-property report; a failing check carries the offending
    coordinates so tampered matrices are easy to diagnose.
    """
    group = registry.group
    checks = []
    entries = matrix.entries
    beta = matrix.size

    center_orders = [center(group, within=registry.entry(i).centralizer).order for i in range(beta)]
    ok, detail = True, ""
    for i in range(beta):
        if entries[i][i] != center_orders[i]:
            ok, detail = False, f"diagonal at type {i}: {entries[i][i]} != {center_orders[i]}"
            break
    checks.append(CheckResult("diagonal_is_center_order", ok, detail))

    ok = entries[0][0] == center_orders[0]
    checks.append(
        CheckResult("first_entry_is_group_center", ok, "" if ok else f"(0,0)={entries[0][0]}")
    )

    bad = [j for j in range(1, beta) if entries[0][j] != 0]
    checks.append(
        CheckResult("first_row_zero_after_diagonal", not bad, f"columns {bad}" if bad else "")
    )

    bad = [i for i in range(1, beta) if not any(entries[i][j] for j in range(i))]
    checks.append(
        CheckResult("prediagonal_entry_every_row", not bad, f"rows {bad}" if bad else "")
    )

    # a nonzero entry (a, tau) off the diagonal puts C(a) properly inside a
    # conjugate of C(tau), so the only cycles are loops
    detail = ""
    try:
        topological_order([[k for k, x in enumerate(row) if x] for row in entries])
    except PreconditionError as exc:
        detail = str(exc)
    checks.append(CheckResult("acyclic_apart_from_loops", not detail, detail))

    ok, detail = True, ""
    for j in range(beta):
        sub = registry.entry(j).centralizer
        if not sub.is_abelian:
            continue
        nonzero = [i for i in range(beta) if entries[i][j]]
        if nonzero != [j] or entries[j][j] != sub.order:
            ok, detail = False, f"abelian column for type {j}"
            break
    checks.append(CheckResult("abelian_columns_diagonal_only", ok, detail))

    ok, detail = True, ""
    for j in range(beta):
        sub = registry.entry(j).centralizer
        expected = conjugacy_classes(group, within=sub).count
        got = sum(entries[i][j] for i in range(beta))
        if got != expected:
            ok, detail = False, f"column {j} sums to {got}, classes {expected}"
            break
    checks.append(CheckResult("column_sums_are_class_counts", ok, detail))

    expected = conjugacy_classes(group).count
    got = sum(entries[i][0] for i in range(beta))
    checks.append(
        CheckResult(
            "first_column_counts_group_classes",
            got == expected,
            "" if got == expected else f"{got} != {expected}",
        )
    )

    checks.append(CheckResult("finite_size", beta == len(registry) > 0, ""))
    return StructureReport(tuple(checks))


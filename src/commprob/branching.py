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

from .conjugacy import centralizer, commuting_tuple, conjugacy_classes, subgroup_conjugate, z_classes
from .errors import UnknownTypeError
from .groups import FiniteGroup, Subgroup
from .report import CheckResult, StructureReport


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
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.types: list[TypeEntry] = [
            TypeEntry((0,), Subgroup.whole(group), 1)
        ]

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

    def lookup_or_register(self, subgroup: Subgroup, representative: tuple[int, ...]) -> tuple[int, bool]:
        tid = self.lookup(subgroup)
        if tid is not None:
            return tid, False
        rep = tuple(x for x in representative if x != 0) or (0,)
        self.types.append(TypeEntry(rep, subgroup, len(rep)))
        return len(self.types) - 1, True

    def abelian_type_ids(self) -> list[int]:
        return [tid for tid, entry in enumerate(self.types) if entry.centralizer.is_abelian]


def tuple_z_type(group: FiniteGroup, tup, registry: TypeRegistry) -> int:
    """Type id of a commuting tuple's centralizer, registering it if unseen.

    The empty tuple has centralizer G and therefore type 0.
    """
    t = commuting_tuple(group, tup)
    cent = centralizer(group, t)
    tid, _ = registry.lookup_or_register(cent, t)
    return tid


class BranchingMatrix:
    """Square non-negative integer matrix over tuple types.

    `labels[i]` is the type id of row/column position i; the full matrix of
    a group has labels 0..size-1, a submatrix keeps the original ids.
    """

    def __init__(self, entries, labels=None):
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        self.labels = tuple(labels) if labels is not None else tuple(range(len(self.entries)))
        if len(self.labels) != len(self.entries):
            raise ValueError("labels and entries disagree in size")
        self._pos = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.entries)

    def position(self, label: int) -> int:
        if label not in self._pos:
            raise UnknownTypeError(f"type {label} not in matrix labels")
        return self._pos[label]

    def entry(self, row_label: int, col_label: int) -> int:
        return self.entries[self.position(row_label)][self.position(col_label)]

    def column_sum(self, col_label: int) -> int:
        j = self.position(col_label)
        return sum(row[j] for row in self.entries)

    def power(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Plain d-th matrix power (d >= 0) as tuples, labels unchanged."""
        n = self.size
        result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        base = [list(row) for row in self.entries]
        e = d
        while e:
            if e & 1:
                result = _int_matmul(result, base)
            e >>= 1
            if e:
                base = _int_matmul(base, base)
        return tuple(tuple(row) for row in result)

    def first_column_sums(self, dmax: int) -> list[int]:
        """[1 . B^d . e, for d = 0..dmax] against the column of type labels[0]."""
        n = self.size
        v = [1] + [0] * (n - 1)
        sums = [1]
        for _ in range(dmax):
            v = [sum(self.entries[i][k] * v[k] for k in range(n) if v[k]) for i in range(n)]
            sums.append(sum(v))
        return sums

    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BranchingMatrix)
            and self.entries == other.entries
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"BranchingMatrix(size={self.size})"


def _int_matmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x) for col in bt] for row in a]


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


def branching_submatrix(matrix: BranchingMatrix, registry: TypeRegistry, type_id: int) -> BranchingMatrix:
    """Restriction of the matrix to the types reachable from `type_id`.

    Reachable means the type itself, its branches (the nonzero rows of its
    column), branches of branches, and so on.  Row/column order of the
    parent matrix is preserved and the original type ids are kept as labels.
    """
    registry.entry(type_id)
    _ = matrix.position(type_id)
    reached = {type_id}
    frontier = [type_id]
    while frontier:
        tau = frontier.pop()
        j = matrix.position(tau)
        for i, row in enumerate(matrix.entries):
            if row[j] and matrix.labels[i] not in reached:
                reached.add(matrix.labels[i])
                frontier.append(matrix.labels[i])
    keep = [i for i, lab in enumerate(matrix.labels) if lab in reached]
    entries = [[matrix.entries[i][j] for j in keep] for i in keep]
    return BranchingMatrix(entries, labels=[matrix.labels[i] for i in keep])


def verify_structure(matrix: BranchingMatrix, registry: TypeRegistry) -> StructureReport:
    """Check the structural properties of a finite branching matrix.

    Returns a per-property report; a failing check carries the offending
    coordinates so tampered matrices are easy to diagnose.
    """
    group = registry.group
    checks = []
    entries = matrix.entries
    beta = matrix.size

    def subgroup_center_order(sub: Subgroup) -> int:
        mul = group.mul
        return sum(
            1 for x in sub.members if all(mul(x, y) == mul(y, x) for y in sub.members)
        )

    ok, detail = True, ""
    for i, lab in enumerate(matrix.labels):
        expected = subgroup_center_order(registry.entry(lab).centralizer)
        if entries[i][i] != expected:
            ok, detail = False, f"diagonal at type {lab}: {entries[i][i]} != {expected}"
            break
    checks.append(CheckResult("diagonal_is_center_order", ok, detail))

    ok = entries[0][0] == subgroup_center_order(registry.entry(matrix.labels[0]).centralizer)
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

    ok, detail = True, ""
    for j, lab in enumerate(matrix.labels):
        sub = registry.entry(lab).centralizer
        if not sub.is_abelian:
            continue
        nonzero = [i for i in range(beta) if entries[i][j]]
        if nonzero != [j] or entries[j][j] != sub.order:
            ok, detail = False, f"abelian column for type {lab}"
            break
    checks.append(CheckResult("abelian_columns_diagonal_only", ok, detail))

    ok, detail = True, ""
    for j, lab in enumerate(matrix.labels):
        sub = registry.entry(lab).centralizer
        expected = conjugacy_classes(group, within=sub).count
        got = sum(entries[i][j] for i in range(beta))
        if got != expected:
            ok, detail = False, f"column {lab} sums to {got}, classes {expected}"
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

    checks.append(CheckResult("finite_size", beta == len(matrix.labels) > 0, ""))
    return StructureReport(tuple(checks))


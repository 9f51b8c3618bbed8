"""Branching matrices of finite groups.

The branching matrix B of a group G is indexed by the types of commuting
tuples, where the type of a tuple is the G-conjugacy class of its common
centralizer.  Column tau records, for each type a, how many conjugacy
classes of H = centralizer(tau) lie in z-classes of H whose centralizer has
type a.  The construction walks a worklist: start from the type of the
identity (centralizer G), compute the z-classes of each centralizer,
register newly seen centralizer types, and stop once every type has been
processed.  Every type, abelian or not, follows this one rule; abelian
centralizers close the recursion since their one z-class is the central one.

Construction is sequential per group (type ids depend on discovery order);
finished matrices and registries are read-only and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugacy import conjugacy_classes, subgroup_conjugate, z_classes
from .errors import PreconditionError, UnknownTypeError
from .groups import FiniteGroup, Subgroup, center
from .report import CheckResult, StructureReport
from .symbolic import exact_power, exact_walk, shape_checks, topological_order


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

    Types are bucketed by centralizer order and `fingerprint` (the multiset
    of G-class ids of its members, which conjugation keeps), and a lookup
    runs `subgroup_conjugate`'s transporter search only on the types of the
    subgroup's own bucket, in id order.  Registered types are pairwise
    non-conjugate, so at most one type matches a subgroup, and the search
    order cannot change the type id a lookup returns.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.types: list[TypeEntry] = []
        self._buckets: dict[tuple, list[int]] = {}  # (order, fingerprint) -> type ids
        self._register(Subgroup.whole(group), (0,))

    def __len__(self) -> int:
        return len(self.types)

    def entry(self, type_id: int) -> TypeEntry:
        if not 0 <= type_id < len(self.types):
            raise UnknownTypeError(f"type {type_id} not registered (have {len(self.types)})")
        return self.types[type_id]

    def lookup(self, subgroup: Subgroup) -> int | None:
        for tid in self._buckets.get((subgroup.order, subgroup.fingerprint), ()):
            if subgroup_conjugate(self.group, self.types[tid].centralizer, subgroup) is not None:
                return tid
        return None

    def _register(self, subgroup: Subgroup, representative: tuple[int, ...]) -> int:
        tid = len(self.types)
        self.types.append(TypeEntry(representative, subgroup, len(representative)))
        self._buckets.setdefault((subgroup.order, subgroup.fingerprint), []).append(tid)
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

    Every type tau, in registration order, takes the z-classes of its
    centralizer H (centralizers and conjugacy inside H); each adds its class
    count at (G-type of its centralizer, tau).  The first, central z-class
    has centralizer H, so it counts at (tau, tau) with no registry lookup.
    z-classes whose centralizers are conjugate in G but not in H share an
    entry and their counts add up.  The result is cached on the group.
    """
    if group._branching is not None:
        return group._branching
    registry = TypeRegistry(group)
    data: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(registry):
        entry = registry.types[pos]
        central, *others = z_classes(group, entry.centralizer)
        data[(pos, pos)] = len(central.class_ids)
        for zc in others:
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

    The diagonal entry of each type is the order of its centralizer's
    centre; then come the five `symbolic.shape_checks` (zero entries
    absent, the types' depths and abelian flags from the registry), no
    cycle but the loops, and column sums equal to the centralizers' class
    counts.  A failing check carries the offending coordinates so tampered
    matrices are easy to diagnose.
    """
    group = registry.group
    entries = matrix.entries
    beta = matrix.size
    types = [registry.entry(i) for i in range(beta)]

    detail = ""
    for i, entry in enumerate(types):
        order = center(group, within=entry.centralizer).order
        if entries[i][i] != order:
            detail = f"diagonal at type {i}: {entries[i][i]} != {order}"
            break
    checks = [CheckResult("diagonal_is_center_order", not detail, detail)]
    checks += shape_checks(
        entries, 0, [t.depth for t in types], [t.centralizer.is_abelian for t in types]
    )

    # a nonzero entry (a, tau) off the diagonal puts C(a) properly inside a
    # conjugate of C(tau), so the only cycles are loops
    detail = ""
    try:
        topological_order([[k for k, x in enumerate(row) if x] for row in entries])
    except PreconditionError as exc:
        detail = str(exc)
    checks.append(CheckResult("acyclic_apart_from_loops", not detail, detail))

    detail = ""
    for j, entry in enumerate(types):
        expected = conjugacy_classes(group, within=entry.centralizer).count
        got = sum(row[j] for row in entries)
        if got != expected:
            detail = f"column {j} sums to {got}, classes {expected}"
            break
    checks.append(CheckResult("column_sums_are_class_counts", not detail, detail))

    checks.append(CheckResult("finite_size", beta == len(registry) > 0, ""))
    return StructureReport(tuple(checks))

"""Centralizers, conjugacy classes, subgroup conjugacy and z-classes.

Two commuting tuples are z-equivalent when their common centralizers are
conjugate; a z-class of a group is the union of conjugacy classes whose
centralizers are conjugate.  Everything here works on element indices of a
FiniteGroup and is pure: safe for concurrent use on finished groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCommutingError
from .groups import FiniteGroup, Subgroup


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClassPartition:
    classes: tuple[ConjugacyClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class ZClass:
    """Conjugacy classes sharing a conjugate centralizer; `representative`
    is the representative of the first of them, whose centralizer is kept."""

    class_ids: tuple[int, ...]
    centralizer: Subgroup
    representative: int


def commuting_tuple(group: FiniteGroup, indices) -> tuple[int, ...]:
    """Validate pairwise commutation and return the tuple of indices."""
    t = tuple(int(i) for i in indices)
    for i in t:
        group.check_index(i)
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            if not group.commute(t[a], t[b]):
                raise NotCommutingError(f"elements {t[a]} and {t[b]} do not commute")
    return t


def centralizer(group: FiniteGroup, tup, within: Subgroup | None = None) -> Subgroup:
    """Common centralizer of a tuple; the empty tuple centralizes to everything."""
    t = tuple(tup)
    for i in t:
        group.check_index(i)
    universe = within.members if within is not None else range(group.order)
    mul = group.mul
    members = [z for z in universe if all(mul(z, g) == mul(g, z) for g in t)]
    return Subgroup(group, members)


def conjugacy_classes(group: FiniteGroup, within: Subgroup | None = None) -> ClassPartition:
    """Orbit partition under conjugation, representatives of minimal index.

    With `within` given, the subgroup acts on itself; class members are
    still parent-group indices.
    """
    universe = within.members if within is not None else range(group.order)
    conjugators = universe
    seen: set[int] = set()
    classes = []
    for x in universe:
        if x in seen:
            continue
        orbit = {group.conj(g, x) for g in conjugators}
        seen |= orbit
        classes.append(ConjugacyClass(x, tuple(sorted(orbit))))
    return ClassPartition(tuple(classes))


def subgroup_conjugate(
    group: FiniteGroup,
    a: Subgroup,
    b: Subgroup,
    transporter=None,
) -> int | None:
    """Return g with g*A*g^-1 = B, or None.

    Exhaustive transporter search over the whole group (or the given
    candidate iterable), short-circuited by order and by the element-order
    multiset fingerprint.
    """
    if a.order != b.order:
        return None
    if a.fingerprint != b.fingerprint:
        return None
    candidates = transporter if transporter is not None else range(group.order)
    mul, inv = group.mul, group.inv
    target = b.member_set
    for g in candidates:
        gi = inv(g)
        if all(mul(mul(g, x), gi) in target for x in a.members):
            return g
    return None


def z_classes(group: FiniteGroup, subgroup: Subgroup | None = None) -> list[ZClass]:
    """z-classes of a subgroup, with centralizers and conjugacy taken inside it.

    The returned list starts with the z-class of the central elements (the
    one whose centralizer is the subgroup itself) and continues in order of
    minimal class representative, so the output is deterministic.
    """
    h = subgroup if subgroup is not None else Subgroup.whole(group)
    partition = conjugacy_classes(group, within=h)
    grouped: list[list[int]] = []
    cents: list[Subgroup] = []
    for cid, cls in enumerate(partition.classes):
        cent = centralizer(group, (cls.representative,), within=h)
        placed = False
        for gid, existing in enumerate(cents):
            if subgroup_conjugate(group, existing, cent, transporter=h.members) is not None:
                grouped[gid].append(cid)
                placed = True
                break
        if not placed:
            grouped.append([cid])
            cents.append(cent)
    # class 0 is the identity's class, so grouped[0] is the central z-class
    return [
        ZClass(tuple(ids), cent, partition.classes[ids[0]].representative)
        for ids, cent in zip(grouped, cents)
    ]

"""Centralizers, conjugacy classes, subgroup conjugacy and z-classes.

Two commuting tuples are z-equivalent when their common centralizers are
conjugate; a z-class of a group is the union of conjugacy classes whose
centralizers are conjugate.  Everything here works on element indices of a
FiniteGroup and is pure apart from each subgroup's class partition, which
is cached on the subgroup it partitions (the whole group's on the shared
`Subgroup.whole`): safe for concurrent use on finished groups.

The acting group H enters only through its generators (orbit-stabilizer,
Handbook of Computational Group Theory, section 4.1):

- A conjugacy class of H is the orbit of its least member under
  conjugation by H's generators, found by one breadth-first search, so all
  classes together cost |H| conjugations per generator.  An abelian H
  (generators commuting pairwise) has singleton classes and walks none.
- The centralizer of a tuple is a chain of stabilizers, one per tuple
  element x: a breadth-first search over the orbit of x under the current
  subgroup K records, for each orbit point y, a transversal element u_y
  with u_y x u_y^-1 = y.  Every search edge y -> z = s y s^-1 that is not
  a tree edge gives a Schreier generator u_z^-1 s u_y, which fixes x;
  together they generate the stabilizer (Schreier's lemma).  The orbit is
  x's class in K, so when K's partition is cached (a z-class opener, or
  the whole group once partitioned) the stabilizer order |K| / |class(x)|
  is known in advance: the search yields each Schreier generator as soon
  as its edge is found, straight into the closure, and stops once the
  closure holds that many elements.  A central x returns K with no search.
  Otherwise (later tuple elements, or a subgroup with no partition) the
  same search runs to the end first to learn the orbit length.  The
  generators come in the same order either way, so the closure draws the
  same prefix and the stabilizer has the same generators.
- The centre test places classes in z-classes with no transporter search.
  For x in H and y in C = C_H(x), C_H(y) = C exactly when |class(y)| =
  |class(x)| and y commutes with C's generators: y is then central in C,
  so C lies in C_H(y), and the two orders agree by orbit-stabilizer.  And
  C_H(x) and C_H(y) are H-conjugate, g C_H(x) g^-1 = C_H(y), exactly when
  g^-1 y g is such a member of C.  So the classes of x's z-class are the
  classes of those members, and x's z-class claims them all at once.
- A transporter candidate g maps A onto B when |A| = |B| and g a g^-1 lies
  in B for each generator a of A, since g A g^-1 is then a subgroup of B
  of the same order.  The type registry of `branching` searches the whole
  group this way, but only against the types whose centralizers share the
  subgroup's order and fingerprint.  The whole-group sweep walks the
  closure's search tree in index order: the image of A's first generator
  a under g = s * p is s (p a p^-1) s^-1, 4 list reads from the image
  under p, and the other generators are conjugated by g (2 * |word(g)| + 2
  reads each) only when that image lies in B.  Candidates are tried in the
  same order as always, so the first witness is the same as when every
  member of A is tested.  A trivial A needs no sweep: the identity, the
  first candidate, maps it onto B.

Every conjugation goes through `FiniteGroup.conj`, which costs
2 * |word(s)| + 2 list reads for a conjugator s and no product.  A
whole-group generator is a one-letter seed, so the whole group's classes
cost 4 reads per member and generator; a subgroup's generators pay for
their words, and a transporter candidate costs 4 reads, plus its word for
each further generator when its first image lands in B.  The only
products left in the orbit searches are the stabilizer's transversal
elements, and its Schreier generators and closure
(`groups.close_subgroup`), which stop as soon as it holds |K| / |orbit|
elements, and with them the search when the orbit length is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotCommutingError
from .groups import FiniteGroup, Subgroup, close_subgroup, subgroup_or_whole


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClassPartition:
    """Classes by least member; `class_of` maps member -> class index."""

    classes: tuple[ConjugacyClass, ...]
    class_of: dict[int, int] = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class ZClass:
    """Conjugacy classes sharing a conjugate centralizer; `representative`
    is the representative of the first of them, whose centralizer is kept.
    The first class claims the others by the centre test, so no centralizer
    is made for them."""

    class_ids: tuple[int, ...]
    centralizer: Subgroup
    representative: int


def commuting_tuple(group: FiniteGroup, indices) -> tuple[int, ...]:
    """Validate int indices and pairwise commutation; return the indices."""
    t = tuple(indices)
    for i in t:
        group.check_index(i)
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            if not group.commute(t[a], t[b]):
                raise NotCommutingError(f"elements {t[a]} and {t[b]} do not commute")
    return t


def _stabilizer(group: FiniteGroup, k: Subgroup, x: int) -> Subgroup:
    """Stabilizer of x in K under conjugation, by orbit-stabilizer.

    The orbit length is the size of x's class when K's partition is cached
    and holds x; the closure then draws Schreier generators while the
    search runs, and stops it.  Otherwise the search runs to the end first.
    """
    mul, inv, conj, gens = group.mul, group.inv, group.conj, k.generators
    transversal = {x: 0}  # orbit point y -> u in K with u x u^-1 = y

    def back_edges():
        """(z, s, u_y) for each search edge outside the tree, as found."""
        orbit = [x]
        for y in orbit:  # also visits the points appended below: breadth-first
            u = transversal[y]
            for s in gens:
                z = conj(s, y)
                if z in transversal:
                    yield z, s, u
                else:
                    transversal[z] = mul(s, u)
                    orbit.append(z)

    partition = k._classes
    cid = None if partition is None else partition.class_of.get(x)
    if cid is None:
        edges = list(back_edges())
        size = len(transversal)
    else:
        edges = back_edges()
        size = partition.classes[cid].size
    if size == 1:
        return k
    schreier = (mul(inv(transversal[z]), mul(s, u)) for z, s, u in edges)
    members, gens = close_subgroup(mul, schreier, k.order // size)
    return Subgroup(group, members, gens)


def centralizer(group: FiniteGroup, tup, within: Subgroup | None = None) -> Subgroup:
    """Common centralizer of a tuple; the empty tuple centralizes to everything.

    Starting from `within` (default the whole group), each tuple element in
    turn cuts the subgroup down to its stabilizer under conjugation.  The
    result carries the Schreier generators that built it.
    """
    t = tuple(tup)
    for i in t:
        group.check_index(i)
    k = subgroup_or_whole(group, within)
    for x in t:
        k = _stabilizer(group, k, x)
    return k


def conjugacy_classes(group: FiniteGroup, within: Subgroup | None = None) -> ClassPartition:
    """Orbit partition under conjugation, representatives of minimal index.

    With `within` given, the subgroup acts on itself; class members are
    still parent-group indices.  Members are visited in increasing order,
    and each one not yet placed starts the orbit search of its class, which
    fills `class_of` as it goes.  When H's generators commute pairwise
    (`Subgroup.is_abelian`), every class is a singleton and no orbit is
    walked.  The partition is computed once per subgroup and cached on it.
    """
    h = subgroup_or_whole(group, within)
    if h._classes is not None:
        return h._classes
    if h.is_abelian:
        classes = tuple(ConjugacyClass(x, (x,)) for x in h.members)
        h._classes = ClassPartition(classes, {x: i for i, x in enumerate(h.members)})
        return h._classes
    conj, gens = group.conj, h.generators
    class_of: dict[int, int] = {}
    classes = []
    for x in h.members:
        if x in class_of:
            continue
        cid = class_of[x] = len(classes)
        orbit = [x]
        for y in orbit:  # also visits the points appended below
            for s in gens:
                z = conj(s, y)
                if z not in class_of:
                    class_of[z] = cid
                    orbit.append(z)
        classes.append(ConjugacyClass(x, tuple(sorted(orbit))))
    h._classes = ClassPartition(tuple(classes), class_of)
    return h._classes


def subgroup_conjugate(
    group: FiniteGroup,
    a: Subgroup,
    b: Subgroup,
    transporter=None,
) -> int | None:
    """Return the first candidate g with g*A*g^-1 = B, or None.

    Exhaustive search over the whole group (or the given candidates in it),
    run only when the orders and the G-class multisets (`fingerprint`)
    agree.  A candidate is tested on A's generators only, in order, and
    dropped at the first one it maps outside B.  The whole-group sweep
    takes the image of A's first generator from `FiniteGroup.conjugates`,
    in index order, and conjugates the others only by a candidate whose
    first image lies in B: the same candidates in the same order, so the
    same first witness.
    """
    if a.order != b.order or a.fingerprint != b.fingerprint:
        return None
    conj, target, gens = group.conj, b.member_set, a.generators
    if transporter is None:
        if not gens:  # A and B are trivial: the identity maps one onto the other
            return 0
        first, rest = gens[0], gens[1:]
        for g, y in enumerate(group.conjugates(first)):
            if y in target and all(conj(g, x) in target for x in rest):
                return g
        return None
    for g in transporter:
        for x in gens:
            if conj(g, x) not in target:
                break
        else:
            return g
    return None


def z_classes(group: FiniteGroup, subgroup: Subgroup | None = None) -> list[ZClass]:
    """z-classes of a subgroup, with centralizers and conjugacy taken inside it.

    One claiming pass in partition order.  The classes of size 1 form the
    first z-class, the central one, whose centralizer is H itself.  Each
    later class not yet placed opens a z-class: its representative x gets
    its centralizer C, and the z-class claims at once the class of every
    member y of C with |class(y)| = |class(x)| that commutes with C's
    generators, since exactly those y have C_H(y) = C (the centre test of
    the module docstring).  A claimed class is marked placed, and no member
    of a placed class can pass the test again, so the size filter skips
    them.  The list continues in order of minimal class representative,
    each z-class with its class ids in increasing order, so the output is
    deterministic.
    """
    h = subgroup_or_whole(group, subgroup)
    partition = conjugacy_classes(group, within=h)
    class_of, conj = partition.class_of, group.conj
    unplaced = [cls.size for cls in partition.classes]  # class id -> size, 0 once placed
    central = tuple(cid for cid, size in enumerate(unplaced) if size == 1)
    out = [ZClass(central, h, partition.classes[0].representative)]
    for cls, size in zip(partition.classes, unplaced):  # sees the zeros written below
        if size < 2:  # placed, or central
            continue
        cent = centralizer(group, (cls.representative,), within=h)
        same = [y for y in cent.members if unplaced[class_of[y]] == size]
        for s in cent.generators:
            same = [y for y in same if conj(s, y) == y]
        ids = sorted({class_of[y] for y in same})
        for i in ids:
            unplaced[i] = 0
        out.append(ZClass(tuple(ids), cent, cls.representative))
    return out

"""Group elements, generator closure, and subgroup containers.

Elements are stored as flat tuples of ints: row-major field-element indices
for matrices, image arrays for permutations.  A carrier object supplies the
multiplication, inversion and canonical byte encoding for one kind of
element, so two elements are equal exactly when their carriers and data
agree.  All containers here are immutable after construction; only cached
derived data (multiplication table, element orders) is filled in lazily.

Generator closure records, for each seed s (a generator or the inverse of
one), its left action on the element indices: act_s[x] = index(s * e_x).
The multiplication table of a group at or below the table limit is
composed from those lists alone.  Row 0 is the identity permutation, and
when e_i was first found as s * e_p, row i is act_s applied to row p, since
index(e_i * e_j) = index(s * (e_p * e_j)) = act_s[row_p[j]].  The table
therefore costs no carrier products and no field operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, ElementNotInGroupError, MixedCarriersError
from .fields import Field

# Full multiplication tables are built below this order; larger groups fall
# back to carrier arithmetic per product.
_TABLE_LIMIT = 2048


class MatrixCarrier:
    """n-by-n invertible matrices over a finite field."""

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.key = ("matrix", field.p, field.k, field.modulus, n)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixCarrier) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def identity(self) -> tuple[int, ...]:
        n = self.n
        return tuple(1 if i == j else 0 for i in range(n) for j in range(n))

    def mul(self, a, b):
        n, f = self.n, self.field
        fmul, fadd = f.mul, f.add
        out = []
        for i in range(n):
            row = a[i * n : (i + 1) * n]
            for j in range(n):
                acc = 0
                for k in range(n):
                    x = row[k]
                    if x:
                        acc = fadd(acc, fmul(x, b[k * n + j]))
                out.append(acc)
        return tuple(out)

    def inv(self, a):
        n, f = self.n, self.field
        aug = [list(a[i * n : (i + 1) * n]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            piv_inv = f.inv(aug[col][col])
            aug[col] = [f.mul(piv_inv, x) for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(aug[r], aug[col])]
        return tuple(aug[i][n + j] for i in range(n) for j in range(n))

    def determinant(self, a) -> int:
        n, f = self.n, self.field
        rows = [list(a[i * n : (i + 1) * n]) for i in range(n)]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = f.neg(det)
            det = f.mul(det, rows[col][col])
            piv_inv = f.inv(rows[col][col])
            for r in range(col + 1, n):
                if rows[r][col] != 0:
                    factor = f.mul(rows[r][col], piv_inv)
                    rows[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[r], rows[col])]
        return det

    def encode(self, a) -> bytes:
        return b"".join(x.to_bytes(4, "big") for x in a)

    def describe(self, a) -> str:
        n = self.n
        return ";".join(",".join(str(x) for x in a[i * n : (i + 1) * n]) for i in range(n))


class PermutationCarrier:
    """Permutations of {0 .. m-1} stored as image arrays."""

    def __init__(self, domain: int):
        self.domain = domain
        self.key = ("perm", domain)

    def __eq__(self, other) -> bool:
        return isinstance(other, PermutationCarrier) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.domain))

    def mul(self, a, b):
        # (a * b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(self.domain))

    def inv(self, a):
        out = [0] * self.domain
        for i, img in enumerate(a):
            out[img] = i
        return tuple(out)

    def encode(self, a) -> bytes:
        return b"".join(x.to_bytes(4, "big") for x in a)

    def describe(self, a) -> str:
        return ",".join(str(x) for x in a)


@dataclass(frozen=True)
class GroupElement:
    """A carrier-tagged element; equality and hashing are canonical."""

    carrier: object
    data: tuple[int, ...]

    def encode(self) -> bytes:
        return self.carrier.encode(self.data)

    def __repr__(self) -> str:
        return f"GroupElement({self.carrier.describe(self.data)})"


def matrix_element(field: Field, rows) -> GroupElement:
    """Build an invertible matrix element from rows of field indices."""
    n = len(rows)
    data = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix rows must form a square")
        for x in row:
            if not 0 <= int(x) < field.order:
                raise ValueError(f"field index {x} out of range for order {field.order}")
            data.append(int(x))
    carrier = MatrixCarrier(field, n)
    if carrier.determinant(tuple(data)) == 0:
        raise ValueError("matrix is singular")
    return GroupElement(carrier, tuple(data))


def permutation_element(images) -> GroupElement:
    imgs = tuple(int(x) for x in images)
    if sorted(imgs) != list(range(len(imgs))):
        raise ValueError(f"{list(images)} is not a permutation")
    return GroupElement(PermutationCarrier(len(imgs)), imgs)


class FiniteGroup:
    """A fully enumerated group with indexed elements.

    Index 0 is always the identity.  Multiplication and inversion go
    through a precomputed table for small groups and through the carrier
    otherwise.  Instances are immutable apart from lazily cached tables.
    Built by `group_generate`, which hands over its element index and the
    seeds' recorded left actions (kept only while a table can be built).
    """

    def __init__(
        self,
        carrier,
        elements: list[tuple[int, ...]],
        index: dict[tuple[int, ...], int],
        actions: list[list[int]] | None,
        name: str = "",
    ):
        self.carrier = carrier
        self.elements = elements
        self.index = index
        self._actions = actions if len(elements) <= _TABLE_LIMIT else None
        self.name = name
        self._mul_table = None
        self._inv_table = None
        self._orders = None
        self._is_abelian = None
        self._branching = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.order:
            raise ElementNotInGroupError(f"element index {i} outside group of order {self.order}")

    def _ensure_tables(self) -> None:
        """Build the inverse table, and at or below the limit the full table.

        The full table is composed from the recorded left actions by
        replaying the closure's breadth-first search, so the BFS parents
        need no storing: row 0 is the identity, and the first time act_s
        maps row p to an index i without a row, row i is act_s applied to
        row p.  Every row exists before the replay reaches it.  Above the
        limit only the inverses are tabulated, through the carrier.
        """
        if self._inv_table is not None:
            return
        n, actions = self.order, self._actions
        if actions is None:
            index, inv = self.index, self.carrier.inv
            self._inv_table = [index[inv(e)] for e in self.elements]
            return
        rows = [None] * n
        rows[0] = list(range(n))
        for p in range(n):
            row = rows[p]
            for act in actions:
                i = act[p]
                if rows[i] is None:
                    rows[i] = [act[v] for v in row]
        self._mul_table = rows
        self._inv_table = [row.index(0) for row in rows]
        self._actions = None

    def mul(self, i: int, j: int) -> int:
        self._ensure_tables()
        if self._mul_table is not None:
            return self._mul_table[i][j]
        return self.index[self.carrier.mul(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        self._ensure_tables()
        return self._inv_table[i]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def commute(self, i: int, j: int) -> bool:
        return self.mul(i, j) == self.mul(j, i)

    def element(self, i: int) -> GroupElement:
        self.check_index(i)
        return GroupElement(self.carrier, self.elements[i])

    def element_index(self, el: GroupElement) -> int:
        if el.carrier != self.carrier or el.data not in self.index:
            raise ElementNotInGroupError(f"{el!r} not in {self!r}")
        return self.index[el.data]

    def encode(self, i: int) -> bytes:
        return self.carrier.encode(self.elements[i])

    def element_order(self, i: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.order
        if self._orders[i] == 0:
            x, n = i, 1
            while x != 0:
                x = self.mul(x, i)
                n += 1
            self._orders[i] = n
        return self._orders[i]

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            self._is_abelian = all(
                self.mul(i, j) == self.mul(j, i)
                for i in range(self.order)
                for j in range(i + 1, self.order)
            )
        return self._is_abelian

    def canonical_encodings(self) -> list[bytes]:
        """Sorted canonical byte encodings; equal for equal element sets."""
        return sorted(self.encode(i) for i in range(self.order))


class Subgroup:
    """A subgroup given by its sorted member indices in a parent group."""

    def __init__(self, group: FiniteGroup, members):
        self.group = group
        self.members = tuple(sorted(set(members)))
        self.member_set = frozenset(self.members)
        self._fingerprint = None
        self._is_abelian = None

    @classmethod
    def whole(cls, group: FiniteGroup) -> "Subgroup":
        return cls(group, range(group.order))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.member_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group!r})"

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            mul = self.group.mul
            ms = self.members
            self._is_abelian = all(
                mul(a, b) == mul(b, a) for ai, a in enumerate(ms) for b in ms[ai + 1 :]
            )
        return self._is_abelian

    @property
    def fingerprint(self) -> tuple:
        """Conjugation-invariant (order, element-order multiset) filter."""
        if self._fingerprint is None:
            counts: dict[int, int] = {}
            for m in self.members:
                o = self.group.element_order(m)
                counts[o] = counts.get(o, 0) + 1
            self._fingerprint = (self.order, tuple(sorted(counts.items())))
        return self._fingerprint

    def is_subgroup(self) -> bool:
        """Closure check, used by tests; construction does not revalidate."""
        if 0 not in self.member_set:
            return False
        mul, inv = self.group.mul, self.group.inv
        for a in self.members:
            if inv(a) not in self.member_set:
                return False
            for b in self.members:
                if mul(a, b) not in self.member_set:
                    return False
        return True


def group_generate(gens: list[GroupElement], cap: int = 20000, name: str = "") -> FiniteGroup:
    """Breadth-first closure of a generating set.

    The identity is discovered first; after that, elements appear in the
    order produced by left-multiplying queue elements by the generators and
    their inverses (the seeds), so the element indexing is deterministic for
    a fixed generator list.  Every product s * e_x made here is kept: the
    element dict becomes `FiniteGroup.index`, and act_s[x] = index(s * e_x)
    is recorded for each seed s, from which `FiniteGroup` composes its
    multiplication table.  Raises CapExceededError as soon as the closure
    grows past `cap`.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    carrier = gens[0].carrier
    for g in gens[1:]:
        if g.carrier != carrier:
            raise MixedCarriersError("generators live in different carriers")
    seeds = []
    for g in gens:
        if g.data not in seeds:
            seeds.append(g.data)
    for g in gens:
        inv = carrier.inv(g.data)
        if inv not in seeds:
            seeds.append(inv)

    identity = carrier.identity()
    elements = [identity]
    index = {identity: 0}
    actions = [[] for _ in seeds]
    mul = carrier.mul
    for x in elements:  # also visits the elements appended below: breadth-first
        for s, act in zip(seeds, actions):
            y = mul(s, x)
            i = index.get(y)
            if i is None:
                i = index[y] = len(elements)
                elements.append(y)
                if i >= cap:
                    raise CapExceededError(f"closure exceeded cap of {cap} elements")
            act.append(i)
    return FiniteGroup(carrier, elements, index, actions, name=name)


def center(group: FiniteGroup) -> Subgroup:
    """Elements commuting with the whole group."""
    n = group.order
    members = [z for z in range(n) if all(group.mul(z, g) == group.mul(g, z) for g in range(n))]
    return Subgroup(group, members)

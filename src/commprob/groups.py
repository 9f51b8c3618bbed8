"""Group elements, generator closure, and subgroup containers.

Elements are stored as flat tuples of ints: row-major field-element indices
for matrices, image arrays for permutations.  A carrier object supplies the
multiplication and inversion for one kind of element, so two elements are
equal exactly when their carriers and data agree; an element's canonical
byte encoding is its data as 4-byte big-endian words.  All containers here
are immutable after construction; only cached derived data (a group's
whole-group subgroup, branching matrix and oracle centralizer DAG, a
subgroup's generators, class partition, fingerprint and abelian flag) is
filled in lazily.

Generator closure runs over closure keys.  A key is a word over letters:
a permutation's images, or a matrix's column codes (column j as the
integer sum(a[i][j] * q**i)).  A carrier supplies only the arithmetic and
the letters: an element's letters (`letters`), its data back from a key
(`from_key`), and a seed's image of one letter (`letter_image`: s's image
array, or s times one column in n * n field operations).  The closure
owns the key format, decided once per group (`_seed_actions`): it walks
the orbit of the identity's letters under the seeds (the generators and
their inverses), which holds every letter of every element, and records
each seed's image of each letter.  When every letter met is below 256,
keys are `bytes` and a seed acts by one `bytes.translate` through a
256-byte table; otherwise keys are tuples and a seed maps each letter
through its recorded images.  So a permutation group has byte keys on at
most 256 points, and a matrix group whenever the columns its elements
have all code below 256 (always when q**n <= 256).  No closure makes a
carrier product; field operations are made only for the letter images and
to invert the generators.  A group keeps the keys; data is made from a key
only where an element leaves the group (`FiniteGroup.element`).

The closure is one breadth-first search from the identity, and it records
two things.  For each seed s, its left action on the element indices:
act_s[x] = index(s * e_x); the group replays every product from those
lists alone.  And the search tree (Seress, Permutation Group Algorithms,
section 4.4): each element e_x but the identity is first reached as
s * e_p, so its parent p (always below x) and its seed's action.  The
group reads its words from that tree: the word of e_x is the word of e_p
followed by act_s, and since index(e_x * e_j) = index(s * (e_p * e_j)),
the product index(e_x * e_j) is j pushed through the word, one list
lookup per letter.  Words are kept shallow: if the tree is deeper than
max(8, 2 * bit_length(|G|)), the element at that depth with a child
becomes a new letter (with its inverse), its action composed from its
word, and a search over the letters starts again, as often as needed.
Words and inverses are built with the group, so no product after the
closure costs a carrier product or a field operation.
A conjugation uses g * x * g^-1 = g * (g * x^-1)^-1 (`FiniteGroup.conj`):
it replays only the conjugator's word, twice, around two reads of the
inverse table, 2 * |word(g)| + 2 list reads in all, or 4 when g is a seed.
`FiniteGroup.conjugation_table(g)` conjugates every element by g at once,
composing those same steps as whole lists, and `FiniteGroup.conjugates(a)`
conjugates a by every element in index order, each image from its tree
parent's by one seed: 4 list reads per element.

Every subgroup carries a generating set, and the scans over a subgroup
(commutation, conjugation, closure) run over its generators rather than
its members.  The whole group is generated by the indices of its
generators; other subgroups by the generators that built them, or
greedily over their sorted members.  Every closure is `close_subgroup`:
Dimino's algorithm, coset by coset, stopped at an order known in advance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import methodcaller

from .errors import CapExceededError, ElementNotInGroupError, MixedCarriersError, PreconditionError
from .fields import Field, is_int

class MatrixCarrier:
    """n-by-n invertible matrices over a finite field; the letters of a
    matrix are its column codes."""

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

    def letters(self, a) -> tuple[int, ...]:
        """Column j of `a` as the integer sum(a[i][j] * q**i), for each j."""
        n, q = self.n, self.field.order
        return tuple(sum(a[i * n + j] * q**i for i in range(n)) for j in range(n))

    def from_key(self, codes) -> tuple[int, ...]:
        """The row-major data of the matrix with these column codes."""
        n, q = self.n, self.field.order
        return tuple(chain.from_iterable(zip(*(_digits(code, q, n) for code in codes))))

    def letter_image(self, s):
        """code -> the code of s times that column: column j of s * x is s
        times column j of x.  Each call costs n * n field operations."""
        field, n = self.field, self.n
        q = field.order
        rows = [s[i * n : (i + 1) * n] for i in reversed(range(n))]

        def image(code):
            column = _digits(code, q, n)
            out = 0
            for row in rows:
                acc = 0
                for a, b in zip(row, column):
                    if a and b:
                        acc = field.add(acc, field.mul(a, b))
                out = out * q + acc
            return out

        return image

    def describe(self, a) -> str:
        n = self.n
        return ";".join(",".join(str(x) for x in a[i * n : (i + 1) * n]) for i in range(n))


def _digits(code: int, q: int, n: int) -> list[int]:
    """The n base-q digits of `code`, lowest first."""
    digits = []
    for _ in range(n):
        code, x = divmod(code, q)
        digits.append(x)
    return digits


BYTE_LETTERS = 256  # closure keys are bytes when every letter is below this
CLOSURE_CAP = 20000  # the default largest order a closure may reach


def _seed_actions(carrier, seeds, cap: int):
    """(key type, [x -> s * x on keys for each seed s]): the one decision
    between byte and tuple keys.

    The orbits of the identity's letters under the seeds hold every letter
    of every element: all points for permutations, and for a matrix g,
    column j of g is g times basis column j.  Each identity letter's orbit
    is walked on its own, skipping letters an earlier orbit already met,
    and each seed's image of each letter met is recorded once.  Keys are
    bytes when every letter met is below BYTE_LETTERS, and a seed then acts
    by one `bytes.translate` (identity off the orbits); else keys are
    tuples and a seed maps each letter through its recorded images.

    The group acts on each orbit, so by orbit-stabilizer an orbit of more
    than `cap` letters proves the group larger than `cap`: CapExceededError
    is raised then, before the rest of the orbit is walked.
    """
    images = [carrier.letter_image(s) for s in seeds]
    maps = [{} for _ in seeds]
    seen = set()
    for start in carrier.letters(carrier.identity()):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for a in orbit:  # also visits the letters appended below
            for image, m in zip(images, maps):
                b = m[a] = image(a)
                if b not in seen:
                    seen.add(b)
                    orbit.append(b)
                    if len(orbit) > cap:
                        raise CapExceededError(f"closure exceeded cap of {cap} elements")
    if max(seen, default=0) < BYTE_LETTERS:
        return bytes, [_translation(m.items()) for m in maps]
    return tuple, [lambda x, image=m.__getitem__: tuple(map(image, x)) for m in maps]


def _translation(pairs):
    """x -> x.translate(table) for the 256-byte table sending each letter a
    to b for the (a, b) pairs, and every other letter to itself."""
    table = bytearray(range(BYTE_LETTERS))
    for a, b in pairs:
        table[a] = b
    return methodcaller("translate", bytes(table))


class PermutationCarrier:
    """Permutations of {0 .. m-1} stored as image arrays; the letters of a
    permutation are its images."""

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
        return tuple(map(a.__getitem__, b))

    def inv(self, a):
        return tuple(_inverse_permutation(a))

    def letters(self, a) -> tuple[int, ...]:
        return a

    def from_key(self, key) -> tuple[int, ...]:
        return tuple(key)

    def letter_image(self, s):
        """i -> s(i): (s * x)(i) = s(x(i))."""
        return s.__getitem__

    def describe(self, a) -> str:
        return ",".join(str(x) for x in a)


@dataclass(frozen=True)
class GroupElement:
    """A carrier-tagged element; equality and hashing are canonical."""

    carrier: object
    data: tuple[int, ...]

    def encode(self) -> bytes:
        return b"".join(x.to_bytes(4, "big") for x in self.data)

    def __repr__(self) -> str:
        return f"GroupElement({self.carrier.describe(self.data)})"


def require_int(x, low: int, name: str = "d") -> None:
    """Refuse x with ValueError unless it is an int (`is_int`) and >= low."""
    if not is_int(x):
        raise ValueError(f"{name} must be an int, got {x!r}")
    if x < low:
        raise ValueError(f"{name} must be >= {low}")


def matrix_element(field: Field, rows) -> GroupElement:
    """Build an invertible matrix element from rows of int field indices."""
    n = len(rows)
    data = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix rows must form a square")
        for x in row:
            if not is_int(x) or not 0 <= x < field.order:
                raise ValueError(f"field index {x!r} is not an int in [0, {field.order})")
            data.append(x)
    carrier = MatrixCarrier(field, n)
    try:
        carrier.inv(data)
    except ZeroDivisionError:
        raise ValueError("matrix is singular") from None
    return GroupElement(carrier, tuple(data))


def permutation_element(images) -> GroupElement:
    """Build a permutation element from its int image array."""
    imgs = tuple(images)
    if not all(map(is_int, imgs)) or sorted(imgs) != list(range(len(imgs))):
        raise ValueError(f"{list(imgs)} is not a permutation of ints 0..{len(imgs) - 1}")
    return GroupElement(PermutationCarrier(len(imgs)), imgs)


class FiniteGroup:
    """A fully enumerated group with indexed elements.

    Index 0 is always the identity.  Built by `group_generate`, which hands
    over its closure keys as `elements`, the index keyed by them, the
    indices of the generators (`generators`, identity left out), the
    seeds' recorded left actions and the closure's search tree (`tree`:
    (p, act_s) for each element x = 1, 2, .. but the identity, in index
    order, x first reached as act_s[p], so p < x).  The product words and the
    inverse table are built here from that tree, so multiplication replays
    a word and inversion reads a table.  Elements cross the boundary as
    `GroupElement` data through `element`, `element_index` and `encode`.
    Instances are immutable apart from the lazily cached whole-group
    subgroup, matrix and oracle data.
    """

    def __init__(
        self,
        carrier,
        elements: list[bytes | tuple[int, ...]],
        index: dict[bytes | tuple[int, ...], int],
        actions: list[list[int]],
        tree: list[tuple[int, list[int]]],
        generators: tuple[int, ...],
        name: str = "",
    ):
        self.carrier = carrier
        self.elements = elements
        self.index = index
        self._actions = actions
        self._tree = tree
        self.generators = generators
        self.name = name
        self._words, self._inv_table = _product_words(actions, tree)
        self._whole = None
        self._branching = None
        self._centralizer_dag = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"

    def check_index(self, i: int) -> None:
        if not is_int(i):
            raise ValueError(f"element index {i!r} is not an int")
        if not 0 <= i < self.order:
            raise ElementNotInGroupError(f"element index {i} outside group of order {self.order}")

    def mul(self, i: int, j: int) -> int:
        for act in self._words[i]:
            j = act[j]
        return j

    def inv(self, i: int) -> int:
        return self._inv_table[i]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1, computed as g * (g * x^-1)^-1.

        Only g's word is replayed, twice, between two reads of the inverse
        table: 2 * |word(g)| + 2 list reads, so 4 for a seed (a whole-group
        generator or its inverse, whose word is one letter).
        """
        inv, word = self._inv_table, self._words[g]
        x = inv[x]
        for act in word:
            x = act[x]
        x = inv[x]
        for act in word:
            x = act[x]
        return x

    def conjugation_table(self, g: int) -> list[int]:
        """[conj(g, x) for x in range(order)], composed as whole lists: the
        inverse table, g's word, the inverse table and g's word again, one
        `list(map(...))` pass each, in place of |G| `conj` calls."""
        inv, word = self._inv_table, self._words[g]
        table = inv
        for step in (word, (inv,), word):
            for act in step:
                table = list(map(act.__getitem__, table))
        return table

    def conjugates(self, a: int):
        """conj(g, a) for g = 0, 1, .. in index order, each from its tree
        parent's: for g = s * p, conj(g, a) = conj(s, conj(p, a)), 4 list
        reads through s's action and the inverse table.  A generator, so a
        caller that stops early pays only for the elements it saw."""
        inv, images = self._inv_table, [a]
        yield a
        for p, act in self._tree:
            y = act[inv[act[inv[images[p]]]]]
            images.append(y)
            yield y

    def commute(self, i: int, j: int) -> bool:
        return self.mul(i, j) == self.mul(j, i)

    def element(self, i: int) -> GroupElement:
        self.check_index(i)
        return GroupElement(self.carrier, self.carrier.from_key(self.elements[i]))

    def element_index(self, el: GroupElement) -> int:
        if el.carrier == self.carrier and len(el.data) == len(self.carrier.identity()):
            try:  # a key of the group's own type
                key = type(self.elements[0])(self.carrier.letters(el.data))
            except (TypeError, ValueError):  # malformed data that no byte key holds
                key = None
            i = self.index.get(key)
            if i is not None and self.element(i) == el:  # keys of malformed data may collide
                return i
        raise ElementNotInGroupError(f"{el!r} not in {self!r}")

    def encode(self, i: int) -> bytes:
        return self.element(i).encode()

    @property
    def is_abelian(self) -> bool:
        return Subgroup.whole(self).is_abelian

    def canonical_encodings(self) -> list[bytes]:
        """Sorted canonical byte encodings; equal for equal element sets."""
        return sorted(self.encode(i) for i in range(self.order))


def _inverse_permutation(perm) -> list[int]:
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return out


def _product_words(actions: list[list[int]], tree):
    """The product words and the inverse table of a group, from the
    closure's search tree.

    The words are read off the tree in index order, each its parent's word
    plus one letter.  Only when the tree is deeper than the bound do the
    letters grow: the action of the first element at the bound with a
    child, composed from its word in n lookups per letter, joins the seeds'
    actions with its inverse, so the letters stay closed under inverses
    like the seeds, and `_shallow_words` searches again.  Each restart
    puts an element that needed a longer word within reach, so the loop
    ends.

    The inverses come from the final tree, each element x reached as
    A * p from its parent p by its last letter A.  Right multiplication by
    a letter's inverse a^-1 is tabulated in the tree order: R[0] is the
    index of a^-1 (the y with A[y] = 0) and R[x] = A_x[R[p]], as
    x * a^-1 = A_x * (p * a^-1).  Then x^-1 = p^-1 * A_x^-1 is the table
    of A_x read at p^-1, one lookup per element and letter in all.
    """
    n = len(tree) + 1
    letters = list(actions)
    bound = max(8, 2 * n.bit_length())
    words, order, deep = [()], range(1, n), None
    for p, act in tree:
        word = words[p]
        if len(word) == bound:
            deep = word
            break
        words.append(word + (act,))
    while deep is not None:
        action = range(n)
        for act in deep:
            action = list(map(act.__getitem__, action))
        letters += (action, _inverse_permutation(action))
        words, order, tree, deep = _shallow_words(n, letters, bound)
    times_inverse = {}
    for act in letters:
        table = [0] * n
        table[0] = act.index(0)
        for x, (p, last) in zip(order, tree):
            table[x] = last[table[p]]
        times_inverse[id(act)] = table
    inv_table = [0] * n
    for x, (p, last) in zip(order, tree):
        inv_table[x] = times_inverse[id(last)][inv_table[p]]
    return words, inv_table


def _shallow_words(n: int, letters: list[list[int]], bound: int):
    """Breadth-first words from the identity over the letters, for the
    restarts of `_product_words`.

    Returns (words, order, tree, None) when every element is reached
    within `bound` letters: order lists the elements but the identity in
    the search order, and tree (p, A) for each of them, first reached as
    A[p].  Else returns (None, None, None, word) for the first element of
    depth `bound` that reaches an element not yet seen.
    """
    words: list = [None] * n
    words[0] = ()
    queue = [0]
    tree = []
    for p in queue:  # also visits the elements appended below
        word = words[p]
        for act in letters:
            i = act[p]
            if words[i] is None:
                if len(word) == bound:
                    return None, None, None, word
                words[i] = word + (act,)
                queue.append(i)
                tree.append((p, act))
    return words, queue[1:], tree, None


def close_subgroup(mul, candidates, order: int) -> tuple[list[int], list[int]]:
    """(members, generators) of the subgroup that the candidates generate,
    grown until it holds `order` elements; candidates are drawn lazily and
    none after that.  A candidate g outside the group H built so far joins
    the generators, and <H, g> is listed coset by coset (Dimino): each
    coset representative times each generator lands in a listed coset H*r
    or represents a new one.  Cost: |H| products per new coset, plus one
    per (representative, generator) pair.
    """
    members, seen, gens = [0], {0}, []
    if order <= 1:
        return members, gens
    for g in candidates:
        if g in seen:
            continue
        gens.append(g)
        base, reps = tuple(members), [g]
        coset = [mul(h, g) for h in base]
        members.extend(coset)
        seen.update(coset)
        for r in reps:  # also visits the representatives appended below
            for s in gens:
                y = mul(r, s)
                if y not in seen:
                    coset = [mul(h, y) for h in base]
                    members.extend(coset)
                    seen.update(coset)
                    reps.append(y)
        if len(members) >= order:
            break
    return members, gens


class Subgroup:
    """A subgroup given by its sorted member indices in a parent group.

    `generators`, when given, must generate the members; construction does
    not check it.
    """

    def __init__(self, group: FiniteGroup, members, generators=None):
        self.group = group
        self.members = tuple(sorted(set(members)))
        self.member_set = frozenset(self.members)
        self._generators = None if generators is None else tuple(generators)
        self._classes = None  # the class partition, set by `conjugacy.conjugacy_classes`

    @classmethod
    def whole(cls, group: FiniteGroup) -> "Subgroup":
        """The group as a subgroup of itself, generated by the group's
        generators; one shared instance per group."""
        if group._whole is None:
            group._whole = cls(group, range(group.order), group.generators)
        return group._whole

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
    def generators(self) -> tuple[int, ...]:
        """A generating set: the one given at construction, else a greedy
        one over the sorted members (each member not yet spanned joins)."""
        if self._generators is None:
            self._generators = tuple(close_subgroup(self.group.mul, self.members, self.order)[1])
        return self._generators

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, tested by conjugation
        (a * b * a^-1 = b), which makes no product."""
        conj, gs = self.group.conj, self.generators
        return all(conj(a, b) == b for ai, a in enumerate(gs) for b in gs[ai + 1 :])

    @cached_property
    def fingerprint(self) -> tuple[tuple[int, int], ...]:
        """Sorted (G-class id, member count) pairs of the members.

        Conjugation by any element of G keeps each member in its G-class,
        so conjugate subgroups share a fingerprint; one class shares one
        element order, so it also fixes the order and the element orders.
        Class ids come from the whole group's partition, made on first use.
        """
        whole = Subgroup.whole(self.group)
        if whole._classes is None:
            from .conjugacy import conjugacy_classes  # conjugacy imports this module

            conjugacy_classes(self.group)
        class_of = whole._classes.class_of
        return tuple(sorted(Counter(map(class_of.__getitem__, self.members)).items()))

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


def group_generate(gens: list[GroupElement], cap: int = CLOSURE_CAP, name: str = "") -> FiniteGroup:
    """Breadth-first closure of a generating set.

    The identity is discovered first; after that, elements appear in the
    order produced by left-multiplying queue elements by the generators and
    their inverses (the seeds), so the element indexing is deterministic for
    a fixed generator list.  Every product s * e_x made here is kept:
    act_s[x] = index(s * e_x) is recorded for each seed s, and each new
    element's parent and seed form the search tree, from which
    `FiniteGroup` reads its product words and inverses.

    The search runs over closure keys, bytes or tuples as `_seed_actions`
    decides, each seed acting through its recorded letter images.  The
    keys become `FiniteGroup.elements` and key its index, with no
    conversion back to data.

    The generators' indices, in the given order without repeats or the
    identity, become `FiniteGroup.generators`; no closure is needed to find
    them.  Raises CapExceededError as soon as the closure grows past `cap`,
    or earlier, when the orbit of letters alone shows the group is larger.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    require_int(cap, 1, "cap")
    carrier = gens[0].carrier
    for g in gens[1:]:
        if g.carrier != carrier:
            raise MixedCarriersError("generators live in different carriers")
    seeds = list(dict.fromkeys(g.data for g in gens))
    distinct = len(seeds)
    for g in gens:
        inv = carrier.inv(g.data)
        if inv not in seeds:
            seeds.append(inv)

    key_type, steps = _seed_actions(carrier, seeds, cap)
    start = key_type(carrier.letters(carrier.identity()))
    elements = [start]
    index = {start: 0}
    actions = [[] for _ in seeds]
    tree = []
    for p, x in enumerate(elements):  # also visits the elements appended below: breadth-first
        for step, act in zip(steps, actions):
            y = step(x)
            i = index.get(y)
            if i is None:
                i = index[y] = len(elements)
                elements.append(y)
                tree.append((p, act))
                if i >= cap:
                    raise CapExceededError(f"closure exceeded cap of {cap} elements")
            act.append(i)
    del steps  # free the letter images or tables before the group builds its words
    # act_s[0] = index(s), and distinct generator data have distinct indices
    generators = tuple(i for i in (act[0] for act in actions[:distinct]) if i != 0)
    return FiniteGroup(carrier, elements, index, actions, tree, generators, name=name)


def subgroup_or_whole(group: FiniteGroup, within: Subgroup | None) -> Subgroup:
    """`within`, or the whole group for None; refused unless it lies in `group`."""
    if within is None:
        return Subgroup.whole(group)
    if within.group is not group:
        raise PreconditionError(f"{within!r} does not lie in {group!r}")
    return within


def center(group: FiniteGroup, within: Subgroup | None = None) -> Subgroup:
    """The centre of `within` (default the whole group): its members z with
    s * z * s^-1 = z for each of its generators s, filtered one generator
    at a time."""
    sub = subgroup_or_whole(group, within)
    conj, members = group.conj, sub.members
    for s in sub.generators:
        members = [z for z in members if conj(s, z) == z]
    return Subgroup(group, members)

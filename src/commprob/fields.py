"""Arithmetic for prime fields and small extension fields.

Elements of F_{p^k} are addressed by integer indices 0 .. p^k - 1.  The index
sum(c_i * p^i) stands for the residue polynomial c_0 + c_1*x + ... mod the
field modulus; for k = 1 this collapses to residues mod p.  Index 0 is the
zero element and index 1 the multiplicative identity, for every field.

For k > 1 a `Field` answers `add`, `mul`, `neg` and `inv` from per-field
tables that fill on first use: a miss runs the polynomial code (decode to
base-p digits, multiply, reduce mod the modulus, encode), stores the result
and returns it.  No table is built when a field is created, so a spec over
F_{2^20} parses at once.  For k = 1 each operation stays one int expression
mod p: about 90 ns a call against 120 ns through a dict lookup (timeit,
Python 3.11 on a 2-core Xeon).
"""

from __future__ import annotations

from .errors import NonPrimeError, ReducibleModulusError


# Largest field order p^k the package is meant for; group specs enforce it.
MAX_FIELD_ORDER = 2**20

# Largest n that trial division may factor: about 0.1 s at 10^12.
MAX_TRIAL_DIVISION = 2**40


def is_int(x) -> bool:
    """An int but not a bool, which json.loads gives for true and false."""
    return isinstance(x, int) and not isinstance(x, bool)


def _smallest_factor(n: int) -> int:
    """Least prime factor of n >= 2, by trial division up to sqrt(n).

    Raises ValueError above MAX_TRIAL_DIVISION, where the division would
    effectively never end.
    """
    if n > MAX_TRIAL_DIVISION:
        raise ValueError(f"{n} is above {MAX_TRIAL_DIVISION}, the limit for trial division")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = _smallest_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over F_p; coefficient lists are low-to-high."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        factor = (c * inv_lead) % p
        for j, dc in enumerate(den):
            num[i - dd + j] = (num[i - dd + j] - factor * dc) % p
    return _poly_trim(num[:dd])


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= k // 2."""
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        # iterate monic candidates: low coefficients enumerate base p
        for code in range(p**deg):
            cand = []
            c = code
            for _ in range(deg):
                cand.append(c % p)
                c //= p
            cand.append(1)
            if not _poly_mod(list(modulus), cand, p):
                return False
    return True


# The polynomial arithmetic of F_{p^k}, k > 1, uncached: the only code that
# fills a Field's tables, and the reference the tables are tested against.


def _poly_add(field: "Field", a: int, b: int) -> int:
    da, db = field.decode(a), field.decode(b)
    return field.encode((x + y) % field.p for x, y in zip(da, db))


def _poly_neg(field: "Field", a: int) -> int:
    return field.encode((-x) % field.p for x in field.decode(a))


def _poly_mul(field: "Field", a: int, b: int) -> int:
    da, db = field.decode(a), field.decode(b)
    prod = [0] * (2 * field.k - 1)
    for i, x in enumerate(da):
        if x == 0:
            continue
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % field.p
    rem = _poly_mod(prod, list(field.modulus), field.p)
    rem += [0] * (field.k - len(rem))
    return field.encode(rem)


def _poly_inv(field: "Field", a: int, mul=_poly_mul) -> int:
    """a^(q - 2), squaring through mul(field, x, y): the multiplicative group
    is cyclic of order q - 1."""
    result, base, e = 1, a, field.order - 2
    while e:
        if e & 1:
            result = mul(field, result, base)
        base = mul(field, base, base)
        e >>= 1
    return result


class Field:
    """A finite field F_{p^k} operating on integer element indices.

    For k = 1 each operation is one int expression mod p.  For k > 1 each of
    `add`, `mul`, `neg` and `inv` answers from its own dict, keyed by the
    operand tuple (a, b), or by a for the one-operand operations, and filled
    on a miss by `_poly_add`, `_poly_mul`, `_poly_neg` or `_poly_inv`;
    `sub` is add(a, neg(b)).  A table holds only the operands the program
    has met, so it never outgrows the work already done.  Tuple keys cannot
    alias, so every call returns what the polynomial code returns for the
    same ints, out-of-range ones included; an int key such as a*q + b would
    give (a, b + q) the answer of (a + 1, b).  Two threads that race on a
    miss store the same value.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self._add: dict[tuple[int, int], int] = {}
        self._mul: dict[tuple[int, int], int] = {}
        self._neg: dict[int, int] = {}
        self._inv: dict[int, int] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, k={self.k})"

    def decode(self, a: int) -> tuple[int, ...]:
        """Base-p digits (low-to-high) of an element index."""
        digits = []
        for _ in range(self.k):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def encode(self, digits) -> int:
        a = 0
        for d in reversed(list(digits)):
            a = a * self.p + (d % self.p)
        return a

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        try:
            return self._add[a, b]
        except KeyError:
            c = self._add[a, b] = _poly_add(self, a, b)
            return c

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        try:
            return self._neg[a]
        except KeyError:
            c = self._neg[a] = _poly_neg(self, a)
            return c

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        try:
            return self._mul[a, b]
        except KeyError:
            c = self._mul[a, b] = _poly_mul(self, a, b)
            return c

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        try:
            return self._inv[a]
        except KeyError:
            # squares through this field's own mul, filling its table too
            c = self._inv[a] = _poly_inv(self, a, Field.mul)
            return c

    def elements(self) -> range:
        return range(self.order)


def field_create(p: int, k: int, modulus=None) -> Field:
    """Build F_{p^k}, verifying primality and modulus irreducibility.

    For k = 1 the modulus is implicit and must be omitted or None.  For
    k >= 2 a monic coefficient list of length k + 1 (low-to-high) is
    required; it is checked irreducible by exhaustive trial division,
    which is fast for the intended range p^k <= MAX_FIELD_ORDER (2**20).
    """
    if not (is_int(p) and is_int(k)):
        raise ValueError(f"p and k must be ints, got {p!r} and {k!r}")
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if k == 1:
        if modulus not in (None, ()):
            raise ValueError("prime fields take no modulus")
        return Field(p, 1, None)
    if modulus is None:
        raise ValueError("extension fields require an explicit modulus")
    if not all(map(is_int, modulus)):
        raise ValueError(f"modulus coefficients must be ints, got {list(modulus)}")
    mod = tuple(c % p for c in modulus)
    if len(mod) != k + 1:
        raise ValueError(f"modulus must have degree {k}, got length {len(mod)}")
    if mod[-1] != 1:
        raise ValueError("modulus must be monic")
    if not _is_irreducible(mod, p):
        raise ReducibleModulusError(f"modulus {list(mod)} is reducible over F_{p}")
    return Field(p, k, mod)

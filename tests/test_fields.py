import itertools
import random

import pytest
from hypothesis import given, strategies as st

from commprob.errors import NonPrimeError, ReducibleModulusError
from commprob.fields import (
    Field,
    _poly_add,
    _poly_inv,
    _poly_mul,
    _poly_neg,
    field_create,
    is_prime,
    is_prime_power,
)


def test_prime_fields():
    f2 = field_create(2, 1)
    f3 = field_create(3, 1)
    assert f2.order == 2
    assert f3.order == 3


def test_extension_field_f4():
    # x^2 + x + 1 has no root over F2, so it is irreducible
    f4 = field_create(2, 2, (1, 1, 1))
    assert f4.order == 4


def test_non_prime_characteristic_rejected():
    for p in (1, 4, 6, 9, 15):
        with pytest.raises(NonPrimeError):
            field_create(p, 1)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over F2
    with pytest.raises(ReducibleModulusError):
        field_create(2, 2, (1, 0, 1))
    # x^2 - 1 = (x - 1)(x + 1) over F5
    with pytest.raises(ReducibleModulusError):
        field_create(5, 2, (4, 0, 1))


def test_modulus_shape_validation():
    with pytest.raises(ValueError):
        field_create(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        field_create(3, 2, (1, 1, 2))  # not monic
    with pytest.raises(ValueError):
        field_create(2, 2)  # missing modulus
    with pytest.raises(ValueError):
        field_create(5, 1, (1, 1))  # prime field takes no modulus


@pytest.mark.parametrize(
    "args,message",
    [
        ((2.0, 1), "p and k must be ints"),
        ((3, 2.0, (1, 0, 1)), "p and k must be ints"),
        ((2, 2, (1.9, 1, 1)), "modulus coefficients must be ints"),
        ((2, True), "p and k must be ints"),  # would build F_2
        ((True, 1), "p and k must be ints"),
        ((2, 2, (1, True, 1)), "modulus coefficients must be ints"),  # x^2 + x + 1
    ],
)
def test_field_create_refuses_non_int_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        field_create(*args)


@pytest.mark.parametrize(
    "field",
    [
        field_create(2, 1),
        field_create(5, 1),
        field_create(2, 2, (1, 1, 1)),
        field_create(2, 3, (1, 1, 0, 1)),  # x^3 + x + 1
        field_create(3, 2, (1, 0, 1)),  # x^2 + 1, no root mod 3
    ],
    ids=["F2", "F5", "F4", "F8", "F9"],
)
def test_field_axioms_exhaustive(field: Field):
    elems = list(field.elements())
    one, zero = 1, 0
    for a in elems:
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.mul(a, zero) == zero
        assert field.add(a, field.neg(a)) == zero
        if a != zero:
            assert field.mul(a, field.inv(a)) == one
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in elems:
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


def test_inverse_of_zero_raises():
    f = field_create(3, 1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_is_prime_and_prime_power_against_brute_force():
    limit = 5000
    primes = {p for p in range(2, limit) if all(p % d for d in range(2, p))}
    powers = set()
    for p in primes:
        q = p
        while q < limit:
            powers.add(q)
            q *= p
    for n in range(-2, limit):
        assert is_prime(n) == (n in primes), n
        assert is_prime_power(n) == (n in powers), n
    assert is_prime(100000007) and is_prime_power(100000007)
    assert is_prime_power(3**17) and not is_prime(3**17)
    assert not is_prime_power(2 * 100000007)


def test_trial_division_refuses_numbers_above_its_bound():
    from commprob.fields import MAX_TRIAL_DIVISION

    assert is_prime_power(MAX_TRIAL_DIVISION)  # 2^40 itself is accepted
    for n in (MAX_TRIAL_DIVISION + 1, 10**30 + 57):
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            is_prime_power(n)


# Property tests over F_q for q in {2, 3, 4, 5, 7, 8, 9, 25}
PROPERTY_FIELDS = [
    field_create(2, 1),
    field_create(3, 1),
    field_create(2, 2, (1, 1, 1)),
    field_create(5, 1),
    field_create(7, 1),
    field_create(2, 3, (1, 1, 0, 1)),
    field_create(3, 2, (1, 0, 1)),
    field_create(5, 2, (2, 0, 1)),  # x^2 + 2: -2 is not a square mod 5
]


@st.composite
def field_elements(draw, count=3):
    """A field from PROPERTY_FIELDS and `count` of its element indices."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    return field, [draw(st.integers(0, field.order - 1)) for _ in range(count)]


@given(field_elements())
def test_field_ring_axioms(drawn):
    field, (a, b, c) = drawn
    add, mul = field.add, field.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0


@given(field_elements(count=2))
def test_field_neg_sub_inv_identities(drawn):
    field, (a, b) = drawn
    assert field.add(a, field.neg(a)) == 0
    assert field.neg(field.neg(a)) == a
    assert field.sub(a, b) == field.add(a, field.neg(b))
    assert field.add(field.sub(a, b), b) == a
    if a != 0:
        assert field.mul(a, field.inv(a)) == 1
        assert field.inv(field.inv(a)) == a
    if a != 0 and b != 0:
        assert field.mul(a, b) != 0  # no zero divisors
        assert field.inv(field.mul(a, b)) == field.mul(field.inv(a), field.inv(b))


@given(field_elements(count=1))
def test_field_encode_decode_round_trip(drawn):
    field, (a,) = drawn
    digits = field.decode(a)
    assert len(digits) == field.k and all(0 <= x < field.p for x in digits)
    assert field.encode(digits) == a


# The uncached polynomial arithmetic, the reference for every table.
REFERENCE = {
    "add": _poly_add,
    "mul": _poly_mul,
    "sub": lambda field, a, b: _poly_add(field, a, _poly_neg(field, b)),
    "neg": _poly_neg,
    "inv": _poly_inv,
}

TABLE_FIELDS = {
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F9": (3, 2, (1, 0, 1)),
    "F16": (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    "F25": (5, 2, (2, 0, 1)),
    "F27": (3, 3, (1, 2, 0, 1)),  # x^3 + 2x + 1, no root mod 3
    "F1024": (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),  # x^10 + x^3 + 1
}


@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_tables_return_what_the_polynomial_code_returns(name):
    q = TABLE_FIELDS[name][0] ** TABLE_FIELDS[name][1]
    if q <= 27:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
    singles = sorted({a for a, _ in pairs})
    for op, calls in (
        ("add", pairs),
        ("mul", pairs),
        ("sub", pairs),
        ("neg", [(a,) for a in singles]),
        ("inv", [(a,) for a in singles if a]),
    ):
        field = field_create(*TABLE_FIELDS[name])  # a fresh field: the first pass is cold
        for _ in ("cold", "warm"):
            for args in calls:
                assert getattr(field, op)(*args) == REFERENCE[op](field, *args), (op, args)

    # an out-of-range operand after its would-be alias under the int key
    # a*q + b is cached: (1, 1 + q) and (2, 1) share that key
    field = field_create(*TABLE_FIELDS[name])
    for op in ("add", "mul", "sub"):
        alias = getattr(field, op)(2, 1)
        want = REFERENCE[op](field, 1, 1 + q)
        assert want != alias and getattr(field, op)(1, 1 + q) == want
    for op in ("neg", "inv"):
        assert getattr(field, op)(1 + q) == REFERENCE[op](field, 1 + q)

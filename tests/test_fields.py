import pytest

from commprob.errors import NonPrimeError, ReducibleModulusError
from commprob.fields import Field, field_create, is_prime, is_prime_power


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

"""Shared fixtures and independent oracles for the test suite.

The oracle helpers here deliberately avoid the branching-matrix machinery:
orbit counts come from enumerating tuples, abelian bounds from a direct
search over the abelian subgroup lattice.  They exist to check the package
from the outside.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from commprob.fields import field_create
from commprob.groups import group_generate, matrix_element, permutation_element
from commprob.groupspec import CORPUS_NAMES, corpus_group

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic.  Hypothesis still caches source
# constants and Unicode tables; they go to a directory removed at exit, so
# no .hypothesis/ directory is written into the checkout.
settings.register_profile("commprob", derandomize=True, deadline=None, database=None)
settings.load_profile("commprob")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="commprob-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

CORPUS_ORDERS = {
    "s3": 6,
    "d4": 8,
    "q8": 8,
    "s4": 24,
    "gl2_f2": 6,
    "gl2_f3": 48,
    "gl3_f2": 168,
}


@pytest.fixture(scope="session")
def corpus():
    """All bundled groups, built once; branching matrices cache on them."""
    return {name: corpus_group(name) for name in CORPUS_NAMES}


def symmetric_group(n, offset=0, degree=None):
    """S_n acting on offset .. offset+n-1 of {0 .. degree-1}: an n-cycle and
    a transposition."""
    degree = n if degree is None else degree

    def perm(cycle):
        images = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        return images

    points = list(range(offset, offset + n))
    return [permutation_element(perm(points)), permutation_element(perm(points[:2]))]


def gl2_generators(p, modulus=None):
    """A transvection, the swap and diag(w, 1), w generating F_q*, which
    generate GL2(F_q); q = p, or p^k for a modulus of degree k."""
    field = field_create(p, 1 if modulus is None else len(modulus) - 1, modulus)
    q = field.order

    def mult_order(x):
        y, n = x, 1
        while y != 1:
            y, n = field.mul(y, x), n + 1
        return n

    w = next(x for x in range(2, q) if mult_order(x) == q - 1) if q > 2 else 1
    rows = ([[1, 1], [0, 1]], [[0, 1], [1, 0]], [[w, 0], [0, 1]])
    return [matrix_element(field, r) for r in rows]


def gl2(p, modulus=None):
    """GL2(F_q) from `gl2_generators`."""
    gens = gl2_generators(p, modulus)
    return group_generate(gens, name=f"GL2(F{gens[0].carrier.field.order})")


def gl3_generators(p):
    """A transvection, the 3-cycle permutation matrix and diag(w, 1, 1), w
    generating F_p*, which generate GL3(F_p)."""
    field = field_create(p, 1)
    w = next(x for x in range(1, p) if len({pow(x, e, p) for e in range(p)}) == p - 1)
    rows = (
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[w, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    return [matrix_element(field, r) for r in rows]


def sl2(p):
    """SL2(F_p) from its two elementary transvections."""
    field = field_create(p, 1)
    rows = ([[1, 1], [0, 1]], [[1, 0], [1, 1]])
    return group_generate([matrix_element(field, r) for r in rows], name=f"SL2(F{p})")


def build_large_groups():
    """S7, SL2(F13) and S5 x S4: 2184 to 5040 elements, above the
    500-element oracle cap; built afresh on every call."""
    return {
        "s7": group_generate(symmetric_group(7), name="S7"),
        "sl2_f13": sl2(13),
        "s5xs4": group_generate(
            symmetric_group(5, 0, 9) + symmetric_group(4, 5, 9), name="S5xS4"
        ),
    }


@pytest.fixture(scope="session")
def large_groups():
    return build_large_groups()


def recording(candidates, tried):
    """Yield the candidates, appending each to `tried` as it is taken."""
    for g in candidates:
        tried.append(g)
        yield g


def subgroup_closure(group, seed):
    """Member set of the subgroup generated by `seed` (plus identity)."""
    members = {0} | {int(x) for x in seed}
    changed = True
    while changed:
        changed = False
        current = list(members)
        for a in current:
            ia = group.inv(a)
            if ia not in members:
                members.add(ia)
                changed = True
            for b in current:
                p = group.mul(a, b)
                if p not in members:
                    members.add(p)
                    changed = True
    return frozenset(members)


def enumerate_commuting_tuples(group, d):
    """Every commuting d-tuple, by plain backtracking."""
    found = []

    def extend(prefix):
        if len(prefix) == d:
            found.append(tuple(prefix))
            return
        for x in range(group.order):
            if all(group.commute(x, y) for y in prefix):
                extend(prefix + [x])

    extend([])
    return found


def naive_orbit_count(group, d):
    """(number of commuting d-tuples, orbit count under conjugation)."""
    tuples = enumerate_commuting_tuples(group, d)
    seen = set()
    orbits = 0
    for t in tuples:
        if t in seen:
            continue
        orbits += 1
        for g in range(group.order):
            seen.add(tuple(group.conj(g, x) for x in t))
    return len(tuples), orbits


def bruteforce_abelian_subgroups(group):
    """Member sets of every abelian subgroup, by search over the abelian
    lattice.

    Starts from every cyclic subgroup and extends by commuting elements; an
    abelian subgroup equal to its own centralizer cannot grow.
    """
    frontier = {subgroup_closure(group, [g]) for g in range(group.order)}
    seen = set(frontier)
    while frontier:
        fresh = set()
        for sub in frontier:
            cent = [
                z
                for z in range(group.order)
                if all(group.commute(z, x) for x in sub)
            ]
            for h in cent:
                if h in sub:
                    continue
                ext = subgroup_closure(group, list(sub) + [h])
                if ext not in seen:
                    seen.add(ext)
                    fresh.add(ext)
        frontier = fresh
    return seen


def bruteforce_max_abelian_order(group):
    """Largest abelian subgroup order, from `bruteforce_abelian_subgroups`."""
    return max(len(s) for s in bruteforce_abelian_subgroups(group))


def unitriangular(n, p):
    """UT_n(F_p), the upper unitriangular n x n matrices over F_p, from the
    n - 1 elementary transvections e_{i,i+1}."""
    field = field_create(p, 1)
    gens = [
        matrix_element(
            field,
            [[1 if r == c or (r, c) == (i, i + 1) else 0 for c in range(n)] for r in range(n)],
        )
        for i in range(n - 1)
    ]
    return group_generate(gens, name=f"UT{n}(F{p})")

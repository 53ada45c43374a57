"""Cyclotomic arithmetic: canonical forms, exactness, ring axioms."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fscat.cyclo import ONE, ZERO, Cyclotomic

z = Cyclotomic.zeta


def test_roots_of_unity_basics():
    assert z(1) == 1
    assert z(2) == -1
    assert z(4, 2) == -1
    assert z(4, 4) == 1
    i = z(4)
    assert i * i == -1
    assert i.n == 4


def test_conductor_is_minimal():
    # the sixth root lives in the field of third roots
    assert z(6).n == 3
    assert z(6) == 1 + z(3)
    assert (z(8) * z(8, 7)).n == 1
    assert (z(5) + z(5, 4)).n == 5
    assert Cyclotomic(12, [0, 0, 0, 1]).n == 4  # zeta_12^3 = i


def test_primitive_root_sums_vanish():
    for n in range(2, 25):
        total = ZERO
        for k in range(n):
            total = total + z(n, k)
        assert total == 0, n


def test_gauss_sum_gives_sqrt5():
    s = z(5) - z(5, 2) - z(5, 3) + z(5, 4)
    assert s * s == 5
    golden = (z(5) + z(5, 4)).scaled(1)
    assert golden * golden + golden - 1 == 0


def test_conjugation():
    x = z(12, 5)
    assert x * x.conj() == 1
    assert (x + x.conj()).conj() == x + x.conj()
    assert Cyclotomic.from_rational(Fraction(3, 7)).conj() == Fraction(3, 7)


def test_galois_maps():
    x = 1 + 2 * z(7) - z(7, 3)
    y = z(7, 2) + 5
    for k in (2, 3, 6):
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    with pytest.raises(ValueError):
        z(6).galois(3)


def test_rational_extraction():
    assert (z(3) + z(3, 2)).as_rational_integer() == -1
    assert z(3).as_rational_integer() is None
    half = Cyclotomic.from_rational(Fraction(1, 2))
    assert half.as_rational_integer() is None
    assert half.c == (Fraction(1, 2),)
    assert (half + half).as_rational_integer() == 1


def test_from_exponents():
    v = Cyclotomic.from_exponents(12, {0: 1, 3: 2, 15: 1})
    assert v == 1 + 3 * z(12, 3)
    assert Cyclotomic.from_exponents(6, {2: 1, 4: 1}).as_rational_integer() == -1


def test_promotion_round_trip():
    x = 2 + z(9) - z(9, 4)
    for m in (2, 4, 5):
        coeffs = [Fraction(v, x.den) for v in x._lift_num(9 * m)]
        lifted = Cyclotomic(9 * m, coeffs)
        assert lifted == x
        assert lifted.n == 9


def test_scaled_and_zero():
    x = z(8) + 1
    assert x.scaled(Fraction(1, 3)) * 3 == x
    assert x.scaled(0) == 0
    assert (x - x) == 0
    assert ZERO == 0 and ONE == 1


def test_text_forms():
    assert Cyclotomic.from_rational(5).to_text() == "5"
    assert Cyclotomic.from_rational(Fraction(-1, 2)).to_text() == "-1/2"
    v = 1 + 2 * z(8) + z(8, 3)
    assert v.to_text() == "1 + 2*z + z^3"
    assert (-z(4)).to_text() == "-z"
    assert "E(4)" in str(z(4))


def test_hash_consistency():
    a = z(6, 2)
    b = z(3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, z(3, 2)}) == 2


def test_equal_rationals_hash_equal():
    # a value equal to an int or Fraction must hash like it, so that sets and
    # dicts mixing them do not hold one value twice
    q = Cyclotomic.from_rational
    for v in (0, 1, -1, 7, -12, 10**30, Fraction(1, 2), Fraction(-3, 7),
              Fraction(10**20, 3)):
        assert q(v) == v and hash(q(v)) == hash(v), v
    assert len({1, ONE}) == 1 and len({0, ZERO}) == 1
    assert len({Fraction(1, 2), q(Fraction(1, 2))}) == 1
    assert hash(z(8) * z(8, 7)) == hash(1)
    assert hash(z(3) + z(3, 2)) == hash(-1)
    assert hash(Cyclotomic(4, [Fraction(1, 2), 0])) == hash(Fraction(1, 2))
    # non-rational values: equal forms hash equal, and sets tell them apart
    vals = [z(4), z(8), z(8) + z(8, 7), z(5).scaled(Fraction(1, 2))]
    assert all(hash(v) == hash(Cyclotomic(v.n, v.c)) for v in vals)
    assert len(set(vals) | {1, Fraction(1, 2)}) == 6


# conductor pool skips the large primes 13, 17, 19, 23: they add nothing
# structurally and triple products would promote to fields of degree > 1000
_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 18, 20, 22, 24)


def _random_value(rng: random.Random) -> Cyclotomic:
    n = rng.choice(_CONDUCTORS)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        num = rng.randint(-3, 3)
        den = rng.choice((1, 1, 2))
        terms[rng.randrange(n)] = Fraction(num, den)
    return Cyclotomic.from_exponents(n, terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).conj() == a.conj() * b.conj()

"""Exact arithmetic in cyclotomic fields.

Values are stored as integer coefficient vectors with a common denominator
over the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), reduced modulo the
n-th cyclotomic polynomial.  The conductor n is always minimal: after every
operation the value is rewritten into the smallest cyclotomic field containing
it, so two values are equal exactly when their stored forms agree.
"""
from __future__ import annotations

import math
from fractions import Fraction

_POLY_CACHE: dict[int, list[int]] = {1: [-1, 1]}
_ROW_CACHE: dict[int, list[tuple[int, ...]]] = {}
_PHI_CACHE: dict[int, int] = {1: 1}
_FACTOR_CACHE: dict[int, tuple[int, ...]] = {}
_FIXER_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def _prime_factors(n: int) -> tuple[int, ...]:
    if n not in _FACTOR_CACHE:
        out, m, p = [], n, 2
        while p * p <= m:
            if m % p == 0:
                out.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            out.append(m)
        _FACTOR_CACHE[n] = tuple(out)
    return _FACTOR_CACHE[n]


def _phi(n: int) -> int:
    if n not in _PHI_CACHE:
        v = n
        for p in _prime_factors(n):
            v = v // p * (p - 1)
        _PHI_CACHE[n] = v
    return _PHI_CACHE[n]


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, monic divisor
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(v == 0 for v in num), "non-exact polynomial division"
    return out


def _cyclo_poly(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n not in _POLY_CACHE:
        rad = 1
        for p in _prime_factors(n):
            rad *= p
        if rad != n:
            # Phi_n(x) = Phi_rad(x^(n/rad))
            base = _cyclo_poly(rad)
            q = n // rad
            out = [0] * ((len(base) - 1) * q + 1)
            for i, c in enumerate(base):
                out[i * q] = c
            _POLY_CACHE[n] = out
        else:
            num = [0] * (n + 1)
            num[0], num[n] = -1, 1
            for d in range(1, n):
                if n % d == 0:
                    num = _polydiv_exact(num, _cyclo_poly(d))
            _POLY_CACHE[n] = num
    return _POLY_CACHE[n]


def _power_rows(n: int) -> list[tuple[int, ...]]:
    """Row t is zeta_n^t written in the reduced power basis, for 0 <= t < n."""
    if n not in _ROW_CACHE:
        phi = _phi(n)
        poly = _cyclo_poly(n)
        top = [-c for c in poly[:phi]]
        rows = [tuple(1 if i == t else 0 for i in range(phi)) for t in range(phi)]
        for _ in range(phi, n):
            prev = rows[-1]
            carry = prev[phi - 1]
            shifted = [0] + list(prev[:-1])
            if carry:
                shifted = [s + carry * t for s, t in zip(shifted, top)]
            rows.append(tuple(shifted))
        _ROW_CACHE[n] = rows
    return _ROW_CACHE[n]


def _reduce_ints(n: int, vec: list[int]) -> list[int]:
    """Remainder of an integer coefficient vector modulo the n-th cyclotomic polynomial."""
    phi = _phi(n)
    if len(vec) <= phi:
        return vec + [0] * (phi - len(vec))
    rows = _power_rows(n)
    out = vec[:phi]
    for t in range(phi, len(vec)):
        c = vec[t]
        if c:
            row = rows[t % n]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return out


def _galois_ints(n: int, vec, k: int) -> list[int]:
    phi = _phi(n)
    rows = _power_rows(n)
    out = [0] * phi
    for j, c in enumerate(vec):
        if c:
            row = rows[j * k % n]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return out


def _fixers(n: int, m: int) -> tuple[int, ...]:
    if (n, m) not in _FIXER_CACHE:
        _FIXER_CACHE[(n, m)] = tuple(
            k for k in range(2, n) if (k - 1) % m == 0 and math.gcd(k, n) == 1
        )
    return _FIXER_CACHE[(n, m)]


def _solve_in_span(rows: list[tuple[int, ...]], target: list[int]) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of rows, or None."""
    k, width = len(rows), len(target)
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])]
           for j in range(width)]
    piv_of_col: list[int | None] = [None] * k
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, width) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(width):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_of_col[col] = r
        r += 1
    for i in range(r, width):
        if aug[i][k]:
            return None
    return [aug[piv_of_col[c]][k] if piv_of_col[c] is not None else Fraction(0)
            for c in range(k)]


def _shrink_ints(n: int, vec: list[int]) -> tuple[int, list[int], int]:
    """Minimal conductor form of vec; returns (conductor, numerators, extra_den)."""
    extra = 1
    while n > 1:
        if not any(vec[1:]):
            return 1, [vec[0]], extra
        for q in _prime_factors(n):
            m = n // q
            if any(_galois_ints(n, vec, k) != vec for k in _fixers(n, m)):
                continue
            if m == 1:
                assert not any(vec[1:])
                return 1, [vec[0]], extra
            s = n // m
            rows_n = _power_rows(n)
            basis = [rows_n[i * s] for i in range(_phi(m))]
            sol = _solve_in_span(basis, vec)
            assert sol is not None, "Galois-fixed value failed to rewrite in subfield"
            den = math.lcm(*(f.denominator for f in sol)) if sol else 1
            vec = [int(f * den) for f in sol]
            extra *= den
            n = m
            break
        else:
            break
    return n, vec, extra


def _normalized(n: int, num: list[int], den: int) -> tuple[int, tuple[int, ...], int]:
    n, num, extra = _shrink_ints(n, num)
    den *= extra
    g = math.gcd(den, math.gcd(*num) if num else 0)
    if g > 1:
        den //= g
        num = [v // g for v in num]
    return n, tuple(num), den


class Cyclotomic:
    """An element of a cyclotomic field in canonical (minimal-conductor) form."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ValueError("conductor must be positive")
        x = Cyclotomic.from_exponents(n, dict(enumerate(coeffs)))
        self.n, self.num, self.den = x.n, x.num, x.den

    @classmethod
    def _raw(cls, n: int, num: tuple[int, ...], den: int) -> "Cyclotomic":
        x = object.__new__(cls)
        x.n, x.num, x.den = n, num, den
        return x

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        q = Fraction(q)
        return cls._raw(1, (q.numerator,), q.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclotomic":
        if n < 1:
            raise ValueError("order must be positive")
        return cls.from_exponents(n, {k: 1})

    @classmethod
    def from_exponents(cls, n: int, terms: dict[int, object]) -> "Cyclotomic":
        """Sum of coeff * zeta_n^k over the items of terms."""
        fracs: dict[int, Fraction] = {}
        for k, v in terms.items():
            f = Fraction(v)
            if f:
                fracs[k % n] = fracs.get(k % n, Fraction(0)) + f
        den = math.lcm(*(f.denominator for f in fracs.values())) if fracs else 1
        vec = [0] * n
        for k, f in fracs.items():
            vec[k] += int(f * den)
        m, num, den = _normalized(n, _reduce_ints(n, vec), den)
        return cls._raw(m, num, den)

    # -- queries ------------------------------------------------------------

    @property
    def c(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis of the minimal field, as fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def as_rational_integer(self) -> int | None:
        if self.n == 1 and self.den == 1:
            return self.num[0]
        return None

    def sort_key(self):
        return (self.n, self.den, self.num)

    # -- arithmetic ---------------------------------------------------------

    def _lift_num(self, big: int) -> list[int]:
        """Numerator vector of this value at conductor big (a multiple of self.n)."""
        if big == self.n:
            return list(self.num)
        s = big // self.n
        rows = _power_rows(big)
        out = [0] * _phi(big)
        for j, cv in enumerate(self.num):
            if cv:
                row = rows[j * s]
                for i, r in enumerate(row):
                    if r:
                        out[i] += cv * r
        return out

    @staticmethod
    def _coerce(v) -> "Cyclotomic | None":
        if isinstance(v, Cyclotomic):
            return v
        if isinstance(v, int):
            return Cyclotomic._raw(1, (v,), 1)
        if isinstance(v, Fraction):
            return Cyclotomic._raw(1, (v.numerator,), v.denominator)
        return None

    def __add__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            f = Fraction(self.num[0], self.den) + Fraction(other.num[0], other.den)
            return Cyclotomic._raw(1, (f.numerator,), f.denominator)
        big = math.lcm(self.n, other.n)
        da, db = self.den, other.den
        dd = math.lcm(da, db)
        fa, fb = dd // da, dd // db
        va = self._lift_num(big)
        vb = other._lift_num(big)
        vec = [a * fa + b * fb for a, b in zip(va, vb)]
        return Cyclotomic._raw(*_normalized(big, vec, dd))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._raw(self.n, tuple(-v for v in self.num), self.den)

    def __sub__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.n == 1:
            return self.scaled(Fraction(other.num[0], other.den))
        if self.n == 1:
            return other.scaled(Fraction(self.num[0], self.den))
        big = math.lcm(self.n, other.n)
        va, vb = self._lift_num(big), other._lift_num(big)
        prod = [0] * (len(va) + len(vb) - 1)
        for i, a in enumerate(va):
            if a:
                for j, b in enumerate(vb):
                    if b:
                        prod[i + j] += a * b
        vec = _reduce_ints(big, prod)
        return Cyclotomic._raw(*_normalized(big, vec, self.den * other.den))

    __rmul__ = __mul__

    def scaled(self, q) -> "Cyclotomic":
        """Multiply by a rational scalar."""
        q = Fraction(q)
        if q == 0:
            return ZERO
        num = tuple(v * q.numerator for v in self.num)
        n, num, den = self.n, num, self.den * q.denominator
        g = math.gcd(den, math.gcd(*num))
        if g > 1:
            den //= g
            num = tuple(v // g for v in num)
        return Cyclotomic._raw(n, num, den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugate (the Galois map z -> z^-1)."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the Galois automorphism zeta -> zeta^k; k must be a unit mod n."""
        if math.gcd(k, self.n) != 1:
            raise ValueError(f"{k} is not invertible modulo {self.n}")
        if self.n == 1:
            return self
        vec = _galois_ints(self.n, self.num, k % self.n)
        return Cyclotomic._raw(*_normalized(self.n, vec, self.den))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        # equal to the hash of the int or Fraction this value equals
        if self.n == 1:
            if self.den == 1:
                return hash(self.num[0])
            return hash(Fraction(self.num[0], self.den))
        return hash((self.n, self.den, self.num))

    # -- text ---------------------------------------------------------------

    def to_text(self) -> str:
        """Render as "a0 + a1*z + ..." with z implicitly a primitive n-th root."""
        if self.n == 1:
            return str(Fraction(self.num[0], self.den))
        parts = []
        for i, f in enumerate(self.c):
            if f == 0:
                continue
            if i == 0:
                mon = str(abs(f))
            else:
                zi = "z" if i == 1 else f"z^{i}"
                mon = zi if abs(f) == 1 else f"{abs(f)}*{zi}"
            if not parts:
                parts.append(mon if f > 0 else f"-{mon}")
            else:
                parts.append(("+ " if f > 0 else "- ") + mon)
        return " ".join(parts)

    def __str__(self) -> str:
        if self.n == 1:
            return str(Fraction(self.num[0], self.den))
        return f"{self.to_text()} [z = E({self.n})]"

    def __repr__(self) -> str:
        return f"Cyclotomic({self.n}, {[str(v) for v in self.c]})"


ZERO = Cyclotomic._raw(1, (0,), 1)
ONE = Cyclotomic._raw(1, (1,), 1)

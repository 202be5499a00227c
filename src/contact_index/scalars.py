"""Exact scalars: a cyclotomic number times one integer power of pi.

Every number that appears in a germ or a character table is

    c * pi^k,        c in Q(zeta_L), k an integer,

with c stored in the power basis of the L-th cyclotomic field modulo the
L-th cyclotomic polynomial.  Levels are kept at multiples of 4 so that
i = zeta_4 is always representable and needs no special casing.  pi is a
formal graded symbol; nothing in this module ever evaluates it numerically
except the display helpers.

Every stage of the index formula carries one power of pi, its grade:
curvatures 0, the pairing of a monomial J |J| + 1 (Stokes), germs 1 and
characters 0, which the Fourier path relies on.  `ExactScalar` is (pi, value);
zero has grade 0; adding nonzero scalars of two grades raises `ScalarError`.

A cyclotomic number is stored as integer numerators over one denominator
(see `CyclotomicNumber`), and every operation runs in Python integers.  The
trusted constructors set the slots through their member descriptors: `_make`
divides out the gcd, `_integer(n)` sets the level-4 value n / 1 without it, and
`_scalar` builds each nonzero product, canonical already, past `ExactScalar`'s
checks.  An `ExactScalar` times an int or a Fraction scales the numerators at
the same level and only demotes (a rational multiple lies in the same
subfields): no product, no fold.

Canonicalization keeps its tables per level, each built once and cached, and
level 4 needs none:

* Level 4, Q(i) with basis 1 and i, is the bottom of the tower, and the
  germs and windows of the Hopf and prequantum spheres live there.  A sum or
  a product of two level-4 values, (a + b i)(c + d i) = (ac - bd) + (ad + bc) i
  in integers, has no exponent past the basis to fold, and no smaller level
  exists to demote to, so `_make`'s gcd alone makes it canonical: `__add__`,
  `__mul__` and the int or Fraction scaling skip `_common`, `_fold` and
  `demote` there.
* The fold table of level L holds the integer rows x^e mod Phi_L for
  phi(L) <= e < L (Phi_L is monic and integral).  Reduction adds c * row[e]
  for each exponent past the basis, with no polynomial division; a product
  of reduced operands has exponents <= 2 phi(L) - 2 < L, and every other
  caller reduces exponents mod L first.
* `demote` drops one prime p from the level L at a time, wherever 4 | L/p,
  for as long as the value lies in Q(zeta_L') with L' = L/p.  If p | L' or
  phi(L') < p, each zeta_L'^j, j < phi(L'), is the basis vector
  zeta_L^(j p): the value is in the subfield exactly when every exponent is
  a multiple of p.  This support test is tried first.  Otherwise p divides L
  once; with s = 1/p mod L' and t = 1/L' mod p, zeta_L^e =
  zeta_L'^(e s) zeta_p^(e t), so grouping the terms by e t mod p writes the
  value as the sum of X_b zeta_p^b, each X_b folded at L'.  Since 1, zeta_p,
  ..., zeta_p^(p-2) is a basis over Q(zeta_L') (the linear-disjointness
  split behind Breuer's integral bases of cyclotomic subfields, AAECC 8,
  1997), the value lies in Q(zeta_L') exactly when X_1 = ... = X_(p-1), and
  it is then X_0 - X_(p-1).  The smallest level holding a value is unique,
  so the primes may be dropped in any order.
* `galois(t)`, zeta -> zeta^t, permutes exponents mod L and folds once.
  Row e < L of the trace table of L and a group of maps t holds the sum of
  zeta^(e t) over the maps, at the smallest level holding every row (4 for
  the units t = 1 mod 4); row e t is row e, so one is folded per orbit.
* `inverse` (public scalar division; the pipeline no longer calls it) demotes,
  multiplies the other conjugates over Q(i) (the units t = 1 mod 4), so x times
  their product P is a norm N in Q(i), and divides once: x^-1 = P conj(N) / |N|^2.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache


class ScalarError(ValueError):
    """Raised for structurally invalid scalar operations."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending.

    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), in integer arithmetic: the
    factors with mu = 1 are multiplied in first, so that every division by
    x^d - 1 afterwards is exact.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    p = [1]
    for d in divisors:
        if _mobius(n // d) == 1:  # p * (x^d - 1)
            out = [-a for a in p] + [0] * d
            for i, a in enumerate(p):
                out[i + d] += a
            p = out
    for d in divisors:
        if _mobius(n // d) == -1:  # p / (x^d - 1), from the top
            q = [0] * len(p)
            for k in range(len(p) - 1, d - 1, -1):
                q[k - d] = p[k] + q[k]
            assert all(p[k] + q[k] == 0 for k in range(d)), "cyclotomic division must be exact"
            p = q[:len(p) - d]
    return tuple(p)


@lru_cache(maxsize=None)
def _primes(n):
    """The distinct prime factors of n, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(out + [n] * (n > 1))


def _mobius(n):
    ps = _primes(n)
    return 0 if any(n % (p * p) == 0 for p in ps) else (-1) ** len(ps)


@lru_cache(maxsize=None)
def _euler_phi(n):
    for p in _primes(n):
        n -= n // p
    return n


# ----------------------------------------------------------------------
# per-level tables, each built once and cached
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fold_table(level):
    """Rows x^e mod Phi_level for phi(level) <= e < level, at index e - phi(level).

    Each row is a tuple of (exponent, integer) pairs with nonzero integers;
    Phi_level is monic and integral, so every row is exact over Z.
    """
    phi = _euler_phi(level)
    top = [-c for c in cyclotomic_polynomial(level)[:phi]]  # x^phi
    rows = []
    row = top
    for _ in range(phi, level):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        carry = row[-1]
        row = [0] + row[:-1]
        if carry:
            row = [a + carry * t for a, t in zip(row, top)]
    return tuple(rows)


def _fold(raw, level):
    """Reduce {exponent: coefficient} with exponents in [0, level) modulo Phi_level."""
    phi = _euler_phi(level)
    table = _fold_table(level)
    out = {}
    high = []
    for e, c in raw.items():
        if e < phi:
            out[e] = c
        elif c:
            high.append((e, c))
    for e, c in high:
        for j, r in table[e - phi]:
            out[j] = out.get(j, 0) + c * r
    return {e: c for e, c in out.items() if c}


def _is_support_test(level, p):
    """Whether each zeta_(level/p)^j, j < phi(level/p), is the basis vector zeta_level^(j p)."""
    sub = level // p
    return sub % p == 0 or _euler_phi(sub) < p


@lru_cache(maxsize=None)
def _descent_primes(level):
    """The primes p with 4 | level/p, those that `_is_support_test` decides first."""
    return tuple(sorted((p for p in _primes(level) if level % (4 * p) == 0),
                        key=lambda p: not _is_support_test(level, p)))


def _descend(level, nums, p):
    """The numerators at level/p of the value nums at `level`, or None if it is not there."""
    sub = level // p
    if _is_support_test(level, p):
        if any(e % p for e in nums):
            return None
        return {e // p: c for e, c in nums.items()}
    # p does not divide sub: zeta_level^e = zeta_sub^(e s) * zeta_p^(e t)
    s, t = pow(p, -1, sub), pow(sub, -1, p)
    groups = [{} for _ in range(p)]  # X_b: the terms with e t = b mod p, at level sub
    for e, c in nums.items():
        groups[e * t % p][e * s % sub] = c
    top = _fold(groups[-1], sub)
    if any(_fold(g, sub) != top for g in groups[1:-1]):
        return None
    out = _fold(groups[0], sub)  # X_0 + X_(p-1) (zeta_p + ... + zeta_p^(p-1))
    for k, c in top.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def _units_over_qi(level):
    """The units t = 1 mod 4 of `level`, ascending: Gal(Q(zeta_level)/Q(i)) as zeta -> zeta^t."""
    return tuple(t for t in range(1, level, 4) if math.gcd(t, level) == 1)


@lru_cache(maxsize=None)
def _trace_table(level, maps):
    """(L', rows): row e < level is the sum of zeta_level^(e t) over the maps t, at L', the
    smallest level holding every row.  The maps must be a group of units mod level, so
    row e t is row e: one row is folded per orbit of exponents, and demoted only while
    L' is below level (no row is held above it; for the map 1, row 1 is zeta itself)."""
    if bad := [t for t in maps if math.gcd(t, level) != 1]:
        raise ScalarError(f"{bad[0]} is not coprime to the level {level}")
    if {t * u % level for t in maps for u in maps} != set(maps):
        raise ScalarError(f"the maps are not a group of units mod {level}")
    rows, sub = [None] * level, 4
    for e in range(level):
        if rows[e] is None:
            x = _make(level, 1, _fold(Counter(e * t % level for t in maps), level))
            if sub < level:
                x = x.demote()
                sub = math.lcm(sub, x.level)
            for t in maps:
                rows[e * t % level] = x
    held = {id(x): tuple(x.promote(sub).nums.items()) for x in rows}
    return sub, tuple(held[id(x)] for x in rows)


def _check_level(level):
    if level % 4 != 0 or level <= 0:
        raise ScalarError(f"cyclotomic level must be a positive multiple of 4, got {level}")


def _make(level, den, nums):
    """nums / den at `level`, trusted: den > 0, nonzero numerators, exponents < phi(level)."""
    g = math.gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {e: c // g for e, c in nums.items()}
    x = object.__new__(CyclotomicNumber)
    _set_level(x, level)
    _set_den(x, den)
    _set_nums(x, nums)
    return x


class CyclotomicNumber:
    """Element of Q(zeta_L) in the power basis mod the cyclotomic polynomial.

    The level L is always a multiple of 4.  The value is sum nums[e] zeta^e
    over den > 0, with no zero numerator and gcd(den, *nums) = 1, so it is
    canonical at its level; `coeffs`, {exponent: Fraction}, is derived from
    it.  Values are immutable; equality promotes both operands to the lcm
    level and compares (den, nums).
    """

    __slots__ = ("level", "den", "nums")

    def __init__(self, level, coeffs):
        _check_level(level)
        phi = _euler_phi(level)
        clean = {}
        for e, c in coeffs.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c != 0:
                if not (0 <= e < phi):
                    raise ScalarError(f"exponent {e} out of range for level {level}")
                clean[e] = c
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", {e: c.numerator * (den // c.denominator)
                                          for e, c in clean.items()})

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coeffs(self):
        """{exponent: Fraction}, a view derived from (den, nums)."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q, level=4):
        _check_level(level)
        q = Fraction(q)
        return _make(level, q.denominator, {0: q.numerator} if q else {})

    @staticmethod
    def zeta(level, exponent=1):
        """zeta_level ^ exponent, reduced."""
        _check_level(level)
        return _make(level, 1, _fold({exponent % level: 1}, level))

    @staticmethod
    def root_of_unity(p, q):
        """e^{2 pi i p / q} at the minimal admissible level lcm(4, q)."""
        if q <= 0:
            raise ScalarError("root-of-unity denominator must be positive")
        level = 4 * q // math.gcd(4, q)
        return CyclotomicNumber.zeta(level, (level // q) * (p % q)).demote()

    # -- level handling ---------------------------------------------------

    def promote(self, new_level):
        """Embed into Q(zeta_{new_level}); the current level must divide it."""
        if new_level % self.level != 0:
            raise ScalarError(f"cannot promote level {self.level} to non-multiple {new_level}")
        if new_level == self.level:
            return self
        _check_level(new_level)
        step = new_level // self.level
        return _make(new_level, self.den,
                     _fold({e * step: c for e, c in self.nums.items()}, new_level))

    def demote(self):
        """Canonical form: the smallest level (multiple of 4) containing the value.

        Drops one prime p at a time while the value lies in Q(zeta_{L/p}), 4 | L/p
        (see the module docstring).  A prime that fails at L fails at every level
        below it, so each prime is dropped until it fails and never tried again.
        """
        if not self.nums:
            return _make(4, 1, {}) if self.level != 4 else self
        level, nums = self.level, self.nums
        for p in _descent_primes(level):
            while level % (4 * p) == 0 and (down := _descend(level, nums, p)) is not None:
                level, nums = level // p, down
        return self if level == self.level else _make(level, self.den, nums)

    @staticmethod
    def _common(a, b):
        lvl = a.level * b.level // math.gcd(a.level, b.level)
        return a.promote(lvl), b.promote(lvl)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        gaussian = self.level == other.level == 4  # see the module docstring
        a, b = (self, other) if gaussian else CyclotomicNumber._common(self, other)
        den = math.lcm(a.den, b.den)
        out = {e: c * (den // a.den) for e, c in a.nums.items()}
        for e, c in b.nums.items():
            out[e] = out.get(e, 0) + c * (den // b.den)
        x = _make(a.level, den, {e: c for e, c in out.items() if c})
        return x if gaussian else x.demote()

    def __neg__(self):
        return _make(self.level, self.den, {e: -c for e, c in self.nums.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.level == other.level == 4:  # (a + b i)(c + d i), see the module docstring
            x, y = self.nums, other.nums
            a, b, c, d = x.get(0, 0), x.get(1, 0), y.get(0, 0), y.get(1, 0)
            nums = {e: v for e, v in ((0, a * c - b * d), (1, a * d + b * c)) if v}
            return _make(4, self.den * other.den, nums)
        a, b = CyclotomicNumber._common(self, other)
        raw = {}
        for e1, c1 in a.nums.items():
            for e2, c2 in b.nums.items():
                raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
        # reduced operands keep e1 + e2 <= 2 phi - 2 < level
        return _make(a.level, a.den * b.den, _fold(raw, a.level)).demote()

    def inverse(self):
        """Multiplicative inverse through the norm down to Q(i), from the canonical level.

        P, the product of the conjugates `galois(t)` over t = 1 mod 4, t != 1,
        makes N = self * P the norm to Q(i), so self^-1 = P * conj(N) / |N|^2.
        """
        if not self.nums:
            raise ScalarError("division by zero cyclotomic number")
        x = self.demote()
        others = CyclotomicNumber.from_rational(1, x.level)
        for t in _units_over_qi(x.level)[1:]:
            others = others * x.galois(t)
        norm = x * others
        conj = norm.galois(-1)
        return others * conj * CyclotomicNumber.from_rational(1 / (norm * conj).rational_value())

    def galois(self, t):
        """The automorphism zeta -> zeta^t, for t coprime to the level."""
        if math.gcd(t, self.level) != 1:
            raise ScalarError(f"{t} is not coprime to the level {self.level}")
        return _make(self.level, self.den, _fold({e * t % self.level: c
                                                  for e, c in self.nums.items()}, self.level))

    # -- predicates and views -----------------------------------------

    def is_zero(self):
        return not self.nums

    def is_rational(self):
        d = self.demote()
        return d.level == 4 and d.nums.keys() <= {0}

    def rational_value(self):
        d = self.demote()
        if not d.is_rational():
            raise ScalarError(f"not a rational number: {self!r}")
        return Fraction(d.nums.get(0, 0), d.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = CyclotomicNumber._common(self, other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None

    def complex_value(self):
        return sum(c / self.den * cmath.exp(2j * cmath.pi * e / self.level)
                   for e, c in self.nums.items()) if self.nums else 0j

    def __repr__(self):
        d = self.demote()
        if not d.nums:
            return "0"
        parts = [f"{c}*z{d.level}^{e}" if e else f"{c}" for e, c in sorted(d.coeffs.items())]
        return " + ".join(parts)


# The largest level `ExactScalar.from_text` accepts: a level's fold table and trace tables
# (units over Q(i); the map 1) cost up to its square to build (0.016, 0.007, 0.017 s at 1020;
# 0.21, 0.05, 0.09 s at 4080, one 2-vCPU Xeon core); computed levels are not bounded.
MAX_TEXT_LEVEL = 1024


class ExactScalar:
    """value * pi^pi: one cyclotomic number at one grade (see the module docstring)."""

    __slots__ = ("pi", "value")

    def __init__(self, pi, value):
        if not isinstance(value, CyclotomicNumber):
            value = CyclotomicNumber.from_rational(value)
        if not value.nums:
            pi, value = 0, _ZERO
        _set_pi(self, int(pi))
        _set_value(self, value)

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero():
        return ExactScalar(0, _ZERO)

    @staticmethod
    def one():
        return ExactScalar(0, 1)

    @staticmethod
    def from_rational(q):
        return ExactScalar(0, q)

    @staticmethod
    def i():
        return ExactScalar(0, CyclotomicNumber.zeta(4, 1))

    @staticmethod
    def pi_power(k, coeff=1):
        return ExactScalar(k, coeff)

    @staticmethod
    def root_of_unity(p, q):
        return ExactScalar(0, CyclotomicNumber.root_of_unity(p, q))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if not other.value.nums:
            return self
        if not self.value.nums:
            return other
        if self.pi != other.pi:
            raise ScalarError(f"cannot add scalars of pi-grades {self.pi} and {other.pi}")
        return ExactScalar(self.pi, self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.pi, -self.value)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # see the module docstring
            x, n = self.value, other.numerator
            if not (n and x.nums):
                return ExactScalar.zero()
            y = _make(x.level, x.den * other.denominator, {e: c * n for e, c in x.nums.items()})
            return _scalar(self.pi, y if x.level == 4 else y.demote())
        other = _coerce(other)
        if not (self.value.nums and other.value.nums):
            return ExactScalar.zero()
        return _scalar(self.pi + other.pi, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        return ExactScalar(-self.pi, self.value.inverse())

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def galois(self, t):
        return ExactScalar(self.pi, self.value.galois(t))

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.value.nums

    def __bool__(self):
        return bool(self.value.nums)

    def is_rational(self):
        return self.pi == 0 and self.value.is_rational()

    def rational_value(self):
        if not self.is_rational():
            raise ScalarError(f"not rational: {self}")
        return self.value.rational_value()

    def is_integer(self):
        return self.is_rational() and self.rational_value().denominator == 1

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.pi == other.pi and self.value == other.value

    __hash__ = None

    # -- text form ---------------------------------------------------

    def to_text(self):
        """Canonical text form, e.g. ``(2)*pi^-1 + (1/2*z12^3)*pi^-1``; zero is ``0``."""
        c = self.value.demote()
        return _scalar_text(self.pi, c.level, c.den, c.nums)

    _TERM_RE = re.compile(r"^\((?P<rat>-?\d+(?:/0*[1-9]\d*)?)"  # no zero denominator
                          r"(?:\*z(?P<lvl>\d+)\^(?P<exp>\d+))?\)\*pi\^(?P<pik>-?\d+)$")

    @staticmethod
    def from_text(text):
        """Parse the `to_text` form: one pi-grade, levels at most `MAX_TEXT_LEVEL`."""
        text = text.strip()
        if text == "0":
            return ExactScalar.zero()
        total, grades = ExactScalar.zero(), set()
        for raw in text.split(" + "):
            m = ExactScalar._TERM_RE.match(raw.strip())
            if not m:
                raise ScalarError(f"unparseable scalar term: {raw!r}")
            try:
                pik, rat = int(m.group("pik")), Fraction(m.group("rat"))
                level, exp = int(m.group("lvl") or 4), int(m.group("exp") or 0)
            except ValueError:  # the pattern admits only digits: past Python's digit limit
                raise _digit_limit(max(map(len, re.findall(r"\d+", raw)))) from None
            grades.add(pik)
            if len(grades) > 1:
                raise ScalarError(f"scalar mixes pi-grades {sorted(grades)}")
            if level > MAX_TEXT_LEVEL:
                raise ScalarError(f"cyclotomic level {level} exceeds {MAX_TEXT_LEVEL}")
            cyc = CyclotomicNumber.zeta(level, exp) * CyclotomicNumber.from_rational(rat)
            total = total + ExactScalar(pik, cyc)
        return total

    def complex_value(self):
        return self.value.complex_value() * math.pi ** self.pi

    def __repr__(self):
        return self.to_text()


_set_level, _set_den, _set_nums, _set_pi, _set_value = (
    vars(cls)[s].__set__ for cls in (CyclotomicNumber, ExactScalar) for s in cls.__slots__)
_ZERO = _make(4, 1, {})


def _scalar(pi, value):
    """value * pi^pi, trusted: an int grade and a canonical value, nonzero or at grade 0."""
    x = object.__new__(ExactScalar)
    _set_pi(x, pi)
    _set_value(x, value)
    return x


def _integer(n):
    """The int n as an `ExactScalar`, trusted: its slots set directly (see the module docstring)."""
    value = _ZERO
    if n:
        value = object.__new__(CyclotomicNumber)
        _set_level(value, 4)
        _set_den(value, 1)
        _set_nums(value, {0: n})
    return _scalar(0, value)


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction, CyclotomicNumber)):
        return ExactScalar(0, x)
    raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")


def _scalar_text(pi, level, den, nums):
    """`to_text` of sum nums[e] zeta_level^e / den * pi^pi at its canonical level."""
    parts = []
    try:
        for e, n in sorted(nums.items()):  # nonzero numerators
            g = math.gcd(n, den)
            q = f"{n // g}" if den == g else f"{n // g}/{den // g}"
            parts.append(f"({q if e == 0 else f'{q}*z{level}^{e}'})*pi^{pi}")
    except ValueError:  # str of an int fails only past Python's digit limit
        raise _digit_limit(_digits(max(abs(n), den) // g)) from None
    return " + ".join(parts) or "0"


def _digits(n):
    """The number of decimal digits of |n|, 1 for 0, counted without writing n as text."""
    k = int((abs(n).bit_length() - 1) * math.log10(2)) + 1  # 10^(k-1) <= |n| < 10^(k+1)
    return k + (abs(n) >= 10 ** k)


def _digit_limit(digits):
    """The `ScalarError` for an integer past Python's int/text digit limit."""
    return ScalarError(f"an integer of {digits} digits is past the limit of "
                       f"{sys.get_int_max_str_digits()} digits for integer text")


def _int_text(n):
    """str(n), or a `ScalarError` past Python's digit limit for int-to-text conversion."""
    try:
        return str(n)
    except ValueError:  # str of an int fails only past the digit limit
        raise _digit_limit(_digits(n)) from None


def approx_display(a, digits=4):
    """Report-only decimals: no imaginary part if exactly real, real part 0 if exactly imaginary.

    The digits are those of a double, so past about 15 they show float noise:
    the CLI bounds `--digits` to 0..15.  Past double range see `_e_display`.
    """
    x = a.value
    try:
        z = a.complex_value() if a.pi or x.nums.keys() - {0} else complex(x.nums.get(0, 0) / x.den)
    except OverflowError:
        z = complex(math.inf)
    if not cmath.isfinite(z):
        return _e_display(a, digits)
    # a part that rounds to zero prints 0, not -0 (-0.0 + 0.0 is 0.0); trailing zeros are
    # stripped after a decimal point only: 10 stays 10 at 0 digits
    re_s, im_s = (s.rstrip("0").rstrip(".") if digits else s for s in (
        f"{round(v, digits) + 0.0:.{digits}f}" for v in (z.real, z.imag)))
    if not z.imag or x == (conj := x.galois(-1)):
        return re_s
    re_s = "0" if x == -conj else re_s
    return f"{re_s}{'' if im_s[0] == '-' else '+'}{im_s}i"


def _e_display(a, digits):
    """`approx_display` in e notation (``1e+400``) from the exact parts 2 Re = x + conj x and
    2i Im = x - conj x of a = x pi^k, their numerators divided by 10^t before any float."""
    x, p = a.value, a.pi * math.log10(math.pi)  # pi^k = 10^p
    texts = []
    for y, trig in ((x + x.galois(-1), math.cos), (x - x.galois(-1), math.sin)):
        t = _digits(max(map(abs, y.nums.values()), default=0)) - _digits(y.den) + math.floor(p)
        scale = Fraction(10) ** (math.floor(p) - t) / y.den
        v = sum(float(n * scale) * trig(2 * math.pi * e / y.level) for e, n in y.nums.items())
        mantissa, exponent = f"{v * 10 ** (p % 1) / 2:.{digits}e}".split("e")
        texts.append(f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent) + t:+d}" if v else "0")
    re_s, im_s = texts
    return re_s if im_s == "0" else f"{re_s}{'' if im_s[0] == '-' else '+'}{im_s}i"

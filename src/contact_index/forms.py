"""Truncated algebra of even form generators and the angle phi on a fixed component.

A form element is one polynomial in nilpotent 2-form generators (the class
of d-alpha plus any base curvature classes) and the local angle phi, with
`CyclotomicNumber` coefficients of pi-grade 0, as curvatures have.  It is
truncated once, at total degree k (the component has dimension 2k+1): the
pairing reads no term c g^e phi^p with |e| + p > k, and degrees add under
products, so the cut is exact.  Smooth jets in phi are thus no
separate type.

The delta form of `j_form` is no form element: it is the list of its k + 1
rationals, term j a rational multiple of d0^(j)(phi) (d-alpha)^j.
`integrate_component` pairs a smooth term of generator degree d with delta
term k - d alone, so every product lands on top degree, the one degree that
integrates, and costs one rational Leibniz weight.

The module also builds the two power series the localization consumes, each for
a group of r equal roots: the Todd factor h^-r of tangential roots, h =
(1-e^-x)/x or (e^x-1)/x by the calibrated direction, by J.C.P. Miller's
recurrence in integers (`_rational_power`), and the inverse normal determinant
(1-lambda e^x)^-r, lambda = zeta_q^a != 1 a normal root's torsion eigenvalue, in
closed form (`_normal_power`), r any integer.  For r >= 1 it is sum_n P(n)
lambda^n e^(n x), P(n) = C(n+r-1, r-1), so its x^m coefficient is the Abel sum
of F(n) lambda^n, F(n) = P(n) n^m / m!.  By residues j mod q, sum_n lambda^n n^-z
= q^-z sum_j lambda^j zeta(z, j/q), whose Hurwitz zetas' polar parts 1/(z-1)
cancel as sum_j lambda^j = 0; zeta(-s, t) = -B_(s+1)(t)/(s+1) then gives
sum_(n>=0) n^s lambda^n = -q^s/(s+1) sum_(j<q) lambda^j B_(s+1)(j/q).  As
B_(s+1)(t+1) - B_(s+1)(t) = (s+1) t^s, the coefficient is sum_j lambda^j R(j) for
the polynomial R with R(j) - R(j+q) = F(j), its constant dropping for the same
reason (r = 1, m = 0: 1/(1-lambda) = -(1/q) sum_j j lambda^j).  R is solved for
from the top coefficient down and evaluated at each j < q by Horner's rule in
integers, then folded once at lcm(4, q), made and demoted once: no cyclotomic
product or inverse.  For r <= 0 the factor is sum_k C(-r, k) (-lambda)^k e^(k x).

Both products over roots start from the first group's series: only the empty
product is `FormElement.one`.  The per-root checks (tangential roots for Todd,
eigenvalue != 1 for the normal factor) run on every root.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .scalars import CyclotomicNumber, _coerce, _fold, _integer, _make
from .deltas import GERM_VAR, DeltaGerm


class FormError(ValueError):
    """Raised for structurally invalid form operations."""


@dataclass(frozen=True)
class ChernRoot:
    """One line-bundle factor of a tangential or normal bundle.

    curvature: coefficients over the component's generators;
    weight: integer covector on the torus (one entry per torus factor);
    eigenvalue_exponent: p/q with the root's torsion eigenvalue e^{2 pi i p/q}
    (0 for tangential roots).
    """

    curvature: tuple
    weight: tuple
    eigenvalue_exponent: Fraction = Fraction(0)

    def is_tangential(self):
        """Whether the torsion eigenvalue is 1, i.e. the exponent is an integer."""
        return Fraction(self.eigenvalue_exponent).denominator == 1


class FormElement:
    """Polynomial in the even generators and phi, truncated at total degree.

    `terms` maps (generator exponents..., phi exponent) to a nonzero
    `CyclotomicNumber`.  Terms whose exponents sum above `truncation` are dropped.
    """

    __slots__ = ("generators", "truncation", "terms")

    def __init__(self, generators, truncation, terms=None):
        self.generators = tuple(generators)
        self.truncation = int(truncation)
        clean, width = {}, len(self.generators) + 1
        for exp, coeff in (terms or {}).items():
            if len(exp) != width or min(exp) < 0:
                raise FormError(f"bad exponent {exp}")
            if sum(exp) <= self.truncation and not coeff.is_zero():
                clean[tuple(exp)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one(generators, truncation):
        g = tuple(generators)
        return FormElement(g, truncation, {(0,) * (len(g) + 1): _integer(1)})

    # -- structural helpers -----------------------------------------------

    def _check(self, other):
        if self.generators != other.generators or self.truncation != other.truncation:
            raise FormError("form basis mismatch: generators and truncation must agree")

    def is_zero(self):
        return not self.terms

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out[exp] + coeff if exp in out else coeff
        return FormElement(self.generators, self.truncation, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return FormElement(self.generators, self.truncation,
                               {e: c * other for e, c in self.terms.items()})
        self._check(other)
        truncation, out = self.truncation, {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if sum(exp) > truncation:
                    continue
                prod = c1 * c2
                out[exp] = out[exp] + prod if exp in out else prod
        return FormElement(self.generators, truncation, out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, FormElement):
            return NotImplemented
        return (self.generators, self.truncation, self.terms) == \
            (other.generators, other.truncation, other.terms)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        def mono(exp):
            body = "*".join(f"{g}^{e}" for g, e in zip(self.generators + (GERM_VAR,), exp) if e)
            return body or "1"
        return " + ".join(f"[{c!r}]*{mono(e)}" for e, c in sorted(self.terms.items()))


# ----------------------------------------------------------------------
# power series over the truncated algebra
# ----------------------------------------------------------------------

def _todd_quotient(length, direction):
    """Coefficients of (1-e^-x)/x ("plus") or (e^x-1)/x ("minus"): sum (-+x)^j/(j+1)!."""
    if direction not in ("plus", "minus"):
        raise FormError(f"unknown Todd direction {direction!r}")
    sign = -1 if direction == "plus" else 1
    return [Fraction(sign ** j, math.factorial(j + 1)) for j in range(length)]


_EIGENVALUE_ONE = ("fixed-set mismatch: normal eigenvalue 1 means the direction "
                   "is tangential and the component was mis-identified")


def evaluate_series(coeffs, element):
    """sum_j coeffs[j] * element^j in the truncated algebra, from running powers.

    The element must have no constant term (no all-zero exponent), so every term has
    total degree at least 1 and element^j vanishes for j > truncation: the sum is
    finite and reads truncation + 1 coefficients, which the series must have.  Zero
    terms and powers past the last term are skipped.  A one-term argument c x^e
    (i a dA, i w phi) takes power j as c^j at j e, up to the first power past the
    truncation: no form product.  The sum starts from coeffs[0]: no product by one.
    """
    if (0,) * (len(element.generators) + 1) in element.terms:
        raise FormError("series argument must have zero constant term")
    gens, trunc = element.generators, element.truncation
    if len(coeffs) <= trunc:
        raise FormError(f"series too short: need {trunc + 1} coefficients, got {len(coeffs)}")
    last = max((j for j in range(trunc + 1) if coeffs[j]), default=-1)
    acc, power = {(0,) * (len(gens) + 1): _coerce(coeffs[0])}, element
    if len(element.terms) == 1:
        ((exp, c),) = element.terms.items()
        for j in range(1, last + 1):
            if j * sum(exp) > trunc:
                break
            scalar = scalar * c if j > 1 else c
            if coeffs[j]:
                acc[tuple(j * a for a in exp)] = scalar * coeffs[j]
        return FormElement(gens, trunc, acc)
    for j in range(1, last + 1):
        if j > 1:
            power = power * element
        if coeffs[j]:
            for exp, c in power.terms.items():
                term = c * coeffs[j]
                acc[exp] = acc[exp] + term if exp in acc else term
    return FormElement(gens, trunc, acc)


def root_value(root, generators, truncation):
    """Equivariant value of a Chern root: curvature + i w phi, w its circle weight."""
    n = len(generators)
    terms = {(0,) * n + (1,): CyclotomicNumber.zeta(4, 1) * root.weight[0]}
    for i, c in zip(range(n), root.curvature):
        terms[tuple(int(j == i) for j in range(n + 1))] = _coerce(c)
    return FormElement(generators, truncation, terms)


def todd(roots, generators, *, jet_order, direction="plus"):
    """Product of the Todd factors of tangential Chern roots, cut at total degree `jet_order`."""
    for root in roots:
        if not root.is_tangential():
            raise FormError("Todd factors take tangential roots only "
                            "(torsion eigenvalue must be 1)")
    quotient = _todd_quotient(jet_order + 1, direction)
    return _root_product(roots, lambda root, r: _rational_power(quotient, -r),
                         generators, jet_order)


def dc_inverse(roots, generators, *, jet_order):
    """Product of (1 - lambda e^value)^-1 over normal roots, cut at total degree `jet_order`."""
    for root in roots:
        if root.is_tangential():
            raise FormError(_EIGENVALUE_ONE)
    return _root_product(roots, lambda root, r: _normal_power(
        root.eigenvalue_exponent, r, jet_order + 1), generators, jet_order)


def _root_product(roots, power_of, generators, truncation):
    """Product over root groups of power_of(root, r) evaluated at root_value(root).

    Equal roots are grouped (a list scan by identity, then `==`: the scalars are unhashable);
    a group of r equal roots is evaluated once, as power_of(root, r) of truncation + 1 terms.
    """
    groups = []
    for root in roots:
        for group in groups:
            if group[0] is root or group[0] == root:
                group[1] += 1
                break
        else:
            groups.append([root, 1])
    acc = None
    for root, count in groups:
        factor = evaluate_series(power_of(root, count),
                                 root_value(root, generators, truncation))
        acc = factor if acc is None else acc * factor
    return FormElement.one(generators, truncation) if acc is None else acc


def _normal_power(exponent, r, length):
    """The first `length` coefficients of (1 - lambda e^x)^-r, r any integer, as
    `CyclotomicNumber`s, for lambda = e^(2 pi i exponent) != 1 (see the module docstring)."""
    a, q = Fraction(exponent).as_integer_ratio()
    if q == 1:
        raise FormError(_EIGENVALUE_ONE)
    level, poly, out = 4 * q // math.gcd(4, q), [1], []
    for i in range(1, r):  # poly: (r-1)! P(n) = (n+1)...(n+r-1), ascending
        poly = [x + i * y for x, y in zip([0] + poly, poly + [0])]
    for m in range(length):
        if r > 0:  # R(j) - R(j+q) = F(j) and R(0) = 0, from the top coefficient down
            f, g = [0] * m + poly, [0] * (m + r + 1)  # (r-1)! m! F, and (r-1)! m! R
            for i in reversed(range(m + r)):
                g[i + 1] = Fraction(-f[i] - sum(g[t] * math.comb(t, i) * q ** (t - i)
                                                for t in range(i + 2, m + r + 1)), (i + 1) * q)
            den = math.lcm(*(c.denominator for c in g[1:]))
            nums = [int(c * den) for c in reversed(g)]
            den *= math.factorial(r - 1) * math.factorial(m)
            terms = [(j, reduce(lambda v, c: v * j + c, nums, 0)) for j in range(1, q)]
        else:
            den = math.factorial(m)
            terms = [(k, (-1) ** k * math.comb(-r, k) * k ** m) for k in range(1 - r)]
        raw = Counter()
        for j, c in terms:
            raw[level // q * (a * j % q)] += c
        out.append(_make(level, den, _fold(raw, level)).demote())
    return out


def _rational_power(coeffs, r):
    """The r-th power, r any integer, of a series of `Fraction`s with f_0 != 0, in integers.

    Miller's recurrence over one denominator: with f_k = F_k / D,
    g_n = f_0^r A_n / (n! F_0^n), A_0 = 1, and
    A_n = sum_{k=1..n} ((r+1) k - n) F_k A_{n-k} (n-1)!/(n-k)! F_0^(k-1),
    so every A_n is an integer and each coefficient costs one `Fraction`.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    g0 = Fraction(nums[0], den) ** r
    tilted = [f * nums[0] ** (k - 1) if k else 0 for k, f in enumerate(nums)]  # F_k F_0^(k-1)
    a, out, scale = [1], [g0], 1
    for n in range(1, len(nums)):
        acc, falling = 0, 1  # falling = (n-1)!/(n-k)!
        for k in range(1, n + 1):
            acc += ((r + 1) * k - n) * tilted[k] * a[n - k] * falling
            falling *= n - k
        a.append(acc)
        scale *= n * nums[0]  # n! F_0^n
        out.append(Fraction(g0.numerator * acc, g0.denominator * scale))
    return out


def j_form(component, *, jet_order):
    """The contact delta form over a fixed component, as its k + 1 rationals.

    sum_j d0^(j)(-mu w phi) (d-alpha)^j / j!, with alpha left implicit, where w
    is the component's Reeb weight and the first generator plays the role of
    the d-alpha class.  By the rescaling rule d0^(j)(a x) = sign(a) a^-(j+1)
    d0^(j)(x), term j is d0^(j)(phi) (d-alpha)^j times c_j = sign(a) a^-(j+1)
    / j! with a = -mu w; the form is the list [c_0, ..., c_k] of `Fraction`s.
    Requires a positive moment constant (ellipticity).

    `jet_order` is not read, since the form has no phi terms.  It stays
    because `perfbench/tracing.py` observes it by name; a trace collector in
    the library (ROADMAP item 1) would remove that need.
    """
    mu = Fraction(component.mu)
    if mu <= 0:
        raise FormError("ellipticity violation: moment constant must be positive")
    w = component.reeb_weight[0]
    if not w:
        raise FormError("the moment covector must pair nontrivially with the circle "
                        "on each component (constant-moment normalization)")
    a = -mu * w
    sign = 1 if a > 0 else -1
    return [Fraction(sign, math.factorial(j)) / a ** (j + 1) for j in range(component.k + 1)]


def integrate_component(smooth, delta, pairing):
    """The germ of smooth * delta, alpha implicit, paired with the top pairing table.

    `smooth` is a scalar form of truncation k, `delta` the k + 1 rationals of
    `j_form`.  Only monomials of top generator degree k integrate on an
    odd-dimensional component, so a smooth term c g^e phi^p of generator
    degree d meets delta term j = k - d alone, on the top monomial e + j dA.
    By the Leibniz rule phi^p d0^(j) = (-1)^p j!/(j-p)! d0^(j-p), zero for
    p > j, it adds c c_j (-1)^p j!/(j-p)! to order j - p: one `CyclotomicNumber`
    scaled by one rational, c_j itself for p = 0.  A term of the form has
    d + p <= k, so p <= j always, and the terms the truncation dropped would
    all pair to zero.
    Each top monomial's germ is weighted by its pairing value; a nonzero germ
    missing from the table is an error.
    """
    k = smooth.truncation
    if len(delta) != k + 1:
        raise FormError(f"form basis mismatch: a delta form of {len(delta)} terms "
                        f"against truncation {k}")
    top = {}
    for (*e, p), c in smooth.terms.items():
        j = k - sum(e)
        orders = top.setdefault((e[0] + j, *e[1:]) if e else (), {})
        term = c * (delta[j] * (-1) ** p * math.perm(j, p) if p else delta[j])
        orders[j - p] = orders[j - p] + term if j - p in orders else term
    total = DeltaGerm.zero()
    for exp, orders in top.items():
        germ = DeltaGerm([orders.get(i, 0) for i in range(max(orders) + 1)])
        if germ.is_zero():
            continue
        if exp not in pairing:
            raise FormError(f"pairing table has no entry for surviving monomial {exp}")
        total = total + germ * pairing[exp]
    return total

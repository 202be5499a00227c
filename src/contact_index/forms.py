"""Truncated algebra of even form generators and the angle phi on a fixed component.

A form element is one polynomial in nilpotent 2-form generators (the class
of d-alpha plus any base curvature classes) and the local angle phi, with
exact scalar coefficients.  It is truncated separately in each: at the
component's top generator degree k (so the component has dimension 2k+1)
and at the jet order in phi.  Smooth jets in phi are thus no separate type.

The delta form of `j_form` is no form element: it is the list of its k + 1
rationals, term j a rational multiple of d0^(j)(phi) (d-alpha)^j.
`integrate_component` pairs a smooth term of generator degree d with delta
term k - d alone, so every product lands on top degree, the one degree that
integrates, and costs one rational Leibniz weight.

The module also builds the two power series the localization consumes:

* the Todd factor of a tangential Chern root, x/(1-e^-x) or x/(e^x-1)
  depending on the calibrated series direction;
* the inverse normal determinant factor (1 - lambda e^x)^-1 for a normal
  root with torsion eigenvalue lambda != 1.

For r equal roots both are powers of a simple series: h^-r for Todd, with h =
(1-e^-x)/x or (e^x-1)/x, and (1-lambda e^x)^-r.  Both kernels take any integer
exponent by J.C.P. Miller's recurrence (the inverse is the power -1; there is
no `_series_invert`): `_rational_power` computes the rational Todd powers in
Python integers, `_series_power` the cyclotomic normal factor in `ExactScalar`.

Series are evaluated as power sums over the truncated algebra, each as long as
its argument reads (`_series_length`): the argument (curvature part plus a
multiple of phi) is nilpotent there, so every evaluation is finite and exact.

Both products over roots evaluate one power per group of equal roots (all
n+1 tangential roots of the Hopf sphere, say) and start from the first group's
series: only the empty product is `FormElement.one`, and no form is multiplied
by one.  The per-root checks (tangential roots for Todd, eigenvalue != 1 for
the normal factor) run on every root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import CyclotomicNumber, ExactScalar, _coerce
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

    def eigenvalue(self):
        f = Fraction(self.eigenvalue_exponent) % 1
        return CyclotomicNumber.root_of_unity(f.numerator, f.denominator)

    def is_tangential(self):
        return Fraction(self.eigenvalue_exponent) % 1 == 0


class FormElement:
    """Polynomial in the even generators and phi, truncated separately in each.

    `terms` maps (generator exponents..., phi exponent) to a nonzero
    `ExactScalar`.  Terms of generator degree above `truncation` or of phi
    degree above `jet_order` are dropped.
    """

    __slots__ = ("generators", "truncation", "jet_order", "terms")

    def __init__(self, generators, truncation, jet_order, terms=None):
        self.generators = tuple(generators)
        self.truncation = int(truncation)
        self.jet_order = int(jet_order)
        clean, width = {}, len(self.generators) + 1
        for exp, coeff in (terms or {}).items():
            if len(exp) != width or min(exp) < 0:
                raise FormError(f"bad exponent {exp}")
            if exp[-1] <= self.jet_order and sum(exp) - exp[-1] <= self.truncation \
                    and not coeff.is_zero():
                clean[tuple(exp)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one(generators, truncation, jet_order):
        g = tuple(generators)
        return FormElement(g, truncation, jet_order, {(0,) * (len(g) + 1): ExactScalar.one()})

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
        return FormElement(self.generators, self.truncation,
                           min(self.jet_order, other.jet_order), out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return FormElement(self.generators, self.truncation, self.jet_order,
                               {e: c * other for e, c in self.terms.items()})
        self._check(other)
        truncation, order = self.truncation, min(self.jet_order, other.jet_order)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if exp[-1] > order or sum(exp) - exp[-1] > truncation:
                    continue
                prod = c1 * c2
                out[exp] = out[exp] + prod if exp in out else prod
        return FormElement(self.generators, truncation, order, out)

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


def _normal_determinant(eigenvalue, length):
    """Taylor coefficients of 1 - lambda e^t for lambda != 1, as `ExactScalar`s."""
    lam = _coerce(eigenvalue)
    head = ExactScalar.one() - lam
    if head.is_zero():
        raise FormError(_EIGENVALUE_ONE)
    return [head] + [-(lam * Fraction(1, math.factorial(n))) for n in range(1, length)]


def evaluate_series(coeffs, element):
    """sum_j coeffs[j] * element^j in the truncated algebra, from running powers.

    The element must have no constant term (no all-zero exponent), so it is
    nilpotent and the sum is finite: element^j vanishes for j > truncation +
    jet order, and already for j > truncation when no term carries a phi
    power (a root of weight 0).  The series must be long enough for the
    terms that survive.  Zero terms and powers past the last term are
    skipped: O(k) products for i a dA.  The sum is kept in one term map,
    which starts from coeffs[0] itself: no product by one.
    """
    if (0,) * (len(element.generators) + 1) in element.terms:
        raise FormError("series argument must have zero constant term")
    need = element.truncation + 1
    if any(e[-1] for e in element.terms):
        need += element.jet_order
    if len(coeffs) < need:
        raise FormError(f"series too short: need {need} coefficients, got {len(coeffs)}")
    last = max((j for j in range(need) if coeffs[j]), default=-1)
    gens, trunc, order = element.generators, element.truncation, element.jet_order
    acc, power = {(0,) * (len(gens) + 1): _coerce(coeffs[0])}, element
    for j in range(1, last + 1):
        if j > 1:
            power = power * element
        if coeffs[j]:
            for exp, c in power.terms.items():
                term = c * coeffs[j]
                acc[exp] = acc[exp] + term if exp in acc else term
    return FormElement(gens, trunc, order, acc)


def root_value(root, generators, truncation, jet_order):
    """Equivariant value of a Chern root: curvature + i w phi, w its circle weight."""
    n = len(generators)
    terms = {(0,) * n + (1,): ExactScalar.i() * root.weight[0]}
    for i, c in zip(range(n), root.curvature):
        terms[tuple(int(j == i) for j in range(n + 1))] = _coerce(c)
    return FormElement(generators, truncation, jet_order, terms)


def todd(roots, generators, truncation, *, jet_order, direction="plus"):
    """Product of Todd factors over tangential Chern roots (empty product = 1)."""
    for root in roots:
        if not root.is_tangential():
            raise FormError("Todd factors take tangential roots only "
                            "(torsion eigenvalue must be 1)")
    quotient = _todd_quotient(_series_length(roots, truncation, jet_order), direction)
    return _root_product(roots, lambda root, n, r: _rational_power(quotient[:n], -r),
                         generators, truncation, jet_order)


def dc_inverse(roots, generators, truncation, *, jet_order):
    """Inverse normal determinant: product over roots of (1 - lambda e^value)^-1."""
    for root in roots:
        if root.is_tangential():
            raise FormError(_EIGENVALUE_ONE)
    return _root_product(
        roots, lambda root, n, r: _series_power(_normal_determinant(root.eigenvalue(), n), -r),
        generators, truncation, jet_order)


def _series_length(roots, truncation, jet_order):
    """Coefficients `evaluate_series` reads at these roots' values (see its docstring)."""
    return truncation + 1 + (jet_order if any(root.weight[0] for root in roots) else 0)


def _root_product(roots, power_of, generators, truncation, jet_order):
    """Product over root groups of power_of(root, length, r) evaluated at root_value(root).

    Equal roots are grouped (a list scan: the scalars are unhashable); a group of
    r equal roots is evaluated once, as power_of(root, its `_series_length`, r).
    """
    groups = []
    for root in roots:
        for group in groups:
            if group[0] == root:
                group[1] += 1
                break
        else:
            groups.append([root, 1])
    acc = None
    for root, count in groups:
        n = _series_length([root], truncation, jet_order)
        factor = evaluate_series(power_of(root, n, count),
                                 root_value(root, generators, truncation, jet_order))
        acc = factor if acc is None else acc * factor
    return FormElement.one(generators, truncation, jet_order) if acc is None else acc


def _series_power(coeffs, r):
    """The r-th power, r any integer, of a series of `ExactScalar`s with invertible f_0.

    J.C.P. Miller's recurrence: g_0 = f_0^r and, skipping zero terms,
    g_n = (1 / (n f_0)) sum_{k=1..n} ((r+1) k - n) f_k g_{n-k},
    truncated at the length of the input; r = -1 is the inverse.
    """
    f0, inv0 = coeffs[0], 1 / coeffs[0]
    g0 = f0 * inv0  # one, in the coefficients' type
    for _ in range(abs(r)):
        g0 = g0 * (f0 if r > 0 else inv0)
    out = [g0]
    for n in range(1, len(coeffs)):
        acc = 0
        for k in range(1, n + 1):
            weight = (r + 1) * k - n
            if weight and coeffs[k]:
                acc = acc + coeffs[k] * out[n - k] * weight
        out.append(acc * inv0 * Fraction(1, n))
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
    p > j, it adds c c_j (-1)^p j!/(j-p)! to order j - p: one `ExactScalar`
    scaled by one rational.  The jet order must reach k, the delta form's top
    derivative order, otherwise dropped phi terms could still pair
    nontrivially.  Each top monomial's germ is weighted by its pairing value;
    a nonzero germ missing from the table is an error.
    """
    k = smooth.truncation
    if len(delta) != k + 1:
        raise FormError(f"form basis mismatch: a delta form of {len(delta)} terms "
                        f"against truncation {k}")
    if smooth.jet_order < k:
        raise FormError(
            f"jet truncation order {smooth.jet_order} is below the germ's top derivative "
            f"order {k}; raise the truncation to at least {k}")
    top = {}
    for (*e, p), c in smooth.terms.items():
        j = k - sum(e)
        if p <= j:
            orders = top.setdefault((e[0] + j, *e[1:]) if e else (), {})
            term = c * (delta[j] * (-1) ** p * math.perm(j, p))
            orders[j - p] = orders[j - p] + term if j - p in orders else term
    total = DeltaGerm.zero()
    for exp, orders in top.items():
        germ = DeltaGerm([orders.get(i, ExactScalar.zero()) for i in range(max(orders) + 1)])
        if germ.is_zero():
            continue
        if exp not in pairing:
            raise FormError(f"pairing table has no entry for surviving monomial {exp}")
        total = total + germ * pairing[exp]
    return total

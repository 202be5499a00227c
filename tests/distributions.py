"""Test-only distributions: the single delta term, the general germ calculus,
boundary-value germs, the trigonometric pairing, the derivative of a germ and
the reader of germ documents.

All serve as independent routes that the library's closed forms and its
serialization are checked against; the localization pipeline itself uses
none of them.  The general calculus (`scale_variable`, `multiply_smooth`)
rewrites any germ; `reference_integral` runs it the long way round, one
rescaled delta and one jet per generator monomial, as the reference for
`forms.integrate_component` paired with `forms.j_form`.
"""

import math
import re
from fractions import Fraction

from contact_index.deltas import GERM_VAR, DeltaError, DeltaGerm
from contact_index.scalars import ExactScalar, _coerce


def delta(order=0, coeff=1):
    """coeff * d0^(order); a negative order raises `DeltaError`."""
    if order < 0:
        raise DeltaError(f"a derivative order must be nonnegative, got {order}")
    return DeltaGerm([ExactScalar.zero()] * order + [_coerce(coeff)])


def scale_variable(germ, a):
    """Rewrite d0^(j)(a x) in terms of d0^(j)(x): coefficient sign(a) a^-(j+1).

    The homogeneity is forced by a d0(a x) = sign(a) d0(x) together with
    term-wise differentiation.  a = 0 is the ellipticity-violating case and
    is rejected.
    """
    a = Fraction(a)
    if a == 0:
        raise DeltaError("cannot rescale a germ variable by zero (ellipticity violation)")
    sign = 1 if a > 0 else -1
    return DeltaGerm([c * (sign * a ** (-(j + 1))) for j, c in enumerate(germ.terms)])


def multiply_smooth(germ, jet):
    """Multiply a germ by a smooth jet via the Leibniz pairing.

    `jet` is the ascending list of the jet's phi coefficients (zeros
    allowed).  phi^k d0^(j) = 0 when k > j, else (-1)^k j!/(j-k)! d0^(j-k);
    extended bilinearly over jet and germ terms.
    """
    out = [ExactScalar.zero()] * len(germ.terms)
    for k, jc in enumerate(jet[:len(germ.terms)]):
        for j in range(k, len(germ.terms)):
            out[j - k] = out[j - k] + jc * germ.terms[j] * ((-1) ** k * math.perm(j, k))
    return DeltaGerm(out)


def reference_integral(terms, component):
    """integrate_component(smooth, j_form(component), pairing) by the general calculus.

    `terms` maps (generator exponents..., phi exponent) to scalars, as
    `FormElement.terms` does, but with no truncation: any phi power may appear,
    and a generator monomial above top degree k, which does not integrate, is
    skipped.  The terms are grouped by generator monomial e into jets; a jet of
    generator degree d meets d0^(j)(-mu w phi) (d-alpha)^j / j! for j = k - d
    alone, rescaled by `scale_variable` and multiplied by `multiply_smooth`.
    The germs are summed per top monomial e + j dA, and every nonzero sum is
    weighted by the component's pairing value, which must be there.
    """
    k, a = component.k, -Fraction(component.mu) * component.reeb_weight[0]
    jets = {}
    for exp, c in terms.items():
        if sum(exp[:-1]) <= k:
            jets.setdefault(exp[:-1], {})[exp[-1]] = c
    top = {}
    for e, powers in jets.items():
        j = k - sum(e)
        jet = [powers.get(p, ExactScalar.zero()) for p in range(max(powers) + 1)]
        term = scale_variable(delta(j, Fraction(1, math.factorial(j))), a)
        mono = (e[0] + j, *e[1:]) if e else ()
        top[mono] = top.get(mono, DeltaGerm.zero()) + multiply_smooth(term, jet)
    total = DeltaGerm.zero()
    for mono, germ in top.items():
        if not germ.is_zero():
            total = total + germ * component.pairing[mono]
    return total


def pair_with_trig(germ, trig):
    """Pair a germ with a trig polynomial sum_m a_m e^{i m phi}.

    <sum_j c_j d0^(j), p> = sum_j c_j (-1)^j p^(j)(0); used as the oracle
    for the Fourier conversion: for germs at the identity the pairing must
    equal 2 pi sum_m c_m a_{-m}.
    """
    total = ExactScalar.zero()
    i = ExactScalar.i()
    for j, c in enumerate(germ.terms):
        for m, a in trig.items():
            val = _coerce(a)
            for _ in range(j):
                val = val * (i * m)
            if j % 2:
                val = -val
            total = total + c * val
    return total


def derivative(germ):
    """d/dphi applied once: d0^(j) becomes d0^(j+1)."""
    return DeltaGerm([ExactScalar.zero()] + germ.terms)


class HalfDeltaGerm:
    """Combination of derivatives of the boundary values d+ and d-.

    These satisfy d+ + d- = d0, the product rules x d+ = i/(2pi) and
    x d- = -i/(2pi), and the rescaling a d+-(a x) = d+- (a > 0) or -d-+
    (a < 0).  They are used only to check the rewrite identities; `reduce`
    turns a balanced combination into a d0 germ.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (sign, j), c in (terms or {}).items():
            if sign not in (1, -1) or j < 0:
                raise DeltaError("bad half-delta term")
            c = _coerce(c)
            if not c.is_zero():
                key = (sign, int(j))
                clean[key] = clean[key] + c if key in clean else c
        self.terms = {k: c for k, c in clean.items() if not c.is_zero()}

    @staticmethod
    def half(sign, order=0, coeff=1):
        return HalfDeltaGerm({(sign, order): _coerce(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return HalfDeltaGerm(out)

    def __mul__(self, scalar):
        s = _coerce(scalar)
        return HalfDeltaGerm({k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def scale_argument(self, a):
        """a d+-(a x) rewrite: identity for a > 0, swaps the boundary for a < 0."""
        a = Fraction(a)
        if a == 0:
            raise DeltaError("cannot rescale by zero")
        out = {}
        for (sign, j), c in self.terms.items():
            factor = a ** (-(j + 1)) if a > 0 else -((-a) ** (-(j + 1)))
            new_sign = sign if a > 0 else -sign
            key = (new_sign, j)
            add = c * ExactScalar.from_rational(factor)
            out[key] = out[key] + add if key in out else add
        return HalfDeltaGerm(out)

    def multiply_by_x(self):
        """(smooth constant, remaining germ) after one multiplication by x.

        Uses x d+- = +-i/(2pi) and x d+-^(j) = -j d+-^(j-1) for j >= 1.
        """
        const = ExactScalar.zero()
        out = {}
        i_over_2pi = ExactScalar.i() * ExactScalar.pi_power(-1, Fraction(1, 2))
        for (sign, j), c in self.terms.items():
            if j == 0:
                const = const + c * i_over_2pi * sign
            else:
                key = (sign, j - 1)
                add = c * ExactScalar.from_rational(-j)
                out[key] = out[key] + add if key in out else add
        return const, HalfDeltaGerm(out)

    def reduce(self):
        """Rewrite d+^(j) + d-^(j) pairs into d0^(j); fails if unbalanced."""
        top = max((j for (_, j) in self.terms), default=-1)
        out = []
        for j in range(top + 1):
            cp = self.terms.get((1, j), ExactScalar.zero())
            cm = self.terms.get((-1, j), ExactScalar.zero())
            if not (cp - cm).is_zero():
                raise DeltaError(
                    f"boundary germ at order {j} is unbalanced; cannot reduce to d0 form")
            out.append(cp)
        return DeltaGerm(out)

    def __eq__(self, other):
        if not isinstance(other, HalfDeltaGerm):
            return NotImplemented
        diff = self + (other * ExactScalar.from_rational(-1))
        return not diff.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*d{'+' if s > 0 else '-'}^({j})" for (s, j), c in sorted(self.terms.items()))


def _field(doc, key, path):
    if key not in doc:
        raise DeltaError(f"{path}{key}: missing field")
    return doc[key]


def germ_from_document(doc):
    """Inverse of `germ_to_document`: the (germ, location) pair, exactly.

    A field of the wrong shape raises `DeltaError` naming the field.
    """
    location_text = _field(doc, "location", "")
    m = re.match(r"^e\^\{2pi\*i\*(-?\d+)/(\d+)\}$", location_text)
    if not m:
        raise DeltaError(f"unparseable germ location {location_text!r}")
    location = Fraction(int(m.group(1)), int(m.group(2)))
    variables = _field(doc, "variables", "")
    if variables != [GERM_VAR]:
        raise DeltaError(f"variables: germs are one-variable in {GERM_VAR!r}, "
                         f"got {variables!r}")
    terms = {}
    for i, t in enumerate(_field(doc, "terms", "")):
        path = f"terms[{i}]."
        order = _field(t, "derivative_order", path)
        if not (isinstance(order, list) and len(order) == 1
                and type(order[0]) is int and order[0] >= 0):
            raise DeltaError(f"{path}derivative_order: expected [j] with an integer "
                             f"j >= 0, got {order!r}")
        if order[0] in terms:
            raise DeltaError(f"{path}derivative_order: repeated order {order[0]}")
        terms[order[0]] = ExactScalar.from_text(_field(t, "scalar", path))
    dense = [terms.get(j, ExactScalar.zero()) for j in range(max(terms, default=-1) + 1)]
    return DeltaGerm(dense), location % 1

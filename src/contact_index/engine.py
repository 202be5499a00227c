"""Localization engine: germs at torsion points, characters, calibration.

The contributions are assembled per Galois orbit of torsion points: each
fixed component yields (2 pi i)^-k times the pairing of its Todd factor, its
inverse normal determinant and the contact delta form; Fourier conversion
of the germs gives one polynomial in m per residue class modulo each torsion
order.  The points of order q form one Galois orbit over Q(i), two if 4
divides q; an orbit is evaluated once and `fourier_contribution` sums its
rows over the orbit's Galois maps, a trace down to Q(i), unless the model
fails the guard in `assemble_character`.  The rows come in integer
components, numerators over one denominator per basis exponent; they are
summed per order, then per residue of the period, and the window is read
by integer Horner per residue, equal ints sharing one immutable scalar.

The rank-2 double expansion runs in integers: each slice's numerator is
divided by one binomial (1 - x^s) at a time with a stride recurrence, and
a nonzero remainder (the top s entries of the running sums) rejects it.

Three global convention bits (orientation of the top pairing, Fourier sign,
Todd series direction) are fixed once by `calibrate_conventions`, which
demands that exactly one of the eight combinations reproduces both anchor
characters (the free circle and the round three-sphere).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .scalars import (CyclotomicNumber, ExactScalar, ScalarError, _fold, _make, _scalar_text,
                      _units_over_qi, approx_display)
from .deltas import DeltaGerm, _trimmed_row, fourier_contribution, germ_to_document
from .forms import FormElement, dc_inverse, integrate_component, j_form, todd
from .catalog import (IDENTITY, preset_circle, preset_hopf_sphere, preset_prequantum_cpn,
                      preset_weighted_s3)


class EngineError(ValueError):
    pass


class UnsupportedModelError(EngineError):
    """Feature outside the supported scope (maps to CLI exit code 3)."""


class CalibrationError(EngineError):
    """Zero or several convention combinations pass the anchors (exit code 5)."""


@dataclass(frozen=True)
class CalibrationConfig:
    poisson_sign: int = 1
    orientation_sign: int = 1
    todd_direction: str = "plus"

    def as_dict(self):
        return {"poisson_sign": self.poisson_sign,
                "orientation_sign": self.orientation_sign,
                "todd_direction": self.todd_direction}

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise EngineError(f"calibration record must be a JSON object, got {d!r}")
        for key, allowed in (("poisson_sign", (1, -1)), ("orientation_sign", (1, -1)),
                             ("todd_direction", ("plus", "minus"))):
            value = d.get(key)
            if type(value) is not type(allowed[0]) or value not in allowed:
                raise EngineError(f"calibration record: {key} must be one of {allowed}, "
                                  f"got {value!r}")
        return CalibrationConfig(d["poisson_sign"], d["orientation_sign"], d["todd_direction"])


DEFAULT_CALIBRATION = CalibrationConfig()


def build_preset(name, params, calibration=DEFAULT_CALIBRATION):
    o = calibration.orientation_sign
    if name == "circle":
        return preset_circle(orientation=o)
    if name == "hopf":
        (n,) = params
        return preset_hopf_sphere(n, orientation=o)
    if name == "weighted-s3":
        a, b = params
        return preset_weighted_s3(a, b, orientation=o)
    if name == "prequantum-cpn":
        (n,) = params
        return preset_prequantum_cpn(n, orientation=o)
    raise EngineError(f"unknown preset {name!r}")


def _inverse_two_pi_i_power(k):
    """(2 pi i)^-k as the one graded scalar 2^-k i^-k pi^-k."""
    return ExactScalar(-k, CyclotomicNumber.zeta(4, -k)
                       * CyclotomicNumber.from_rational(Fraction(1, 2 ** k)))


def _component_germ(comp, calibration):
    """(2 pi i)^-k times the pairing of Todd, inverse determinant and delta form."""
    k = comp.k
    jet_order = k  # the Leibniz pairing reads jets only up to j_form's top order k
    td = todd(comp.tangential, comp.generators, k, jet_order=jet_order,
              direction=calibration.todd_direction)
    dc = dc_inverse(comp.normal, comp.generators, k, jet_order=jet_order)
    smooth = td * dc if comp.normal else td  # no normal roots: dc is one
    germ = integrate_component(smooth, j_form(comp, jet_order=jet_order), comp.pairing)
    return germ * _inverse_two_pi_i_power(k)


def germ_at(model, at, calibration=DEFAULT_CALIBRATION):
    """Germ of the index at one torsion point of a rank-1 model.

    The sum over the components fixed by that point, in their listed
    order; a point outside the torsion support gives the zero germ.
    """
    if model.rank != 1:
        raise UnsupportedModelError(
            "germs at single points are computed for rank-1 models; rank-2 models "
            "go through corollary_expand")
    total = DeltaGerm.zero()
    for comp in model.components.get(Fraction(at) % 1, []):
        total = total + _component_germ(comp, calibration)
    return total


def dh_fourier(model, calibration=DEFAULT_CALIBRATION):
    """The volume transform: the identity computation with the Todd factor dropped."""
    if model.rank != 1:
        raise UnsupportedModelError("the volume transform is computed for rank-1 models")
    n = model.ambient_n
    total = DeltaGerm.zero()
    for comp in model.components.get(IDENTITY, []):
        one = FormElement.one(comp.generators, comp.k, comp.k)
        total = total + integrate_component(one, j_form(comp, jet_order=comp.k),
                                            comp.pairing)
    return total * _inverse_two_pi_i_power(n)


# ----------------------------------------------------------------------
# quasi-polynomials
# ----------------------------------------------------------------------

class QuasiPolynomial:
    """Per-residue polynomials in m, built by `fit_quasi_polynomial`; period 1 is a polynomial.

    A residue polynomial is held in integer components (k, L, D, columns):
    its m^j coefficient is sum_e columns[e][j] zeta_L^e / D * pi^k.  Columns
    have the polynomial's length, trailing zeros trimmed, and none is zero.
    L need not be minimal nor D reduced: `read(m)` (Horner's rule on the
    columns) and `to_document` demote what they return.  `window` walks each
    residue once: a rational one (k = 0, L = 4, exponent 0) takes each int by
    one divmod, and equal ints share one immutable ExactScalar (a memo of the
    call); other values go through `read`.
    """

    def __init__(self, components):
        self.period, self._integer = len(components), components

    def read(self, m):
        """(the value at m, that value as an int or None), from one integer Horner pass."""
        k, level, den, columns = self._integer[m % self.period]
        x = _make(level, den, {e: v for e, c in columns.items() if (v := _horner(c, m))}).demote()
        value = ExactScalar(k, x)
        return value, (x.nums.get(0, 0) if value.is_rational() and x.den == 1 else None)

    def window(self, max_m):
        """(coefficients, integers) for |m| <= max_m, keys ascending (see the class)."""
        pairs, shared = [None] * (2 * max_m + 1), {}
        for r, (k, level, den, columns) in enumerate(self._integer):
            rational = not k and level == 4 and columns.keys() == {0}
            for m in range(-max_m + (r + max_m) % self.period, max_m + 1, self.period):
                n, rest = divmod(_horner(columns[0], m), den) if rational else (None, 1)
                if not rest and n not in shared:
                    shared[n] = ExactScalar(0, _make(4, 1, {0: n} if n else {})), n
                pairs[m + max_m] = self.read(m) if rest else shared[n]
        return tuple(dict(zip(range(-max_m, max_m + 1), column)) for column in zip(*pairs))

    def to_document(self):
        return {
            "period": self.period,
            "polys": [{"residue": r,
                       "coefficients": [_scalar_text(*x) for x in _coefficients(c)]}
                      for r, c in enumerate(self._integer)],
        }


def _horner(column, m):
    acc = 0
    for c in reversed(column):
        acc = acc * m + c
    return acc


def _coefficients(components):
    """(k, level, den, nums) per coefficient at its canonical level; level 4 cannot
    demote, so it skips `_make` (4% of ws3-torsion `wall_s`, BENCH_17)."""
    k, level, den, columns = components
    for j in range(len(next(iter(columns.values()), ()))):
        nums = {e: column[j] for e, column in columns.items() if column[j]}
        if level == 4:
            yield k, 4, den, nums
        else:
            x = _make(level, den, nums).demote()
            yield k, x.level, x.den, x.nums


def _sum_components(parts):
    """Components of a sum, over the lcm level (`_fold` promotes columns) and denominator."""
    parts = [p for p in parts if p[3]]
    if len(parts) < 2:  # a part is trimmed already
        return parts[0] if parts else (0, 4, 1, {})
    if len(grades := {p[0] for p in parts}) > 1:
        raise ScalarError(f"a residue polynomial mixes pi-grades {sorted(grades)}")
    level, den = math.lcm(*[p[1] for p in parts]), math.lcm(*[p[2] for p in parts])
    width = max(len(next(iter(p[3].values()))) for p in parts)
    out = {}
    for _, part_level, part_den, columns in parts:
        if part_level != level:
            raw = [_fold({e * (level // part_level): c[j] for e, c in columns.items()}, level)
                   for j in range(len(next(iter(columns.values()))))]
            columns = {e: [r.get(e, 0) for r in raw] for e in {e for r in raw for e in r}}
        scale = den // part_den
        for e, column in columns.items():
            acc = out.setdefault(e, [0] * width)
            for j, c in enumerate(column):
                acc[j] += c * scale
    return _trimmed_row(parts[0][0], level, den, out)


def fit_quasi_polynomial(contributions):
    """Sum Fourier rows into one quasi-polynomial, in integer components.

    `contributions` lists (q, rows) pairs as `fourier_contribution` returns
    them, row r in the components of `QuasiPolynomial` (an orbit's rows are
    its traces, at level 4).  The rows of one order are summed per residue
    mod q, and then the orders once per residue mod the period.

    Every residue polynomial has degree at most the largest k = (dim - 1)/2
    of a fixed component, so no check is made: `j_form` has k + 1 terms,
    `integrate_component` pairs them down to orders <= k and sums germs, and
    `galois` keeps their length, so a germ has at most k + 1 terms and its
    Fourier polynomial degree <= k.
    """
    by_order = {}
    for q, rows in contributions:
        by_order.setdefault(q, []).append(rows)
    sums = {q: [_sum_components(parts) for parts in zip(*tables)]
            for q, tables in by_order.items()}
    period = math.lcm(*sums)
    return QuasiPolynomial(
        [_sum_components([rows[r % q] for q, rows in sums.items()]) for r in range(period)])


# ----------------------------------------------------------------------
# character assembly
# ----------------------------------------------------------------------

@dataclass
class CharacterResult:
    model_id: str
    calibration: CalibrationConfig
    germs: dict            # torsion point -> DeltaGerm
    coefficients: dict     # m -> ExactScalar
    quasi: QuasiPolynomial
    integers: dict         # m -> int, or None where the coefficient is not one


def assemble_character(model, max_m, calibration=DEFAULT_CALIBRATION):
    """Sum the Fourier contributions of every torsion germ of a rank-1 model.

    The contributions are summed per residue class into the quasi-polynomial
    of period the lcm of the torsion orders (see
    `fit_quasi_polynomial`); the exact coefficients for
    |m| <= max_m are its values.  Any `max_m` >= 1 gives the whole
    quasi-polynomial, whatever the period.

    The points are evaluated once per Galois orbit (see `_orbits`), at p0/q:
    the germ at t p0/q is p0's under zeta -> zeta^t, and the orbit's rows
    are p0's traced to Q(i).  The guard of an orbit of more than one point,
    else p0 is its own orbit: every member is in the support with p0's
    components, each exponent e mapped to t e mod 1; every curvature and
    pairing scalar lies in Q(i)[pi]; every eigenvalue's denominator divides q.
    """
    if model.rank != 1:
        raise UnsupportedModelError("characters are assembled for rank-1 models")
    if max_m < 1:
        raise EngineError("max_m must be at least 1")
    germs = dict.fromkeys(model.torsion_support)
    contributions = []
    for q, points in itertools.groupby(model.torsion_support, key=lambda t: t.denominator):
        for orbit, maps in _orbits(model, q, points):
            germ = germ_at(model, orbit[0], calibration)
            germs.update(zip(orbit, [germ, *(germ.galois(t) for t in maps[1:])]))
            if not germ.is_zero():
                contributions.append(
                    fourier_contribution(germ, orbit[0], calibration.poisson_sign, maps))
    quasi = fit_quasi_polynomial(contributions)
    coefficients, integers = quasi.window(max_m)
    return CharacterResult(model.model_id, calibration, germs, coefficients, quasi, integers)


def _orbits(model, q, points):
    """(orbit, maps) per orbit of the points of order q: for the first point p0 not yet
    taken, t p0/q mod 1 over the maps t of `_units_over_qi(lcm(4, q))` (the units that
    `fourier_contribution` sums over), or p0 alone with the map 1 where the guard fails."""
    def conjugate(roots, t):
        return [replace(r, eigenvalue_exponent=t * r.eigenvalue_exponent % 1) for r in roots]
    units, done = _units_over_qi(math.lcm(4, q)), set()
    for p0 in points:
        if p0 in done:
            continue
        orbit = [Fraction(t * p0.numerator % q, q) for t in units]
        if len(orbit) > 1:
            comps = model.components[p0]
            roots = [r for c in comps for r in c.tangential + c.normal]
            scalars = [s for r in roots for s in r.curvature] + \
                [s for c in comps for s in c.pairing.values()]
            if any(s and s.value.demote().level != 4 for s in scalars) or \
                    any(q % Fraction(r.eigenvalue_exponent).denominator for r in roots) or \
                    any(model.components.get(at) != [
                        replace(c, tangential=conjugate(c.tangential, t),
                                normal=conjugate(c.normal, t)) for c in comps]
                        for at, t in zip(orbit, units)):
                orbit = [p0]
        done.update(orbit)
        yield orbit, units[:len(orbit)]


# ----------------------------------------------------------------------
# the rank-2 double expansion
# ----------------------------------------------------------------------

def residual_factors(model, m, calibration=DEFAULT_CALIBRATION):
    """Per-fiber data of the m-th principal Fourier slice.

    Each fiber contributes the power m*sigma of the group variable divided by
    the product over its normal roots of (1 - x^e), where e is the root's
    covector paired with (1, sigma).  The contact-form normalization enters
    through the orbit pairing divided by 2 pi and the moment constant.
    """
    out = []
    s = calibration.poisson_sign
    for fam in model.fiber_families:
        comp = fam.component
        amp = comp.pairing[()] * ExactScalar.pi_power(-1, Fraction(1, 2)) \
            * ExactScalar.from_rational(1 / Fraction(comp.mu))
        if not amp.is_rational():
            raise EngineError("fiber amplitude must be rational")
        exponents = [w[0] + fam.sigma * w[1] for w in (r.weight for r in comp.normal)]
        if any(e == 0 for e in exponents):
            raise UnsupportedModelError(
                "a fiber normal root pairs to zero with its own pair exponent; "
                "the model does not separate")
        out.append({
            "amplitude": amp.rational_value(),
            "power": s * m * fam.sigma,
            "denominator_exponents": exponents,
        })
    return out


def corollary_expand(model, max_m, max_k, calibration=DEFAULT_CALIBRATION):
    """Weight multiplicities of the group character per principal index m.

    Slice m sums amplitude * x^(power*m) / prod(1 - x^e) over the fibers, in
    integers.  Built once per call: A, the lcm of the amplitudes'
    denominators, and per fiber an integer cofactor, its amplitude times A
    times the other fibers' denominators, where each denominator is written
    as sign * x^shift * prod(1 - x^|e|) and the sign and shift go into the
    cofactor, so every binomial left has constant term 1.  Per slice the
    shifted cofactors sum to a dense numerator, `_divide_binomials` divides
    it by one binomial at a time (a remainder or a degree deficit raises,
    naming m), and each multiplicity is a quotient coefficient over A, which
    must be an integer.  Returns {m: {weight: multiplicity}} with weights
    clipped to |weight| <= max_k (entries outside the window raise).
    `max_m = 0` gives slice 0 alone; negative windows are rejected.
    """
    if model.rank != 2 or not model.fiber_families:
        raise UnsupportedModelError(
            "the double expansion needs a rank-2 model with separating fibers")
    if max_m < 0:
        raise EngineError(f"max_m must be at least 0, got {max_m}")
    if max_k < 0:
        raise EngineError(f"max_k must be at least 0, got {max_k}")
    factors = residual_factors(model, 1, calibration)  # each power is linear in m
    scale = math.lcm(*(f["amplitude"].denominator for f in factors))
    strides = [[abs(e) for e in f["denominator_exponents"]] for f in factors]
    cofactors = []  # (power per unit m, lowest exponent, dense integer coefficients)
    for i, f in enumerate(factors):
        negative = [e for e in f["denominator_exponents"] if e < 0]
        amplitude = int(f["amplitude"] * scale) * (-1) ** len(negative)
        others = [s for j, fiber in enumerate(strides) if j != i for s in fiber]
        cofactors.append((f["power"], -sum(negative),
                          [amplitude * c for c in _binomial_product(others)]))
    all_strides = [s for fiber in strides for s in fiber]
    table = {}
    for m in range(-max_m, max_m + 1):
        low = min(shift + power * m for power, shift, _ in cofactors)
        high = max(shift + power * m + len(term) for power, shift, term in cofactors)
        num = [0] * (high - low)
        for power, shift, term in cofactors:
            base = shift + power * m - low
            for j, c in enumerate(term):
                num[base + j] += c
        try:
            quotient = _divide_binomials(num, all_strides)
        except EngineError as exc:
            raise EngineError(f"residual character at m={m} is not a Laurent "
                              f"polynomial: {exc}") from None
        entry = {}
        for k, c in enumerate(quotient, low):
            if not c:
                continue
            if c % scale:
                raise EngineError(f"non-integer multiplicity {Fraction(c, scale)} "
                                  f"at weight {k}, m={m}")
            if abs(k) > max_k:
                raise EngineError(
                    f"weight {k} exceeds the requested window {max_k} at m={m}; "
                    f"raise max_k")
            entry[k] = c // scale
        table[m] = entry
    return table


def _binomial_product(strides):
    """Ascending integer coefficients of prod (1 - x^s) over positive strides s."""
    out = [1]
    for s in strides:
        out = out + [0] * s
        for i in range(len(out) - 1, s - 1, -1):
            out[i] -= out[i - s]
    return out


def _divide_binomials(num, strides):
    """Exact quotient of an integer polynomial by prod (1 - x^s), s > 0.

    `num` lists ascending coefficients from x^0, zeros at either end
    allowed.  Dividing by one binomial is the stride recurrence
    q[i] += q[i - s], run as a running sum over each residue class mod s;
    the division is exact exactly when the top s entries of the result
    vanish, and those entries are then dropped.  Raises `EngineError` for a
    numerator of lower degree than the denominator or a nonzero remainder.
    """
    q = list(num)
    while q and not q[-1]:
        q.pop()
    if not q:
        return []
    if len(q) - next(j for j, c in enumerate(q) if c) <= sum(strides):
        raise EngineError("degree deficit")
    for s in strides:
        for r in range(s):
            q[r::s] = itertools.accumulate(q[r::s])
        if any(q[-s:]):
            raise EngineError("nonzero remainder")
        del q[-s:]
    return q


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

_ANCHOR_MAX_M = 20
_ANCHORS = (("circle", (), lambda m: 1), ("hopf", (1,), lambda m: 1 - m))


def _anchor_pass(calibration):
    for name, params, expected in _ANCHORS:
        res = assemble_character(build_preset(name, params, calibration), _ANCHOR_MAX_M,
                                 calibration)
        if any(res.integers[m] != expected(m)
               for m in range(-_ANCHOR_MAX_M, _ANCHOR_MAX_M + 1)):
            return False
    return True


def calibrate_conventions():
    """Select the unique convention combination passing both anchors.

    Iterates the eight (orientation, Fourier sign, Todd direction) triples;
    exactly one must reproduce the all-ones circle character and the 1 - m
    sphere character.  Zero or several passing triples signal an
    implementation bug and raise `CalibrationError`.
    """
    passing = []
    for o in (1, -1):
        for s in (1, -1):
            for direction in ("plus", "minus"):
                cfg = CalibrationConfig(poisson_sign=s, orientation_sign=o,
                                        todd_direction=direction)
                if _anchor_pass(cfg):
                    passing.append(cfg)
    if len(passing) != 1:
        raise CalibrationError(
            f"calibration must single out exactly one convention combination; "
            f"{len(passing)} of 8 passed the anchors")
    return passing[0]


# ----------------------------------------------------------------------
# report documents
# ----------------------------------------------------------------------

def character_document(result, digits=4):
    texts = {}  # id(coefficient) -> its (value, approx) texts; `window` shares equal ints

    def coeff_entry(m):
        c, n = result.coefficients[m], result.integers[m]
        if id(c) not in texts:
            texts[id(c)] = {"value": c.to_text(), "approx": approx_display(c, digits)}
        return {"m": m, **texts[id(c)], **({} if n is None else {"integer": n})}

    return {
        "model_id": result.model_id,
        "calibration": result.calibration.as_dict(),
        "germs": [germ_to_document(result.germs[at], at)
                  for at in sorted(result.germs, key=lambda t: (t.denominator, t.numerator))],
        "coefficients": [coeff_entry(m) for m in sorted(result.coefficients)],
        "quasi_polynomial": result.quasi.to_document(),
        "non_integer_coefficients": [m for m, v in result.integers.items() if v is None],
    }

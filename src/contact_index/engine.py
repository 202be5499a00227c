"""Localization engine: germs at torsion points, characters, calibration.

The contributions are assembled per Galois orbit of torsion points: each
fixed component pairs its Todd factor, its inverse normal determinant and the
contact delta form against its pairing table times (2 pi i)^-k; Fourier conversion
of the germs gives one polynomial in m per residue class modulo each torsion
order.  The points of order q form one Galois orbit over Q(i), two if 4
divides q; an orbit is evaluated once and `fourier_contribution` sums its
table over the orbit's Galois maps, a trace down to Q(i), unless the model
fails the guard in `assemble_character`.  A table holds the integer numerators
per basis exponent over one denominator, pi-grade 0; the fit adds each into its
order once; the window is read in whole lists of ints, equal ints sharing a scalar.

The rank-2 double expansion runs in integers: each slice's numerator is
divided by one binomial (1 - x^s) at a time with a stride recurrence, and
a nonzero remainder (the top s entries of the running sums) rejects it.

Three global convention bits (orientation of the top pairing, Fourier sign,
Todd series direction) are fixed once by `calibrate_conventions`, which
demands that exactly one of the eight combinations reproduces both anchor
characters (the free circle and the round three-sphere).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from operator import add, mul

from .scalars import (CyclotomicNumber, _fold, _integer, _make, _scalar_text, _units_over_qi,
                      approx_display)
from .deltas import DeltaGerm, _trimmed_table, fourier_contribution, germ_to_document
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
        return asdict(self)

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


def _scaled_pairing(pairing, k):
    """The pairing table times (2 pi i)^-k = 2^-k i^-k pi^-k, one product per entry: the
    values, of pi-grade k + 1, are multiplied by i^-k / 2^k, and the germ has grade 1."""
    scale = CyclotomicNumber.zeta(4, -k) * Fraction(1, 2 ** k)
    return {exp: value * scale for exp, value in pairing.items()} if k else pairing


def _component_germ(comp, calibration):
    """(2 pi i)^-k times the pairing of Todd, inverse determinant and delta form."""
    k = comp.k  # the pairing reads no smooth term of total degree above k
    td = todd(comp.tangential, comp.generators, jet_order=k,
              direction=calibration.todd_direction)
    dc = dc_inverse(comp.normal, comp.generators, jet_order=k)
    smooth = td * dc if comp.tangential and comp.normal else dc if comp.normal else td
    return integrate_component(smooth, j_form(comp, jet_order=k),
                               _scaled_pairing(comp.pairing, k))


def germ_at(model, at, calibration=DEFAULT_CALIBRATION):
    """Germ of the index at one torsion point of a rank-1 model.

    The sum over the components fixed by that point, in their listed
    order; a point outside the torsion support gives the zero germ.
    """
    if model.rank != 1:
        raise UnsupportedModelError(
            "germs at single points are computed for rank-1 models; rank-2 models "
            "go through corollary_expand")
    return sum((_component_germ(comp, calibration)
                for comp in model.components.get(Fraction(at) % 1, [])), DeltaGerm.zero())


def dh_fourier(model, calibration=DEFAULT_CALIBRATION):
    """The volume transform: the identity computation with the Todd factor dropped."""
    if model.rank != 1:
        raise UnsupportedModelError("the volume transform is computed for rank-1 models")
    return sum((integrate_component(FormElement.one(comp.generators, comp.k),
                                    j_form(comp, jet_order=comp.k),
                                    _scaled_pairing(comp.pairing, model.ambient_n))
                for comp in model.components.get(IDENTITY, [])), DeltaGerm.zero())


# ----------------------------------------------------------------------
# quasi-polynomials
# ----------------------------------------------------------------------

class QuasiPolynomial:
    """Per-order polynomials in m, built by `fit_quasi_polynomial`; period 1 is a polynomial.

    `orders[q]` maps e to columns of ints, columns[j][r] the m^j coefficient of residue
    r mod q in zeta_L^e / D (one level L and denominator D for all, pi-grade 0); the value
    at m sums each order's row at m mod q, and `period` is the lcm of the orders.  `window`
    reads rational parts (e = 0) in whole lists: per order by Horner across every m, or for
    degree d >= 2 past 2 (d + 1) q points by forward differences per residue (one
    `itertools.accumulate` per order below d), the sum divided by D once per m.  Equal ints
    share one `CyclotomicNumber` per call; a remainder or an irrational part uses `read`.
    """

    def __init__(self, level, den, orders):
        self.level, self.den, self.orders, self.period = level, den, orders, math.lcm(*orders)

    def read(self, m):
        """(the value at m, that value as an int or None), from one integer Horner pass."""
        sums = {}
        for q, columns in self.orders.items():
            for e, cols in columns.items():
                sums[e] = sums.get(e, 0) + _horner([col[m % q] for col in cols], m)
        x = _make(self.level, self.den, {e: v for e, v in sums.items() if v}).demote()
        return x, (x.nums.get(0, 0) if x.is_rational() and x.den == 1 else None)

    def window(self, max_m):
        """(coefficients, integers) for |m| <= max_m, keys ascending (see the class)."""
        ms, total = range(-max_m, max_m + 1), [0] * (2 * max_m + 1)
        if any(e for columns in self.orders.values() for e in columns):
            return tuple(dict(zip(ms, column)) for column in zip(*map(self.read, ms)))
        for q, cols in ((q, c[0]) for q, c in self.orders.items() if c):
            if len(cols) > 2 and len(ms) > 2 * len(cols) * q:
                run = _differences(cols, q, ms)
            else:  # Horner on the columns repeated cyclically from ms[0] mod q
                run = functools.reduce(lambda acc, c: list(map(add, map(mul, acc, ms), c)), [
                    (col * (len(ms) // q + 2))[ms[0] % q:][:len(ms)] for col in cols[::-1]])
            total = list(map(add, total, run))
        ints = [None if rest else n for n, rest in map(divmod, total, itertools.repeat(self.den))]
        shared = {n: _integer(n) for n in set(ints) if n is not None}
        return ({m: self.read(m)[0] if n is None else shared[n] for m, n in zip(ms, ints)},
                dict(zip(ms, ints)))

    def to_document(self):
        period, wide = self.period, {}  # e -> columns over the period
        width = max((len(c) for cs in self.orders.values() for c in cs.values()), default=0)
        for q, columns in self.orders.items():
            for e, cols in columns.items():
                acc = wide.setdefault(e, [[0] * period for _ in range(width)])
                acc[:len(cols)] = [list(map(add, a, c * (period // q))) for a, c in zip(acc, cols)]

        @functools.cache
        def text(*nums):  # one coefficient's numerators, keyed as `wide`; level 4 cannot demote
            terms = {e: n for e, n in zip(wide, nums) if n}
            x = _make(self.level, self.den, terms).demote() if self.level > 4 else None
            return _scalar_text(0, x.level, x.den, x.nums) if x else \
                _scalar_text(0, 4, self.den, terms)

        rows = zip(range(period), *(map(text, *(acc[j] for acc in wide.values()))
                                    for j in range(width)))
        return {"period": period, "polys": [{"residue": r, "coefficients": row if row[-1:] != ["0"]
                                             else row[:len(row) - len([*itertools.takewhile(
                                                 "0".__eq__, row[::-1])])]} for r, *row in rows]}


def _horner(column, m):
    acc = 0
    for c in reversed(column):
        acc = acc * m + c
    return acc


def _differences(cols, q, ms):
    """The numerators at every m of ms by integer forward differences per residue (more than
    len(cols) points each), exact for integer columns; they run over the gcd of the leading
    differences, which divides every value (hopf n = 20 @100: 0.30 ms, not 0.48, on a Xeon)."""
    acc, d = [0] * len(ms), len(cols) - 1
    for offset in range(q):
        points = ms[offset::q]
        lead = [_horner([col[points[0] % q] for col in cols], m) for m in points[:d + 1]]
        for j in range(1, d + 1):  # lead[j] becomes Delta^j v_0 in place
            lead[j:] = [b - a for a, b in zip(lead[j - 1:], lead[j:])]
        g = math.gcd(*lead) or 1
        acc[offset::q] = map(mul, functools.reduce(lambda run, c: list(itertools.accumulate(
            run, initial=c // g)), lead[d - 1::-1], [lead[d] // g] * (len(points) - d)),
            itertools.repeat(g))
    return acc


def _add_table(acc, table, level, den):
    """Add one Fourier table into its order's columns `acc` (see `fit_quasi_polynomial`)."""
    q, table_level, table_den, columns = table
    step, scale = level // table_level, den // table_den
    for e, cols in columns.items():
        for x, v in (_fold({e * step: scale}, level) if step > 1 else {e: scale}).items():
            sums = acc.setdefault(x, [])
            sums += [[0] * q for _ in cols[len(sums):]]
            for j, col in enumerate(cols):
                sums[j] = [a + c * v for a, c in zip(sums[j], col)]


def fit_quasi_polynomial(contributions):
    """Sum Fourier tables into one quasi-polynomial, in integer columns per order.

    `contributions` lists tables (q, level, den, columns) as `fourier_contribution` returns
    them (an orbit's table holds its traces, at level 4).  The level L and denominator are
    the lcm over the nonempty tables.  `_add_table` adds each table into its order once,
    O(sum of the orders) sums in all, scaled to that denominator; from a level L/s, the
    columns of exponent e go to the basis by `_fold` of zeta_L^(e s).  Each order is trimmed
    once after its sum, and every order given keeps a part, so a zero table enters the period.

    Every residue polynomial has degree at most the largest k = (dim - 1)/2 of a fixed
    component, so no check is made: `j_form` has k + 1 terms, `integrate_component` pairs
    them down to orders <= k and sums germs, and `galois` keeps their length, so a germ has
    at most k + 1 terms and its Fourier polynomial degree <= k.
    """
    tables = [table for table in contributions if table[3]]
    level, den = math.lcm(4, *(t[1] for t in tables)), math.lcm(*(t[2] for t in tables))
    orders = {}
    for table in contributions:
        _add_table(orders.setdefault(table[0], {}), table, level, den)
    return QuasiPolynomial(level, den, {q: _trimmed_table(acc) for q, acc in orders.items()})


# ----------------------------------------------------------------------
# character assembly
# ----------------------------------------------------------------------

@dataclass
class CharacterResult:
    model_id: str
    calibration: CalibrationConfig
    germs: dict            # torsion point -> DeltaGerm
    coefficients: dict     # m -> CyclotomicNumber, pi-grade 0
    quasi: QuasiPolynomial
    integers: dict         # m -> int, or None where the coefficient is not one


def assemble_character(model, max_m, calibration=DEFAULT_CALIBRATION):
    """Sum the Fourier contributions of every torsion germ of a rank-1 model.

    The contributions are summed per torsion order into the quasi-polynomial
    (see `fit_quasi_polynomial`), whose values at |m| <= max_m are the exact
    coefficients.  Any `max_m` >= 1 gives the whole quasi-polynomial.

    The points are evaluated once per Galois orbit (see `_orbits`), at p0/q:
    the germ at t p0/q is p0's under zeta -> zeta^t, and the orbit's table
    is p0's traced to Q(i).  The guard of an orbit of more than one point,
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
            if any(s and s.demote().level != 4 for s in scalars) or \
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
    through the orbit pairing divided by 2 pi and the moment constant: the
    pairing value, of pi-grade 1, is halved and the pi cancels.
    """
    out = []
    s = calibration.poisson_sign
    for fam in model.fiber_families:
        comp = fam.component
        amp = comp.pairing[()] * (1 / (2 * Fraction(comp.mu)))
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
    return all(assemble_character(build_preset(name, params, calibration), _ANCHOR_MAX_M,
                                  calibration).integers ==
               {m: expected(m) for m in range(-_ANCHOR_MAX_M, _ANCHOR_MAX_M + 1)}
               for name, params, expected in _ANCHORS)


def calibrate_conventions():
    """Select the unique convention combination passing both anchors.

    Iterates the eight (orientation, Fourier sign, Todd direction) triples;
    exactly one must reproduce the all-ones circle character and the 1 - m
    sphere character.  Zero or several passing triples signal an
    implementation bug and raise `CalibrationError`.
    """
    passing = [cfg for o, s, direction in itertools.product((1, -1), (1, -1), ("plus", "minus"))
               if _anchor_pass(cfg := CalibrationConfig(s, o, direction))]
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

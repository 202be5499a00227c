"""Brute-force ground truth the verification suite compares against.

Everything here is deliberately independent of the localization engine: only
integer and rational arithmetic, with direct enumeration wherever possible.  Where a value
admits two elementary routes, both are implemented and the test suite
asserts their agreement.
"""

from __future__ import annotations

import math
from fractions import Fraction


class OracleError(ValueError):
    pass


def _check_weights(weights):
    w = tuple(int(a) for a in weights)
    if not w or any(a < 1 for a in w):
        raise OracleError("weights must be positive integers")
    return w


def lattice_count(weights, m):
    """#{k in Z_{>=0}^d : sum a_i k_i = m}, by direct enumeration."""
    w = _check_weights(weights)
    if m < 0:
        return 0

    def rec(idx, rest):
        if idx == len(w) - 1:
            return 1 if rest % w[idx] == 0 else 0
        return sum(rec(idx + 1, rest - w[idx] * k) for k in range(rest // w[idx] + 1))

    return rec(0, int(m))


def lattice_count_series(weights, m):
    """Same count via the coefficient of t^m in prod 1/(1 - t^{a_i}).

    The second, independent route inside the oracle itself: exact expansion
    of the generating product to order m.
    """
    w = _check_weights(weights)
    if m < 0:
        return 0
    m = int(m)
    series = [0] * (m + 1)
    series[0] = 1
    for a in w:
        # multiply by 1/(1 - t^a): prefix sums with stride a
        for j in range(a, m + 1):
            series[j] += series[j - a]
    return series[m]


def sphere_char_oracle(a, b, m):
    """Character coefficient of the weighted three-sphere operator.

    c_m = #{a k1 + b k2 = -m} - #{a k1 + b k2 = m - (a+b)}: the holomorphic
    monomial count minus the dual count shifted by a+b.  The shift is pinned
    by the (1,1) case, where the formula collapses to 1 - m for every m.
    """
    a, b = int(a), int(b)
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise OracleError("weights must be coprime positive integers")
    return lattice_count((a, b), -m) - lattice_count((a, b), m - (a + b))


def cpn_chi(n, m):
    """Euler characteristic of the m-th power of the hyperplane bundle on CP^n.

    Enumerated directly for m >= 0 and by the dual count for m <= -n-1; zero
    in the gap.  Coincides with the binomial polynomial binom(m+n, n)
    extended to all integers (see `cpn_chi_polynomial`).
    """
    n, m = int(n), int(m)
    if n < 0:
        raise OracleError("n must be nonnegative")
    ones = (1,) * (n + 1)
    if m >= 0:
        return lattice_count(ones, m)
    if m <= -n - 1:
        return (-1) ** n * lattice_count(ones, -m - n - 1)
    return 0


def cpn_chi_polynomial(n, m):
    """binom(m+n, n) as an exact product formula, valid for every integer m."""
    num = Fraction(1)
    for j in range(1, n + 1):
        num *= Fraction(m + j, j)
    if num.denominator != 1:
        raise OracleError("binomial polynomial did not evaluate to an integer")
    return int(num)


def cpn_weight_multiplicities(n, m):
    """Weight multiplicities of the m-th slice of the prequantum CP^n model.

    For m >= 0: the number of monomials z^k, k in Z_{>=0}^{n+1}, of degree
    sum k_j = m and weight sum j k_j = w, for every w, by direct
    enumeration.  For m <= -n-1 duality gives sign (-1)^n and reflects each
    weight w of degree -m-n-1 to -w - n(n+1)/2.  The gap -n <= m <= -1 is
    empty.  For n = 1 this is `equivariant_s2_character`.
    """
    n, m = int(n), int(m)
    if n < 0:
        raise OracleError("n must be nonnegative")
    if -n <= m <= -1:
        return {}
    sign, degree = (1, m) if m >= 0 else ((-1) ** n, -m - n - 1)
    counts = {}

    def rec(j, rest, weight):
        if j == n:
            w = weight + n * rest
            counts[w] = counts.get(w, 0) + 1
            return
        for k in range(rest + 1):
            rec(j + 1, rest - k, weight + j * k)

    rec(0, degree, 0)
    if m >= 0:
        return counts
    return {-w - n * (n + 1) // 2: sign * c for w, c in counts.items()}


def equivariant_s2_character(m):
    """Weight multiplicities of the rotation action on the sphere sections.

    For m >= 0 the section space has weights {0, ..., m}, each once.  For
    m <= -2 duality trades the space for a cohomology in degree one: the
    weights are {m+1, ..., -1}, each with multiplicity -1 in the index.
    m = -1 gives nothing.  The global weight normalization matches the
    engine's character conventions.
    """
    m = int(m)
    if m >= 0:
        return {k: 1 for k in range(0, m + 1)}
    if m == -1:
        return {}
    return {k: -1 for k in range(m + 1, 0)}


def ball_integral(n):
    """Volume pairing of the round contact sphere via Stokes' theorem.

    With the coordinate one-form sum(y dx - x dy), the exterior derivative is
    -2 sum(dx dy), so the sphere integral of alpha (d alpha)^n equals
    (-2)^{n+1} (n+1)! vol(B^{2n+2}) with vol(B^{2n+2}) = pi^{n+1}/(n+1)!,
    i.e. (-2)^{n+1} pi^{n+1}: magnitude (2 pi)^{n+1}, sign from the standard
    orientation of the ambient coordinates.  Returns the rational coefficient
    (-2)^{n+1} of pi^{n+1}, the pi-grade of a top pairing value.
    """
    n = int(n)
    if n < 0:
        raise OracleError("n must be nonnegative")
    return Fraction((-2) ** (n + 1))


def circle_character(m):
    """Regular-representation coefficient for the free circle model: always 1."""
    return 1


def oracle_character(model_kind, params, m):
    """Dispatch table giving the expected exact coefficient c_m per model.

    Hopf spheres take the binomial polynomial: `cpn_chi` enumerates
    binom(m+n, n) lattice points and stays the cross-check the tests hold
    equal to it.  Weighted three-spheres enumerate, O(m/a) per value.
    """
    if model_kind == "circle":
        return circle_character(m)
    if model_kind == "hopf":
        (n,) = params
        return cpn_chi_polynomial(n, -m)
    if model_kind == "weighted-s3":
        a, b = params
        return sphere_char_oracle(a, b, m)
    raise OracleError(f"no oracle for model kind {model_kind!r}")


def coefficient_document(model_kind, params, max_m):
    """Oracle coefficients in the same table shape the engine reports."""
    return {
        "model_id": "-".join([model_kind, *map(str, params)]) if params else model_kind,
        "source": "oracle",
        "coefficients": [
            {"m": m, "value": str(oracle_character(model_kind, params, m))}
            for m in range(-max_m, max_m + 1)
        ],
    }

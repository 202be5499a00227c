"""Brute-force oracle self-consistency: every value has two elementary routes."""

import pytest

from contact_index import oracle
from contact_index.scalars import ExactScalar


class TestLatticeCount:
    def test_examples(self):
        assert oracle.lattice_count((1, 1), 4) == 5
        assert oracle.lattice_count((1, 2), 5) == 3
        assert oracle.lattice_count((2, 3), 1) == 0
        assert oracle.lattice_count((1, 1), -1) == 0

    def test_enumeration_agrees_with_generating_series(self):
        cases = [(1, 1), (1, 2), (2, 3), (3, 4), (1, 1, 1), (1, 2, 3)]
        for weights in cases:
            for m in range(0, 40):
                assert oracle.lattice_count(weights, m) == \
                    oracle.lattice_count_series(weights, m), (weights, m)

    def test_rejects_bad_weights(self):
        with pytest.raises(oracle.OracleError):
            oracle.lattice_count((0, 1), 3)


class TestSphereCharacter:
    def test_unweighted_case_is_one_minus_m(self):
        for m in range(-100, 101):
            assert oracle.sphere_char_oracle(1, 1, m) == 1 - m

    def test_examples(self):
        assert oracle.sphere_char_oracle(1, 1, -3) == 4
        assert oracle.sphere_char_oracle(1, 1, 5) == -4
        assert oracle.sphere_char_oracle(1, 2, 2) == 0

    def test_weighted_examples_from_enumeration(self):
        # (1,2): c_m for m = 0,-1,-2,-3,-4 is 1,1,2,2,3
        got = [oracle.sphere_char_oracle(1, 2, m) for m in (0, -1, -2, -3, -4)]
        assert got == [1, 1, 2, 2, 3]

    def test_rejects_non_coprime(self):
        with pytest.raises(oracle.OracleError):
            oracle.sphere_char_oracle(2, 4, 1)


class TestProjectiveSpace:
    def test_examples(self):
        assert oracle.cpn_chi(1, 3) == 4
        assert oracle.cpn_chi(1, -1) == 0
        assert oracle.cpn_chi(2, -4) == 3

    def test_gap_range_vanishes(self):
        for n in (1, 2, 3):
            for m in range(-n, 0):
                assert oracle.cpn_chi(n, m) == 0

    def test_enumeration_routes_agree_with_binomial_polynomial(self):
        for n in (0, 1, 2, 3):
            for m in range(-20, 21):
                assert oracle.cpn_chi(n, m) == oracle.cpn_chi_polynomial(n, m), (n, m)


class TestEquivariantCharacter:
    def test_section_weights(self):
        assert oracle.equivariant_s2_character(2) == {0: 1, 1: 1, 2: 1}

    def test_empty_at_minus_one(self):
        assert oracle.equivariant_s2_character(-1) == {}

    def test_dual_side_is_two_dimensional_at_minus_three(self):
        assert oracle.equivariant_s2_character(-3) == {-2: -1, -1: -1}

    def test_weight_sums_match_euler_characteristics(self):
        for m in range(-15, 16):
            assert sum(oracle.equivariant_s2_character(m).values()) == \
                oracle.cpn_chi(1, m)


class TestProjectiveWeights:
    def test_examples(self):
        assert oracle.cpn_weight_multiplicities(2, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
        # dual side: degree 0 reflects to weight -n(n+1)/2 with sign (-1)^n
        assert oracle.cpn_weight_multiplicities(2, -3) == {-3: 1}
        assert oracle.cpn_weight_multiplicities(3, -4) == {-6: -1}

    def test_gap_range_is_empty(self):
        for n in (1, 2, 3):
            for m in range(-n, 0):
                assert oracle.cpn_weight_multiplicities(n, m) == {}

    def test_circle_case_is_the_sphere_character(self):
        for m in range(-15, 16):
            assert oracle.cpn_weight_multiplicities(1, m) == \
                oracle.equivariant_s2_character(m), m

    def test_weight_sums_match_euler_characteristics(self):
        for n in (1, 2, 3):
            for m in range(-12, 13):
                assert sum(oracle.cpn_weight_multiplicities(n, m).values()) == \
                    oracle.cpn_chi(n, m), (n, m)


class TestBallIntegral:
    def test_circle(self):
        assert oracle.ball_integral(0) == ExactScalar.pi_power(1, -2)

    def test_three_sphere(self):
        assert oracle.ball_integral(1) == ExactScalar.pi_power(2, 4)

    def test_five_sphere(self):
        assert oracle.ball_integral(2) == ExactScalar.pi_power(3, -8)

    def test_magnitude_is_power_of_two_pi(self):
        for n in range(0, 4):
            v = oracle.ball_integral(n)
            squared = v * v
            expected = ExactScalar.pi_power(2 * (n + 1), 4 ** (n + 1))
            assert squared == expected


class TestDocuments:
    def test_coefficient_document_shape(self):
        doc = oracle.coefficient_document("hopf", (1,), 3)
        assert doc["model_id"] == "hopf-1"
        values = {e["m"]: int(e["value"]) for e in doc["coefficients"]}
        assert values == {m: 1 - m for m in range(-3, 4)}

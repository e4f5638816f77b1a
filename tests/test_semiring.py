from fractions import Fraction

import numpy as np
import pytest

from tropsolve import MAX_PLUS, MIN_PLUS, DomainError, ParseError

NEG_INF = float("-inf")


class TestMaxPlusBasics:
    def test_add(self):
        assert MAX_PLUS.add(0.0, -3.0) == 0.0
        assert MAX_PLUS.add(7.5, NEG_INF) == 7.5
        assert MAX_PLUS.add(2.0, 2.0) == 2.0

    def test_mul(self):
        assert MAX_PLUS.mul(-3.0, 5.0) == 2.0
        assert MAX_PLUS.mul(NEG_INF, 5.0) == NEG_INF
        assert MAX_PLUS.mul(11.0, MAX_PLUS.one) == 11.0

    def test_inv(self):
        assert MAX_PLUS.inv(5.0) == -5.0
        assert MAX_PLUS.inv(MAX_PLUS.one) == MAX_PLUS.one
        assert MAX_PLUS.inv(-2.0) == 2.0
        with pytest.raises(DomainError):
            MAX_PLUS.inv(NEG_INF)

    def test_rational_pow(self):
        assert MAX_PLUS.rational_pow(2.0, Fraction(1, 2)) == 1.0
        assert MAX_PLUS.rational_pow(-4.0, Fraction(1, 2)) == -2.0
        assert MAX_PLUS.rational_pow(9.0, 0) == MAX_PLUS.one
        assert MAX_PLUS.rational_pow(3.0, 4) == 12.0
        assert MAX_PLUS.rational_pow(NEG_INF, Fraction(1, 3)) == NEG_INF
        with pytest.raises(DomainError):
            MAX_PLUS.rational_pow(NEG_INF, 0)
        with pytest.raises(DomainError):
            MAX_PLUS.rational_pow(NEG_INF, -2)
        with pytest.raises(TypeError):
            MAX_PLUS.rational_pow(2.0, 0.5)

    def test_leq(self):
        assert MAX_PLUS.leq(-5.0, 0.0)
        assert MAX_PLUS.leq(NEG_INF, -123.0)
        assert MAX_PLUS.leq(3.0, 3.0)
        assert not MAX_PLUS.leq(1.0, 0.0)

    def test_scalar_construction_rejects_nan_and_plus_inf(self):
        with pytest.raises(DomainError):
            MAX_PLUS.scalar(float("nan"))
        with pytest.raises(DomainError):
            MAX_PLUS.scalar(float("inf"))
        assert MAX_PLUS.scalar(NEG_INF) == NEG_INF


class TestMinPlus:
    def test_zero_and_order_are_mirrored(self):
        assert MIN_PLUS.zero == float("inf")
        assert MIN_PLUS.add(3.0, 5.0) == 3.0
        # induced order: x <= y iff min(x, y) == y
        assert MIN_PLUS.leq(5.0, 3.0)
        assert not MIN_PLUS.leq(3.0, 5.0)
        assert MIN_PLUS.leq(MIN_PLUS.zero, -100.0)

    def test_arithmetic(self):
        assert MIN_PLUS.mul(MIN_PLUS.zero, 5.0) == MIN_PLUS.zero
        assert MIN_PLUS.inv(4.0) == -4.0
        with pytest.raises(DomainError):
            MIN_PLUS.scalar(NEG_INF)


class TestFieldLaws:
    """Semifield laws hold exactly, not approximately, in float64."""

    def test_addition_laws_hold_for_arbitrary_floats(self):
        rng = np.random.default_rng(20240601)
        x, y, z = (rng.uniform(-100, 100, size=10_000) for _ in range(3))
        for add in (np.maximum, np.minimum):
            assert np.array_equal(add(x, add(y, z)), add(add(x, y), z))
            assert np.array_equal(add(x, y), add(y, x))
            assert np.array_equal(add(x, x), x)
            # distributivity only needs one rounded sum on each side
            assert np.array_equal(x + add(y, z), add(x + y, x + z))

    def test_multiplication_laws_hold_exactly_on_integer_scalars(self):
        # float addition is not associative for arbitrary reals; the
        # exactness contract is for integer-valued scalars
        rng = np.random.default_rng(20240602)
        x, y, z = (
            rng.integers(-10**6, 10**6, size=10_000).astype(float) for _ in range(3)
        )
        assert np.array_equal(x + (y + z), (x + y) + z)
        assert np.array_equal(x + y, y + x)

    def test_total_order(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
            trichotomy = [MAX_PLUS.lt(x, y), x == y, MAX_PLUS.lt(y, x)]
            assert sum(trichotomy) == 1

    def test_root_round_trip_is_exact_on_integers(self):
        for k in range(1, 7):
            p = Fraction(1, k)
            for x in range(-300, 301):
                root = MAX_PLUS.rational_pow(float(x), p)
                assert MAX_PLUS.rational_pow(root, k) == float(x)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = float(rng.integers(-50, 51))
            assert MAX_PLUS.mul(x, MAX_PLUS.inv(x)) == MAX_PLUS.one


class TestTokens:
    def test_formatting(self):
        assert MAX_PLUS.format_scalar(NEG_INF) == "-inf"
        assert MIN_PLUS.format_scalar(float("inf")) == "inf"
        assert MAX_PLUS.format_scalar(5.0) == "5"
        assert MAX_PLUS.format_scalar(-12.0) == "-12"
        assert MAX_PLUS.format_scalar(2.5) == "2.5"

    def test_parsing(self):
        assert MAX_PLUS.parse_scalar("-inf") == NEG_INF
        assert MIN_PLUS.parse_scalar("inf") == float("inf")
        assert MAX_PLUS.parse_scalar("-3") == -3.0
        assert MAX_PLUS.parse_scalar("0.5") == 0.5
        with pytest.raises(ParseError):
            MAX_PLUS.parse_scalar("inf")
        with pytest.raises(ParseError):
            MAX_PLUS.parse_scalar("nan")
        with pytest.raises(ParseError):
            MAX_PLUS.parse_scalar("zero")

    def test_round_trip_is_bit_exact_for_integers(self):
        rng = np.random.default_rng(3)
        values = [NEG_INF] + [float(v) for v in rng.integers(-10**9, 10**9, size=200)]
        for v in values:
            assert MAX_PLUS.parse_scalar(MAX_PLUS.format_scalar(v)) == v

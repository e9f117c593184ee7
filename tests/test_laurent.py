import pytest

from util import ONE, T, T_INV, ZERO, LaurentPolynomial


def test_construction_drops_zeros():
    p = LaurentPolynomial({2: 1, 0: 0, -1: 3})
    assert p.items() == [(2, 1), (-1, 3)]
    assert LaurentPolynomial({0: 0}).is_zero


def test_arithmetic():
    p = T + ONE  # t + 1
    q = T - ONE  # t - 1
    assert p * q == LaurentPolynomial({2: 1, 0: -1})
    assert p + q == 2 * T
    assert -(p - q) == -2 * ONE
    assert T * T_INV == ONE
    assert (p - p).is_zero


def test_str_format():
    p = LaurentPolynomial({2: 1, 1: -1, 0: 1})
    assert str(p) == "1*t^2-1*t^1+1*t^0"
    assert str(ZERO) == "0"
    assert str(LaurentPolynomial({-1: -2})) == "-2*t^-1"


def test_evaluate_unit():
    p = LaurentPolynomial({2: 1, 1: -1, 0: 1})
    assert p.evaluate_unit(1) == 1
    assert p.evaluate_unit(-1) == 3
    assert LaurentPolynomial({-3: 1}).evaluate_unit(-1) == -1
    with pytest.raises(ValueError):
        p.evaluate_unit(2)


def test_evaluate_mod():
    p = T + ONE
    assert p.evaluate_mod(3, 2) == 0
    assert p.evaluate_mod(2, 1) == 0
    # negative exponents use u^(p-1) = 1
    q = LaurentPolynomial({-2: 1, -1: -1, 0: 1})
    assert q.evaluate_mod(3, 2) == 0
    with pytest.raises(ValueError):
        p.evaluate_mod(5, 0)


def test_unit_canonical():
    a = LaurentPolynomial({-2: 1, -1: -1, 0: 1})
    b = LaurentPolynomial({5: -1, 6: 1, 4: -(-1)})
    assert a.unit_canonical() == LaurentPolynomial({2: 1, 1: -1, 0: 1})
    assert b.unit_canonical() == a.unit_canonical()
    assert ZERO.unit_canonical().is_zero
    neg = LaurentPolynomial({0: -3})
    assert neg.unit_canonical() == LaurentPolynomial({0: 3})


def test_hash_eq():
    assert hash(T + ONE) == hash(ONE + T)
    assert T != ONE
    assert LaurentPolynomial({0: 2}) == 2
    assert {T + ONE, ONE + T} == {T + ONE}


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.x = 1


def test_units_are_signed_monomials():
    assert LaurentPolynomial({-3: -1}).is_unit
    assert LaurentPolynomial({0: 1}).is_unit
    assert not LaurentPolynomial().is_unit
    assert not LaurentPolynomial({0: 2}).is_unit
    assert not LaurentPolynomial({1: 1, 0: -1}).is_unit

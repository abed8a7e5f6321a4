"""Exact arithmetic over Q(q^(1/2)): examples and algebraic properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwig import (
    ONE,
    ZERO,
    HalfLaurent,
    PoleAtOne,
    QFraction,
    parse_qfraction,
    qnum,
    qpow,
)
from qwig.exactq import parse_half_laurent

Q_MINUS_QINV = qpow(1) - qpow(-1)


def test_qnum_small_values():
    assert qnum(0) == HalfLaurent()
    assert qnum(1) == HalfLaurent.const(1)
    assert qnum(-1) == HalfLaurent.const(-1)
    assert qnum(2) == qpow(1) + qpow(-1)
    assert qnum(3) == qpow(2) + qpow(0) + qpow(-2)


def test_qnum_oddness():
    for x in range(0, 12):
        assert qnum(-x) == -qnum(x)


def test_qpow_monomials():
    assert qpow(0) == HalfLaurent.const(1)
    assert qpow(Fraction(1, 2)) == HalfLaurent({1: 1})
    assert qpow(-3) == HalfLaurent({-6: 1})
    with pytest.raises(ValueError):
        qpow(Fraction(1, 3))


def test_field_example_sum_to_one():
    den = qpow(1) + qpow(-1)
    assert QFraction(qpow(-1), den) + QFraction(qpow(1), den) == ONE


def test_field_inverse_cancellation():
    x = QFraction(HalfLaurent.const(1) - qpow(-2))
    assert x * x.inverse() == ONE
    assert QFraction(Q_MINUS_QINV) / QFraction(Q_MINUS_QINV) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        QFraction(1, HalfLaurent())


def test_constants_hash_like_their_values():
    for c in (0, 1, 2, Fraction(1, 2)):
        for x in (HalfLaurent.const(c), QFraction(c)):
            assert x == c and hash(x) == hash(c)
            assert len({x, c}) == 1
    assert len({ONE, 1}) == 1
    # a quotient with denominator 1 hashes like its numerator
    assert hash(QFraction(qpow(1))) == hash(qpow(1))
    assert str(QFraction(2)) == "2" and str(HalfLaurent.const(2)) == "2"


def test_limit_q1_examples():
    assert QFraction(qnum(3)).limit_q1() == 3
    assert QFraction(qpow(-1), qnum(2)).limit_q1() == Fraction(1, 2)
    with pytest.raises(PoleAtOne):
        QFraction(1, Q_MINUS_QINV).limit_q1()


def test_qnum_addition_law():
    # [x+y] = q^y [x] + q^-x [y], exact for all |x|, |y| <= 20
    for x in range(-20, 21):
        for y in range(-20, 21):
            assert qnum(x + y) == qpow(y) * qnum(x) + qpow(-x) * qnum(y)


def test_deformed_root_identity():
    # (1 - q^(-2a))/(q - q^-1) = q^-a [a]_q at the ring level
    for a in range(-20, 21):
        lhs = QFraction(HalfLaurent.const(1) - qpow(-2 * a), Q_MINUS_QINV)
        assert lhs == QFraction(qpow(-a) * qnum(a))


# -- randomized properties ---------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6)
dexps = st.integers(min_value=-8, max_value=8)
polys = st.dictionaries(dexps, coeffs, max_size=4).map(HalfLaurent)
nonzero_polys = polys.filter(bool)
fractions = st.builds(QFraction, polys, nonzero_polys)
rat_polys = st.dictionaries(
    dexps, st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=4
).map(HalfLaurent)
rat_fractions = st.builds(QFraction, rat_polys, rat_polys.filter(bool))


@settings(max_examples=150, deadline=None)
@given(fractions, fractions, fractions)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a - a == ZERO
    if a != ZERO:
        assert a * a.inverse() == ONE


@settings(max_examples=150, deadline=None)
@given(fractions, nonzero_polys.map(QFraction))
def test_cancellation_property(f, g):
    assert (f * g) / g == f


@settings(max_examples=100, deadline=None)
@given(fractions)
def test_string_round_trip(f):
    assert parse_qfraction(str(f)) == f


@settings(max_examples=100, deadline=None)
@given(fractions)
def test_json_round_trip(f):
    obj = f.to_json()
    num, den = (HalfLaurent([(k, Fraction(c)) for k, c in obj[part]])
                for part in ("num", "den"))
    assert QFraction(num, den) == f


@settings(max_examples=100, deadline=None)
@given(fractions)
def test_canonical_form_structural_equality(f):
    # re-normalizing an already canonical quotient changes nothing, and a
    # common non-unit factor always cancels
    junk = QFraction(qnum(2) * f.num, qnum(2) * f.den)
    assert junk == f
    assert junk.num == f.num and junk.den == f.den


def _same(u, v):
    return u.num == v.num and u.den == v.den


@settings(max_examples=150, deadline=None)
@given(rat_fractions, rat_fractions, nonzero_polys)
def test_operations_match_normalizing_from_scratch(a, b, g):
    # sums, products, quotients and inverses skip or shrink the gcd; each
    # must give the same structure as the whole quotient normalized at once,
    # also when the operands share the factor g
    x, y = a * QFraction(g), b / QFraction(g)
    assert _same(x + y, QFraction(x.num * y.den + y.num * x.den, x.den * y.den))
    assert _same(x * y, QFraction(x.num * y.num, x.den * y.den))
    if y:
        assert _same(y.inverse(), QFraction(y.den, y.num))
        assert _same(x / y, QFraction(x.num * y.den, x.den * y.num))


@settings(max_examples=150, deadline=None)
@given(rat_polys, rat_polys, nonzero_polys, nonzero_polys, nonzero_polys)
def test_sum_with_shared_denominator_factor(a, c, u, v, g):
    # a/(g u) + c/(g v): Henrici's rule cancels the sum against g alone
    x, y = QFraction(a, g * u), QFraction(c, g * v)
    want = QFraction(x.num * y.den + y.num * x.den, x.den * y.den)
    assert _same(x + y, want)
    assert hash(x + y) == hash(want)


def test_sum_whose_numerator_shares_the_denominators_gcd():
    # 1/(g u) + 1/(g v) = (u + v)/(g u v), and u + v = 3 g
    g = HalfLaurent.const(1) + qpow(1)
    u = HalfLaurent.const(1) + 2 * qpow(1)
    v = HalfLaurent.const(2) + qpow(1)
    x, y = QFraction(1, g * u), QFraction(1, g * v)
    assert _same(x + y, QFraction(3, u * v))
    assert _same(x + y, QFraction(x.num * y.den + y.num * x.den, x.den * y.den))


def test_from_factors_updates_factors_in_place():
    # p^2 over [p, p]: the numerator factor must stay divided by the first p
    # when it meets the second
    p = qnum(2) + HalfLaurent({1: Fraction(1, 2)})
    assert QFraction.from_factors([p * p], [p, p]) == ONE
    assert QFraction.from_factors([p, p], [p * p]) == ONE
    x = QFraction.from_factors([p * p, qpow(3)], [p.shift(5) * 3, p])
    assert _same(x, QFraction(qpow(3), HalfLaurent.const(3).shift(5)))


def test_from_factors_zero_factors():
    p = qnum(3)
    assert _same(QFraction.from_factors([p, HalfLaurent()], [p, qnum(2)]), ZERO)
    for nums in ([p], [HalfLaurent()]):
        with pytest.raises(ZeroDivisionError):
            QFraction.from_factors(nums, [qnum(2), HalfLaurent()])


monomials = st.builds(
    lambda k, c: HalfLaurent({k: c}), dexps,
    st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
)
factors = st.one_of(nonzero_polys, rat_polys.filter(bool), monomials)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(polys, factors), max_size=4),
       st.lists(factors, max_size=4),
       st.lists(st.tuples(factors, dexps, st.integers(1, 3)), max_size=3))
def test_from_factors_matches_whole_quotient(nums, dens, shared):
    # factors shared between the sides, up to a unit, and repeated ones
    nums = nums + [g for g, _, _ in shared] + [g for g, _, _ in shared[:1]]
    dens = dens + [g.shift(k) * c for g, k, c in shared]
    x = QFraction.from_factors(nums, dens)
    one = HalfLaurent.const(1)
    y = QFraction(math.prod(nums, start=one), math.prod(dens, start=one))
    assert _same(x, y)
    assert hash(x) == hash(y)


def _fraction_parse(s):
    """Reference reader of HalfLaurent.__str__: every coefficient and
    exponent through Fraction."""
    s = s.strip()
    if s == "0":
        return HalfLaurent()
    terms = []
    for piece in s.replace(" - ", " +-").replace(" + ", " +").split(" +"):
        piece = piece.strip()
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        if "q^" not in piece:
            terms.append((0, sign * Fraction(piece)))
            continue
        cs, es = piece.split("*q^") if "*" in piece else ("1", piece[2:])
        terms.append((int(Fraction(es) * 2), sign * Fraction(cs)))
    return HalfLaurent(terms)


@pytest.mark.parametrize("s", [
    "q^2/4", "2/4*q^1", "q^1.5", "q^4/2", "q^-6/2", "q^-0", "007*q^02",
    "-3/6*q^-1/2 + 0.5", "-q^3/2 - 2*q^-3/2 + 1/3", "1.25*q^-2 - 4/2",
    "q^1/3", " 3*q^ 2 ", "+3*q^2", "--2*q^1", "2*q^1 - 2*q^1",
])
def test_parse_non_canonical_forms_like_fraction_reader(s):
    got = parse_half_laurent(s)
    assert got == _fraction_parse(s)
    assert hash(got) == hash(_fraction_parse(s))


@settings(max_examples=100, deadline=None)
@given(polys)
def test_parse_printed_form_like_fraction_reader(p):
    assert parse_half_laurent(str(p)) == _fraction_parse(str(p)) == p


def test_half_laurent_operands():
    p = qnum(2)
    for other in (3, Fraction(1, 2), HalfLaurent.const(3)):
        c = other if isinstance(other, HalfLaurent) else HalfLaurent.const(other)
        assert p + other == other + p == HalfLaurent({2: 1, 0: c.at_one(), -2: 1})
        assert p - other == -(other - p)
        assert p * other == other * p == HalfLaurent(
            {k: v * c.at_one() for k, v in p.items()})
    for op in ("__add__", "__sub__", "__mul__"):
        assert getattr(p, op)(1.5) is NotImplemented
        assert getattr(p, op)("q") is NotImplemented
    with pytest.raises(TypeError):
        p + 1.5

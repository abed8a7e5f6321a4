"""Exact arithmetic over Q(q^(1/2)): examples and algebraic properties."""

import math
import operator
import time
from fractions import Fraction
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import laurent, quotient_of_factors
from qwig import (
    ONE,
    ZERO,
    ConsistencyError,
    HalfLaurent,
    InvalidArgument,
    PoleAtOne,
    QFraction,
    parse_qfraction,
    qnum,
    qpow,
)
import qwig.exactq
from qwig.exactq import (
    _cyclotomic_poly,
    _dense,
    _divide,
    _factor_map,
    _max_cyclotomic_index,
    _BOUND,
    _DEXP_MAX,
    _merged_map,
    _mobius_terms,
    _pack,
    _poly_gcd,
    _prs_gcd,
    _split,
    _times_binomial,
    _unpack,
)

Q_MINUS_QINV = qpow(1) - qpow(-1)


def test_qnum_small_values():
    assert qnum(0) == laurent()
    assert qnum(1) == HalfLaurent.const(1)
    assert qnum(-1) == HalfLaurent.const(-1)
    assert qnum(2) == qpow(1) + qpow(-1)
    assert qnum(3) == qpow(2) + qpow(0) + qpow(-2)


def test_qnum_oddness():
    for x in range(0, 12):
        assert qnum(-x) == -qnum(x)


def test_qpow_monomials():
    assert qpow(0) == HalfLaurent.const(1)
    assert qpow(Fraction(1, 2)) == laurent({1: 1})
    assert qpow(-3) == laurent({-6: 1})
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
        QFraction(1, laurent())


def test_constants_hash_like_their_values():
    for c in (0, 1, 2, Fraction(1, 2)):
        x = QFraction(c)
        assert x == c and hash(x) == hash(c)
        assert len({x, c}) == 1
        # its numerator hashes like it too, though no HalfLaurent equals
        # a scalar
        assert x.num == HalfLaurent.const(c) and hash(x.num) == hash(c)
    assert len({ONE, 1}) == 1
    # a quotient with denominator 1 hashes like its numerator
    assert hash(QFraction(qpow(1))) == hash(qpow(1))
    assert str(QFraction(2)) == "2" and str(HalfLaurent.const(2)) == "2"


def test_limit_q1_examples():
    assert QFraction(qnum(3)).limit_q1() == 3
    assert QFraction(qpow(-1), qnum(2)).limit_q1() == Fraction(1, 2)
    with pytest.raises(PoleAtOne):
        QFraction(1, Q_MINUS_QINV).limit_q1()
    # a Fraction, whether the coefficients are ints or Fractions
    for x in (QFraction(qnum(3)), QFraction(qpow(-1), qnum(2)), ZERO,
              QFraction(laurent({0: Fraction(1, 3), 2: Fraction(2, 3)}),
                        qnum(2) * HalfLaurent.const(Fraction(3, 2)))):
        assert type(x.limit_q1()) is Fraction


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
polys = st.dictionaries(dexps, coeffs, max_size=4).map(laurent)
nonzero_polys = polys.filter(bool)
fractions = st.builds(QFraction, polys, nonzero_polys)
rat_polys = st.dictionaries(
    dexps, st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=4
).map(laurent)
nonzero_rat_polys = rat_polys.filter(bool)
rat_fractions = st.builds(QFraction, rat_polys, nonzero_rat_polys)


@settings(max_examples=200, deadline=None)
@given(st.one_of(polys, rat_polys))
def test_at_one_is_the_coefficient_sum(p):
    # the sum the old Fraction(0) start gave, and an int on int coefficients
    assert p.at_one() == sum((c for _, c in p.items()), Fraction(0))
    if all(type(c) is int for _, c in p.items()):
        assert type(p.at_one()) is int


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
    num, den = (laurent([(k, Fraction(c)) for k, c in obj[part]])
                for part in ("num", "den"))
    assert QFraction(num, den) == f


def _printed(p):
    """The printed form of the HalfLaurent p, term by term in increasing
    exponent: q^(k/2) as q^(k/2) with k/2 an integer or "k/2", a
    coefficient of size 1 left out of a nonconstant term, and each later
    term's sign as its separator."""
    text = ""
    for k, c in sorted(p.items()):
        body = str(abs(c))
        if k:
            e = str(k // 2) if k % 2 == 0 else "%d/2" % k
            body = "q^" + e if abs(c) == 1 else body + "*q^" + e
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def _reference_entry(x):
    """{"value": ..., "str": ...} of the QFraction x from _printed and the
    pairs [k, str(c)] of num and den: a numerator of more than one term is
    parenthesised over a denominator other than 1."""
    text = _printed(x.num)
    if x.den != HalfLaurent.const(1):
        if len(list(x.num.items())) > 1:
            text = "(%s)" % text
        text = "%s/(%s)" % (text, _printed(x.den))
    return {"value": {part: [[k, str(c)] for k, c in sorted(p.items())]
                      for part, p in (("num", x.num), ("den", x.den))},
            "str": text}


FORMATTED = [
    ZERO,
    QFraction(3),
    QFraction(Fraction(-5, 2)),
    QFraction(laurent({1: Fraction(-1, 2), -3: Fraction(5, 3), 0: 1}), qnum(2)),
    QFraction(qpow(-1), qnum(2)),
    QFraction(-qpow(Fraction(3, 2)) + qpow(-4) * HalfLaurent.const(7),
              qnum(3) * qpow(1)),
    quotient_of_factors([qnum(3) * HalfLaurent.const(Fraction(-2, 3)),
                         qpow(Fraction(-1, 2))],
                        [qnum(2), qnum(5) * qnum(5)]),
    quotient_of_factors([qnum(4)], []),
]


@pytest.mark.parametrize("x", FORMATTED, ids=[
    "zero", "int", "fraction", "fraction_coefficients", "plain",
    "plain_half_exponent", "factored_fraction_unit", "factored"])
def test_json_entry_is_one_pass_of_value_and_str(x):
    # a factored value is formatted before anything else reads it
    entry = x.json_entry()
    assert entry == {"value": x.to_json(), "str": str(x)} == _reference_entry(x)
    assert parse_qfraction(entry["str"]) == x


@settings(max_examples=150, deadline=None)
@given(st.one_of(fractions, rat_fractions))
def test_json_entry_matches_the_printing_rules(x):
    assert x.json_entry() == _reference_entry(x)
    assert str(x.num) == _printed(x.num)


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
    u = HalfLaurent.const(1) + HalfLaurent.const(2) * qpow(1)
    v = HalfLaurent.const(2) + qpow(1)
    x, y = QFraction(1, g * u), QFraction(1, g * v)
    assert _same(x + y, QFraction(3, u * v))
    assert _same(x + y, QFraction(x.num * y.den + y.num * x.den, x.den * y.den))


units = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
monomials = st.builds(lambda k, c: laurent({k: c}), dexps, units)
# the closed forms' factors: units times q-numbers, shifted
cyclotomic = st.builds(
    lambda n, k, c: qnum(n) * qpow(Fraction(k, 2)) * HalfLaurent.const(c),
    st.integers(-9, 9).filter(bool), dexps, units)
factors = st.one_of(nonzero_polys, nonzero_rat_polys, monomials, cyclotomic)
cyclotomic_factors = st.one_of(monomials, cyclotomic)


# Phi_1(q^(1/2)) = q^(1/2) - 1 and its cube
PHI1 = laurent({1: 1, 0: -1})
PHI1_CUBED = laurent({3: 1, 2: -3, 1: 3, 0: -1})


def _root_diff(x, y):
    """A root-product factor: q^-x [x] - q^-y [y] = q^(-x-y) [x - y]."""
    return qpow(-x) * qnum(x) - qpow(-y) * qnum(y)


@settings(max_examples=200, deadline=None)
@given(st.lists(cyclotomic_factors, max_size=4),
       st.lists(cyclotomic_factors, max_size=4),
       st.lists(st.tuples(cyclotomic_factors, dexps, st.integers(1, 3)),
                max_size=3))
# products of q-numbers, monomials and root differences, with negative and
# Fraction units, repeated factors, and full cancellation to 1
@example([qnum(6), -qnum(4), qpow(3)],
         [qnum(2), qnum(3), qnum(12) * HalfLaurent.const(Fraction(2, 3))], [])
@example([_root_diff(5, 1), _root_diff(2, 7) * HalfLaurent.const(-2),
          qpow(Fraction(-1, 2))],
         [_root_diff(3, -1), _root_diff(7, 1),
          _root_diff(4, 4) + HalfLaurent.const(3)], [])
@example([qnum(2), qnum(2), qnum(2)],
         [qnum(4), qnum(-2) * HalfLaurent.const(Fraction(1, 3))], [])
@example([qnum(6) * HalfLaurent.const(Fraction(-3, 2)),
          qnum(4) * qpow(Fraction(3, 2)), _root_diff(1, 4)],
         [qnum(4) * qpow(Fraction(3, 2)), _root_diff(1, 4),
          qnum(6) * HalfLaurent.const(Fraction(-3, 2))], [])
@example([qnum(5)], [], [(qnum(10), -3, 2), (_root_diff(0, 6), 1, 1)])
# factors with an odd power of Phi_1(q^(1/2)) = q^(1/2) - 1, whose sign
# flips when peeled as 1 - q^(1/2)
@example([qpow(1) - qpow(-1), laurent({0: 1, 1: -1}), qnum(3)],
         [laurent({1: 2, 0: -2}), qnum(2)], [])
# an odd power of Phi_1 left in the denominator, whose constant term -1
# the normal form makes 1
@example([qnum(3)], [PHI1], [])
@example([qnum(2) * HalfLaurent.const(Fraction(-1, 2)), qpow(1)],
         [PHI1_CUBED * HalfLaurent.const(Fraction(2, 3)), qnum(3)], [])
def test_from_maps_matches_whole_quotient(nums, dens, shared):
    # factors shared between the sides, up to a unit, and repeated ones
    nums = nums + [g for g, _, _ in shared] + [g for g, _, _ in shared[:1]]
    dens = dens + [g * qpow(Fraction(k, 2)) * HalfLaurent.const(c)
                   for g, k, c in shared]
    x = QFraction.from_merged(_merged([(nums, dens)])[0])
    one = HalfLaurent.const(1)
    y = QFraction(math.prod(nums, start=one), math.prod(dens, start=one))
    assert _same(x, y)
    assert hash(x) == hash(y)


def test_qnum_factor_map():
    # [n] = q^(1-n) (x^(4n) - 1)/(x^4 - 1) in x = q^(1/2): each Phi_d(x)
    # with d | 4n and d not dividing 4, once
    for n in range(1, 61):
        unit, shift, E, bound = _factor_map(qnum(n))
        assert (unit, shift) == (1, 2 - 2 * n)
        assert _unpack(E) == {d: 1 for d in range(1, 4 * n + 1)
                              if 4 * n % d == 0 and 4 % d}
        assert bound == (n > 1)


@pytest.mark.parametrize("f", [
    laurent({0: 1, 1: -1000}),                     # 1 - 1000 q^(1/2)
    laurent({0: 1, 2: 2}),                         # 1 + 2q
    qnum(5) * laurent({0: 3, 2: 1}),               # [5] (q + 3)
    # Lehmer's polynomial in q: its Mahler measure is the least known > 1,
    # so the peel's g(N) stay small longest
    laurent({2 * k: c for k, c in
                 {0: 1, 1: 1, 3: -1, 4: -1, 5: -1, 6: -1, 7: -1, 9: 1, 10: 1}.items()}),
    # degree 16 in q^(1/2): the peel gives up by N = 60, the largest d with
    # phi(d) <= 16, where a bound of degree squared let it run to N = 141
    parse_qfraction("q^-4 - q^5/2 - q^4").num,
])
def test_non_cyclotomic_factor_falls_back(f):
    # the peel gives up after bounded work, with a typed error
    with pytest.raises(ConsistencyError):
        _factor_map(f)


def _totient(n):
    out, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def test_peel_bound_is_largest_cyclotomic_index():
    # phi(d) >= (d / 2) ** 0.5, so no d above 2 deg^2 has phi(d) <= deg
    for deg in range(1, 41):
        want = max(d for d in range(1, 2 * deg * deg + 1) if _totient(d) <= deg)
        assert _max_cyclotomic_index(deg) == want
    assert _max_cyclotomic_index(16) == 60


def _inflated(P):
    """_cyclotomic_poly(P) as a coefficient tuple in x: its coefficients in
    y = x^m spread m apart."""
    m, p = _cyclotomic_poly(P)
    out = [0] * (m * (len(p) - 1) + 1)
    out[::m] = p
    return tuple(out)


def test_cyclotomic_products_over_divisors():
    # prod_{d | n} Phi_d(x) = x^n - 1, which is y - 1 in y = x^n
    for n in range(1, 61):
        e = {d: 1 for d in range(1, n + 1) if n % d == 0}
        assert _unpack(_pack(e)) == e
        assert _cyclotomic_poly(_pack(e)) == (n, (-1, 1))
        assert (_inflated(_pack(e)) == _full_product_cyclotomic_poly(_pack(e))
                == (-1,) + (0,) * (n - 1) + (1,))


def _full_product_cyclotomic_poly(P):
    """prod_d Phi_d(x)^e_d for the packed vector P, by full products: each
    binomial 1 - x^N of the Phi_d's Moebius products multiplied out, then
    each monic x^N - 1 divided out with _divide, exactly since every
    binomial is in by then, and the sign fixed to make the product monic.
    It is the reference for _cyclotomic_poly's cut-off power series."""
    h = {}
    for d, k in _unpack(P).items():
        for n, m in _mobius_terms(d):
            h[n] = h.get(n, 0) + m * k
    p = [1]
    for n, k in h.items():
        p = _times_binomial(p, n, k)
    for n, k in h.items():
        for _ in range(-k):
            p = _divide(p, [-1] + [0] * (n - 1) + [1])
    return tuple(p) if p[-1] > 0 else tuple(-c for c in p)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 120), st.integers(0, 4), max_size=5))
def test_cyclotomic_poly_matches_full_products(e):
    P = _pack(e)
    assert _inflated(P) == _full_product_cyclotomic_poly(P)


def test_cyclotomic_poly_fixed_cases():
    # Phi_105, the first cyclotomic polynomial with a coefficient -2
    phi = _inflated(_pack({105: 1}))
    assert -2 in phi and phi == _full_product_cyclotomic_poly(_pack({105: 1}))
    # Phi_6 = (1 - x^6)(1 - x)/((1 - x^3)(1 - x^2)) has L = 3 terms, of
    # which the first 2 are expanded: every binomial but 1 - x is skipped
    assert _cyclotomic_poly(_pack({6: 1})) == (1, (1, -1, 1))
    # Phi_1 Phi_2 = x^2 - 1 is antipalindromic, with a middle term of 0 in
    # x, and is y - 1 in y = x^2
    assert _cyclotomic_poly(_pack({1: 1, 2: 1})) == (2, (-1, 1))
    assert _inflated(_pack({1: 1, 2: 1})) == (-1, 0, 1)
    # Phi_12 = 1 - x^2 + x^4 and Phi_4 Phi_12 = 1 + x^6: strides 2 and 6
    assert _cyclotomic_poly(_pack({12: 1})) == (2, (1, -1, 1))
    assert _cyclotomic_poly(_pack({4: 1, 12: 1})) == (6, (1, 1))
    for e in ({6: 2, 1: 1}, {1: 3, 2: 1}, {5: 1, 10: 2}, {4: 2, 12: 1}):
        assert _inflated(_pack(e)) == _full_product_cyclotomic_poly(_pack(e))
    assert _cyclotomic_poly(0) == (1, (1,))
    assert _inflated(0) == _full_product_cyclotomic_poly(0) == (1,)


def _coeffs(p):
    """The coefficient list of the nonzero HalfLaurent p shifted to
    exponent 0."""
    return _dense(p._t)[1]


@settings(max_examples=150, deadline=None)
@given(nonzero_rat_polys, nonzero_rat_polys, nonzero_rat_polys)
def test_divide_inverts_products(a, g, r):
    assert _divide(_coeffs(a * g), _coeffs(g)) == _coeffs(a)
    # g divides no nonzero r of lower degree, so a g + r is inexact
    span = len(_coeffs(g)) - 1
    if span:
        r = laurent({k: c for k, c in r.items() if k - r.min_dexp() < span})
        assert _divide(_coeffs(a * g + r), _coeffs(g)) is None


# coefficients above 10^6, so that the evaluation point starts large
big_polys = st.dictionaries(
    dexps, st.integers(-10 ** 9, 10 ** 9).filter(lambda c: abs(c) > 10 ** 6),
    min_size=1, max_size=4).map(laurent)
gcd_factors = st.one_of(factors, big_polys)


def _check_gcd(x, y):
    g, qx, qy = _poly_gcd(x, y)
    # with no heuristic point, the pseudo-remainder gcd goes through the
    # same divisions and normalisation; the real _prs_gcd is patched back
    # in, so that a test recording its calls sees none of these
    with mock.patch.multiple(qwig.exactq, _HEU_POINTS=0, _prs_gcd=_prs_gcd):
        assert _poly_gcd(x, y) == (g, qx, qy)
    assert qx * g == x and qy * g == y
    return g


@settings(max_examples=200, deadline=None)
@given(gcd_factors, gcd_factors, st.lists(gcd_factors, max_size=2))
# equal inputs, a | b, coprime inputs
@example(qnum(6), qnum(6), [])
@example(qnum(3), qnum(6) * qpow(Fraction(1, 2)), [qnum(4)])
@example(laurent({0: 1, 2: 2}), qnum(5), [])
# a shared cyclotomic factor with Fraction units, and a shared factor
# with none
@example(qnum(4) * HalfLaurent.const(Fraction(-3, 2)),
         qnum(6) * HalfLaurent.const(Fraction(2, 5)), [_root_diff(2, 5)])
@example(qnum(2), qnum(3), [laurent({0: 1, 2: 2}), laurent({0: 3, 1: -1})])
# coefficients above 10^6
@example(laurent({0: 1234567, 4: -7654321}), laurent({0: 10 ** 7, 2: 1}),
         [laurent({0: -2 * 10 ** 6, 3: 3 * 10 ** 6 + 1})])
# the first point is unlucky: for q^-2 - 1 and q^-2 + 1 + q^2 it is 4, where
# gcd(A(4), B(4)) = 3 reads back as q^(1/2) - 1, which divides neither
@example(qpow(-2) - qpow(0), qpow(-2) + qpow(0) + qpow(2), [])
# the first pseudo-remainder of (1 + x + x^2) g by (1 + x^2) g, x = q^(1/2),
# is x g, whose factor x is stripped
@example(laurent({0: 1, 1: 1, 2: 1}), laurent({0: 1, 2: 1}), [qnum(3)])
def test_heuristic_gcd_matches_prs(a, b, shared):
    g = math.prod(shared, start=HalfLaurent.const(1))
    _check_gcd(a * g, b * g)


def test_unlucky_point_grows_and_prs_decides(monkeypatch):
    a, b = qpow(-2) - qpow(0), qpow(-2) + qpow(0) + qpow(2)
    calls = []

    def prs(x, y):
        calls.append((x, y))
        return _prs_gcd(x, y)

    monkeypatch.setattr(qwig.exactq, "_prs_gcd", prs)
    # a and b have stride 4 in x = q^(1/2), and 1 - x and 1 + x + x^2 are
    # the same lists at stride 1
    a1, b1 = laurent({0: 1, 1: -1}), laurent({0: 1, 1: 1, 2: 1})
    for x, y in ((a, b), (a1, b1)):
        # the second point finds the gcd 1, with no pseudo-remainders
        assert _check_gcd(x, y) == HalfLaurent.const(1) and not calls
    # with one point allowed, the pseudo-remainder loop decides, on the
    # primitive coefficient lists of a and b shifted to exponent 0 and
    # deflated by their stride
    monkeypatch.setattr(qwig.exactq, "_HEU_POINTS", 1)
    for x, y in ((a, b), (a1, b1)):
        calls.clear()
        assert _check_gcd(x, y) == HalfLaurent.const(1) and calls == [
            ([1, -1], [1, 1, 1])]
    g = qnum(2) * qnum(3)
    assert _check_gcd(a * g, b * g) == g * qpow(3)


def _spread(p, step, shift):
    """The HalfLaurent x^shift p(x^step) of a HalfLaurent p."""
    return laurent({shift + step * k: c for k, c in p.items()})


int_polys = st.dictionaries(st.integers(0, 5), st.integers(-6, 6).filter(bool),
                            min_size=1, max_size=4).map(laurent)
strides = st.integers(1, 8)


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, int_polys, strides, strides, dexps, dexps)
# a shared factor, strides 4 and 6 deflated by 2
@example(laurent({0: 1, 1: 1}), laurent({0: 1, 2: -1}), laurent({0: 1, 1: 1}),
         4, 6, 3, -5)
def test_deflated_gcd_matches_undeflated(a, b, g, sa, sb, ka, kb):
    # x^ka a(x^sa) and x^kb b(x^sb) share g(x^lcm(sa, sb)); the gcd and
    # cofactors found in y = x^m for their stride m are those found on the
    # undeflated lists, with _stride made to return 1
    shared = _spread(g, math.lcm(sa, sb), 0)
    x, y = _spread(a, sa, ka) * shared, _spread(b, sb, kb) * shared
    m = qwig.exactq._stride(x._t, y._t)
    assert m % math.gcd(sa, sb) == 0 or x.is_monomial() and y.is_monomial()
    got = _poly_gcd(x, y)
    with mock.patch.object(qwig.exactq, "_stride", lambda *maps: 1):
        assert _poly_gcd(x, y) == got
    assert got[1] * got[0] == x and got[2] * got[0] == y
    assert got[0].is_monomial() or qwig.exactq._stride(got[0]._t) % m == 0


def test_stride_is_the_gcd_of_exponent_differences():
    stride = qwig.exactq._stride
    assert stride({4: 1, 10: 2}, {-3: 1, 5: 1}) == 2
    assert stride({0: 1, 12: 1}, {7: 1}) == 12
    assert stride({3: 1}, {5: 2}) == stride({0: 1}) == 1
    assert stride({-1: 1, 0: 1}) == 1


def _reference_peel(f):
    """_factor_map(f) by the peel of f's undeflated coefficient list in
    x = q^(1/2): each g(N) is the lowest term in which the two sides of
    p = prod_N (1 - x^N)^g(N) still differ, and e_d sums g(N) over the
    multiples N of d.  Only for products of cyclotomic polynomials."""
    s, p = _dense(f._t)
    c0 = p[0]
    a, b, g = [Fraction(c, c0) for c in p], [1], {}
    while a != b:
        n, gn = next((i, y - x) for i, (x, y)
                     in enumerate(zip_longest(a, b, fillvalue=0)) if x != y)
        g[n] = int(gn)
        if gn < 0:
            a = _times_binomial(a, n, -g[n])
        else:
            b = _times_binomial(b, n, g[n])
    e = {d: sum(gn for n, gn in g.items() if n % d == 0)
         for d in range(1, max(g, default=0) + 1)}
    e = {d: k for d, k in e.items() if k}
    unit = -c0 if sum(g.values()) % 2 else c0
    return unit, s, _pack(e), max(map(abs, e.values()), default=0)


def test_factor_map_matches_undeflated_peel():
    # the peel in y = x^m finds what the peel in x finds, for every
    # q-number and root-product factor with arguments of size up to 40
    for n in range(-40, 41):
        if n:
            assert _factor_map(qnum(n)) == _reference_peel(qnum(n))
    for x in range(-40, 41):
        for y in range(-40, 41):
            if x != y:
                f = _root_diff(x, y)
                assert _factor_map(f) == _reference_peel(f)


def _peel_steps(f, m):
    """The binomial steps (N, k), N in x, of _factor_map(f) peeling in
    y = x^m, up to the ConsistencyError that it must raise."""
    steps = []

    def times(p, n, k):
        steps.append((n * m, k))
        return _times_binomial(p, n, k)

    with mock.patch.multiple(qwig.exactq, _times_binomial=times,
                             _stride=lambda *maps: m):
        with pytest.raises(ConsistencyError):
            _factor_map(f)
    return steps


@pytest.mark.parametrize("f", [
    laurent({0: 1, 1: -1000}),                     # 1 - 1000 q^(1/2)
    laurent({0: 1, 2: 2}),                         # 1 + 2q
    # Lehmer's polynomial in q, and one of degree 16 in q^(1/2)
    laurent({2 * k: c for k, c in
             {0: 1, 1: 1, 3: -1, 4: -1, 5: -1, 6: -1, 7: -1, 9: 1, 10: 1}.items()}),
    laurent({-8: 1, 5: -1, 8: -1}),
])
def test_deflated_peel_gives_up_where_the_undeflated_one_does(f):
    # the bounds stay in x: spread to strides 4 and 6, a factor that is no
    # cyclotomic product is peeled in y through the same N as in x
    for step in (1, 4, 6):
        g = _spread(f, step, -3)
        m = qwig.exactq._stride(g._t)
        assert m % step == 0
        assert _peel_steps(g, m) == _peel_steps(g, 1)


quotient_terms = st.lists(
    st.tuples(st.lists(st.one_of(cyclotomic, monomials), max_size=3),
              st.lists(cyclotomic, max_size=3)),
    max_size=4)


def _sum_by_addition(terms):
    return sum((quotient_of_factors(n, d) for n, d in terms), ZERO)


def _mapped(terms):
    """The terms with each factor replaced by its cyclotomic map."""
    return [([_factor_map(f) for f in n], [_factor_map(f) for f in d])
            for n, d in terms]


def _merged(terms):
    """The terms as merged maps, the input of sum_of_quotients."""
    return [_merged_map(*t) for t in _mapped(terms)]


@settings(max_examples=200, deadline=None)
@given(quotient_terms, st.lists(st.integers(0, 3), max_size=4))
# q^-1/[2] + q/[2] = 1: the whole common denominator divides out
@example([([qpow(-1)], [qnum(2)]), ([qpow(1)], [qnum(2)])], [])
# [2]/[2]^2 + [4]/[2]^2 = [3]/[2]: one of the two powers of each Phi_d of
# [2] divides out
@example([([qnum(2)], [qnum(2), qnum(2)]), ([qnum(4)], [qnum(2), qnum(2)])], [])
# shared Phi_d with negative and Fraction units, one term repeated negated
@example([([qnum(6) * HalfLaurent.const(Fraction(-3, 2))], [qnum(3), qnum(4)]),
          ([qpow(Fraction(1, 2)) * HalfLaurent.const(-2)],
           [qnum(2) * HalfLaurent.const(Fraction(1, 3))]),
          ([qnum(12)], [qnum(6), qnum(-4)])], [0, 2])
# a common denominator with an odd power of Phi_1, which the sum does not
# divide out
@example([([qpow(1)], [PHI1]),
          ([qnum(2)], [PHI1 * HalfLaurent.const(Fraction(1, 3))])], [])
@example([([qnum(3)], [PHI1_CUBED * HalfLaurent.const(Fraction(-2, 5))]),
          ([qpow(-1)], [PHI1, qnum(2)])], [])
def test_sum_of_quotients_matches_sum(terms, negated):
    # each drawn index repeats one term negated, so that sums cancel in part
    terms = terms + [([HalfLaurent.const(-1)] + terms[i][0], terms[i][1])
                     for i in negated if i < len(terms)]
    x = QFraction.sum_of_quotients(_merged(terms))
    y = _sum_by_addition(terms)
    assert _same(x, y)
    assert hash(x) == hash(y)
    # and the whole sum cancels against its negation
    minus = [([HalfLaurent.const(-1)] + n, d) for n, d in terms]
    assert _same(QFraction.sum_of_quotients(_merged(terms + minus)), ZERO)


def test_sum_of_quotients_edge_cases():
    p = qnum(3)
    assert _same(QFraction.sum_of_quotients([]), ZERO)
    terms = [([p], [qnum(2)])]
    assert _same(QFraction.sum_of_quotients(iter(_merged(terms))),
                 quotient_of_factors([p], [qnum(2)]))
    # a term and its negation: the sum stops at zero
    terms += [([p, qpow(1), -qpow(-1)], [qnum(2)])]
    assert _same(QFraction.sum_of_quotients(_merged(terms)), ZERO)


def test_from_maps_matches_from_factors():
    # units other than 1 on both sides, a monomial map, and full
    # cancellation; the reference is the quotient of the factors' products
    nums = [qnum(6) * HalfLaurent.const(Fraction(-3, 2)), qpow(Fraction(5, 2)),
            qnum(4)]
    dens = [qnum(3) * HalfLaurent.const(Fraction(2, 5)), qnum(2),
            qpow(-1) * HalfLaurent.const(-2)]
    x = QFraction.from_merged(_merged([(nums, dens)])[0])
    one = HalfLaurent.const(1)
    assert _same(x, QFraction(math.prod(nums, start=one),
                              math.prod(dens, start=one)))
    assert _same(QFraction.from_merged(_merged([(dens, dens)])[0]), ONE)
    assert _same(QFraction.from_merged(_merged_map([], [])), ONE)


def _expanded(x):
    """Whether x has built its num and den: a factored value's slots are
    unset until then, and plain attribute lookup does not fill them."""
    try:
        object.__getattribute__(x, "num")
    except AttributeError:
        return False
    return True


def _agree(a, b, want):
    """== and != give want in both operand orders."""
    assert (a == b) is want and (b == a) is want
    assert (a != b) is (not want) and (b != a) is (not want)


@settings(max_examples=200, deadline=None)
@given(st.lists(cyclotomic_factors, max_size=4),
       st.lists(cyclotomic_factors, max_size=4),
       st.lists(cyclotomic_factors, max_size=4),
       st.lists(cyclotomic_factors, max_size=4),
       cyclotomic_factors)
@example([qnum(6)], [qnum(3)], [qnum(2) * qnum(6)], [qnum(2), qnum(3)], qnum(4))
@example([qnum(2), qpow(-1)], [], [], [], qnum(3))  # q^-1 [2] = q^-2 + 1
@example([], [], [qpow(Fraction(1, 2)) * HalfLaurent.const(3)], [], qnum(-5))  # 1 and 3 q^(1/2)
def test_factored_values_compare_like_expanded_ones(n1, d1, n2, d2, g):
    # x and y are factored (from_merged); z is x's factors reordered with g
    # on both sides, so z == x.  Two factored values are equal exactly when
    # their expanded normal forms are, and compare with nothing expanded;
    # against plain values, ZERO, ONE and ints == and != agree in both
    # orders, and each factored value hashes like its eager construction
    one = HalfLaurent.const(1)

    def both(nums, dens):
        factored = QFraction.from_merged(_merged([(nums, dens)])[0])
        eager = QFraction(math.prod(nums, start=one), math.prod(dens, start=one))
        return factored, eager

    x, ex = both(n1, d1)
    y, ey = both(n2, d2)
    z, ez = both(n1[::-1] + [g], d1 + [g])
    assert type(x) is not QFraction and isinstance(x, QFraction)
    _agree(x, y, _same(ex, ey))
    _agree(x, z, True)
    assert not any(map(_expanded, (x, y, z)))
    for v in (ex, ey, ZERO, ONE, 0, 1, 3):
        want = _same(ex, QFraction(v) if isinstance(v, int) else v)
        _agree(both(n1, d1)[0], v, want)
        _agree(x, v, want)
    assert _expanded(x) and _same(x, ex) and _same(z, ex)
    fresh = both(n1, d1)[0]
    assert hash(fresh) == hash(ex) and bool(fresh) and len({fresh, ex}) == 1


def test_packed_exponents_stay_in_their_slots(monkeypatch):
    # balanced 16-bit digits round-trip up to 2^15 - 1 in size, and _split
    # parts them by sign
    e = {1: 2 ** 15 - 1, 2: -(2 ** 15 - 1), 3: -1, 5: 1, 9: -7}
    E = _pack(e)
    assert _unpack(E) == e
    assert _split(E) == (_pack({d: k for d, k in e.items() if k > 0}),
                         _pack({d: -k for d, k in e.items() if k < 0}))
    assert _split(0) == (0, 0) and _unpack(0) == {}
    # a merge may reach _BOUND, and the difference of two maps within it,
    # the most a sum forms, still unpacks exactly
    two = _factor_map(qnum(2))
    assert two[3] == 1
    top = _merged_map([two] * _BOUND, [])
    low = _merged_map([], [two] * _BOUND)
    assert top[3] == low[3] == _BOUND
    assert _unpack(top[2] - low[2]) == {
        d: 2 * _BOUND for d in _unpack(two[2])}
    # past the bound a slot could overflow into the next: a typed error,
    # never a wrong key
    with pytest.raises(ConsistencyError):
        _merged_map([two] * _BOUND, [two])
    with pytest.raises(ConsistencyError):
        QFraction.from_merged(_merged_map([top], [low]))
    # and a factor is checked when it is packed
    monkeypatch.setattr(qwig.exactq, "_BOUND", 1)
    assert _factor_map(qnum(3))[3] == 1
    with pytest.raises(ConsistencyError):
        _factor_map(qnum(3) * qnum(3))


def _fraction_parse(s):
    """Reference reader of HalfLaurent.__str__: every coefficient and
    exponent through Fraction."""
    s = s.strip()
    if s == "0":
        return laurent()
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
    return laurent(terms)


# text that str never prints, each of which must raise InvalidArgument
NOT_PRINTED = [
    # once read with no error, as q^-1, 0, 1, 10, 1, q^10 and 1000
    "1/(q^1 + 1", "", "1 +", "1_0", "\u0661", "q^1_0", "1e3",
    # a quotient with denominator 1, a repeated exponent, a written unit
    # coefficient, leading zeros, a zero coefficient, a falling exponent,
    # a parenthesised single-term numerator
    "2/(2)", "q^2 + q^2", "1*q^2", "007", "0*q^2", "q^2 + 1",
    "(1)/(1 + q^2)",
    # a non-ASCII digit after an ASCII one, a coefficient over 1, a value
    # in parentheses with no quotient; quotients not in lowest terms, or
    # whose denominator does not start with the constant 1
    "1\u0661", "2/1", "(2)", "(1 + q^2)/(1 + q^2)", "0/(1 + q^2)",
    "1/(2 + 2*q^2)", "1/(q^2 + q^4)", "1/(-1 + q^2)",
]


@pytest.mark.parametrize("s", NOT_PRINTED)
def test_parse_refuses_text_str_does_not_print(s):
    with pytest.raises(InvalidArgument):
        parse_qfraction(s)


@pytest.mark.parametrize("s", [
    "q^2/4", "2/4*q^1", "q^1.5", "q^4/2", "q^-6/2", "q^-0", "007*q^02",
    "-3/6*q^-1/2 + 0.5", "-q^3/2 - 2*q^-3/2 + 1/3", "1.25*q^-2 - 4/2",
    " 3*q^ 2 ", "+3*q^2", "--2*q^1", "2*q^1 - 2*q^1",
])
def test_parse_non_canonical_forms_like_fraction_reader(s):
    # text that the Fraction reference reads, and once the reader too, but
    # that str never prints: now refused like the rest of NOT_PRINTED
    _fraction_parse(s)
    with pytest.raises(InvalidArgument):
        parse_qfraction(s)


@pytest.mark.parametrize("s", ["q^1/3", "q^3/4", "2*q^-1/6 + 1"])
def test_parse_rejects_exponents_off_the_half_integers(s):
    with pytest.raises(InvalidArgument):
        parse_qfraction(s)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_parse_printed_form_like_fraction_reader(p):
    x = parse_qfraction(str(p))
    assert x.num == _fraction_parse(str(p)) == p
    assert x.den == HalfLaurent.const(1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(fractions, rat_fractions))
def test_parse_reads_back_exactly_what_str_prints(x):
    y = parse_qfraction(str(x))
    assert str(y) == str(x) and y == x and hash(y) == hash(x)


@settings(max_examples=400, deadline=None)
@given(st.one_of(fractions, rat_fractions), st.data())
def test_one_character_edits_are_refused_or_read_exactly(x, data):
    # delete, replace or insert one character of a printed value: the
    # reader refuses the text or returns the value that prints it
    s = str(x)
    i = data.draw(st.integers(0, len(s)))
    cut = data.draw(st.integers(0, 1))
    c = data.draw(st.sampled_from(["", *"0123456789 +-*/^q()._e\t\u0661"]))
    edited = s[:i] + c + s[i + cut:]
    try:
        y = parse_qfraction(edited)
    except InvalidArgument:
        return
    assert str(y) == edited.strip()


factored_values = st.builds(quotient_of_factors,
                            st.lists(cyclotomic_factors, max_size=3),
                            st.lists(cyclotomic_factors, max_size=3))
PRINTERS = {"str": str, "to_json": QFraction.to_json,
            "json_entry": QFraction.json_entry}


@settings(max_examples=150, deadline=None)
@given(st.one_of(fractions, rat_fractions, factored_values),
       st.sampled_from(sorted(PRINTERS)))
def test_printed_form_is_kept_and_matches_a_fresh_copy(x, first):
    # a plain or factored value prints nothing until asked, and a parsed
    # one keeps the form it was checked against; whichever of str, to_json
    # and json_entry comes first, it and every later call give what a
    # freshly normalised copy prints, and the parts are kept, not rebuilt
    assert x._printed is None
    parsed = parse_qfraction(str(QFraction(x.num, x.den)))
    assert parsed == x and hash(parsed) == hash(x)
    assert parsed._printed is not None
    for v in (x, parsed):
        want = QFraction(v.num, v.den).json_entry()
        shown = {"str": want["str"], "to_json": want["value"], "json_entry": want}
        assert PRINTERS[first](v) == shown[first]
        for _ in range(2):
            assert v.json_entry() == want
            assert v.to_json() == want["value"] and str(v) == want["str"]
        assert v.to_json() is v.json_entry()["value"]


# the alphabet of printed values, and any text; 16 characters allow no
# quotient of two sides of two terms each with an exponent beyond 3 digits,
# whose normalisation would build dense lists of that exponent's size
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789 q^+-*/()", max_size=16),
                 st.text(max_size=16)))
@example("9" * 4301)
@example("q^-" + "1" * 4301)
@example("(1 + q^2)/(1 + " + "2" * 4301 + "*q^4)")
@example("1/(" + "0)")
@example("(1 + q)/(1 - q^3/2)")
def test_any_text_is_read_exactly_or_refused(s):
    try:
        x = parse_qfraction(s)
    except InvalidArgument:
        return
    assert str(x) == s.strip()


def test_reader_refuses_exponents_past_its_bound():
    # normalising a quotient builds dense lists as long as its exponent
    # span, so a doubled exponent past _DEXP_MAX is refused before any is
    # built.  The texts past it span at most 2^17: were the check missing,
    # they would be read slowly, not allocate gigabytes
    half = _DEXP_MAX // 2
    for text in ("(1 + q^1/2)/(1 + q^%d)" % half, "q^-%d" % half,
                 "2*q^%d/2" % (_DEXP_MAX - 1)):
        assert str(parse_qfraction(text)) == text
    for text in ("(1 + q^1/2)/(1 + q^%d/2)" % (_DEXP_MAX + 1),
                 "q^-%d/2" % (_DEXP_MAX + 1), "q^%d" % (half + 1),
                 "(1 + q^1/2)/(1 + q^%d)" % (1 << 16)):
        start = time.perf_counter()
        with pytest.raises(InvalidArgument, match="exponent past %d" % half):
            parse_qfraction(text)
        assert time.perf_counter() - start < 0.01


def test_half_laurent_operands():
    # HalfLaurent's operators take HalfLaurent operands only: a scalar
    # enters through HalfLaurent.const or QFraction, which coerces it
    p, three = qnum(2), HalfLaurent.const(3)
    assert p + three == three + p == laurent({2: 1, 0: 3, -2: 1})
    assert p - three == -(three - p) == laurent({2: 1, 0: -3, -2: 1})
    assert p * three == three * p == laurent({2: 3, -2: 3})
    for other in (1, 3, Fraction(1, 2), 1.5, "q"):
        for op in ("__add__", "__sub__", "__mul__", "__eq__"):
            assert getattr(p, op)(other) is NotImplemented
        for f in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                f(p, other)
            with pytest.raises(TypeError):
                f(other, p)
        assert p != other
    with pytest.raises(TypeError):
        qpow(1) + 1
    with pytest.raises(TypeError):
        2 * qnum(2)
    with pytest.raises(TypeError):
        qpow(1) - 1
    # a constant is no scalar, but hashes like one, as QFraction(3) == 3
    # hashes through its numerator
    assert three != 3 and hash(three) == hash(3) == hash(QFraction(3))
    x = QFraction(p, qnum(3))
    for other in (3, Fraction(1, 2)):
        c = QFraction(other)
        assert x + other == other + x == x + c
        assert x - other == x - c
        assert x * other == other * x == x * c
        assert x / other == x / c
        assert x != other and QFraction(other) == other
        # QFraction has no reflected - or /: no caller outside the tests
        # used them
        with pytest.raises(TypeError):
            other - x
        with pytest.raises(TypeError):
            other / x

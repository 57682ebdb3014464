"""Exact dyadic arithmetic, series, bisection inversion, and the
squared-distance comparisons."""

import sys
import time
from itertools import product
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import opens_reference as ref
from fintopo.errors import (BracketViolation, CapExceeded, EmptyArgument, IndexOutOfRange,
                            InputError, LengthMismatch, NonDyadicClosedForm, NonDyadicLiteral)
from fintopo.numeric import (BISECTION_CAP, HORNER_BITS_CAP, ONE, ZERO, Dyadic, DyadicPoly,
                             _bisection_start, _horner_bits, bisection_invert,
                             decimal_digits, decimal_fraction, decimal_int,
                             cauchy_schwarz_check, dot, finite_series,
                             geometric_limit, geometric_partial_sum,
                             metric_compare, mth_root)

dyadics = st.builds(Dyadic, st.integers(-1000, 1000), st.integers(-12, 12))


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(12, 3)
        assert (d.m, d.e) == (3, 5)
        assert (Dyadic(0, 7).m, Dyadic(0, 7).e) == (0, 0)

    def test_parse_forms(self):
        assert Dyadic.parse('11*2^-3') == Dyadic(11, -3)
        assert Dyadic.parse('2^-4') == Dyadic(1, -4)
        assert Dyadic.parse('-2^3') == Dyadic(-1, 3)
        assert Dyadic.parse('3/8') == Dyadic(3, -3)
        assert Dyadic.parse('1.375') == Dyadic(11, -3)
        assert Dyadic.parse('5') == Dyadic(5)

    def test_parse_non_dyadic(self):
        with pytest.raises(NonDyadicLiteral):
            Dyadic.parse('1/3')

    @pytest.mark.parametrize('text', ['1/0', '0/0', '-3/00'])
    def test_parse_zero_denominator(self, text):
        # was ZeroDivisionError, which the CLI does not read as bad input
        with pytest.raises(ValueError, match='zero denominator'):
            Dyadic.parse(text)

    @pytest.mark.parametrize('text', ['1/-2', ' 3 / 8', '3/ 8', '3/+8', '1*2^3*2^4'])
    def test_parse_refuses_what_fraction_refuses(self, text):
        # the p/q branch split the text itself, and read '1/-2' as -1/2;
        # two '*2^' were a ValueError from unpacking
        if '*' not in text:
            with pytest.raises(ValueError):
                Fraction(text)
        with pytest.raises(InputError):
            Dyadic.parse(text)

    @pytest.mark.parametrize('args', [(2.5,), (1, 0.9), ('7', '-1'), (Fraction(3),), (1.0,),
                                      (1, 0.5)])
    def test_a_non_integer_part_is_refused(self, args):
        # int() once read these as Dyadic(2, 0), Dyadic(1, 0), Dyadic(7, -1)
        # and Dyadic(3, 0); an integral float is refused too
        with pytest.raises(TypeError):
            Dyadic(*args)

    def test_str_round_trip(self):
        d = Dyadic(11, -3)
        assert str(d) == '11*2^-3'
        assert Dyadic.parse(str(d)) == d

    def test_str_past_the_int_digit_limit(self):
        # 5^20000 has 13,980 digits, past the 4,300 that str(int) allows
        m = -5 ** 20000
        assert str(Dyadic(m, -7)) == '%s*2^-7' % Decimal(m)
        assert repr(Dyadic(m, -7)) == 'Dyadic(%s, -7)' % Decimal(m)

    def test_parse_past_the_int_digit_limit(self):
        m = -5 ** 20000
        assert Dyadic.parse(str(Dyadic(m, -7))) == Dyadic(m, -7)
        assert Dyadic.parse('%s/%s' % (Decimal(m), Decimal(2 ** 9))) == Dyadic(m, -9)
        # 2^-5000 has 5,000 decimal places
        assert Dyadic.parse('0.%s' % str(Decimal(5 ** 5000)).zfill(5000)) == Dyadic(1, -5000)
        with pytest.raises(NonDyadicLiteral):
            Dyadic.parse('0.%s1' % ('0' * 4999))

    @given(dyadics, dyadics)
    @settings(max_examples=200)
    def test_arithmetic_matches_fractions(self, a, b):
        fa, fb = ref.to_fraction(a), ref.to_fraction(b)
        assert ref.to_fraction(a + b) == fa + fb
        assert ref.to_fraction(a - b) == fa - fb
        assert ref.to_fraction(a * b) == fa * fb
        assert ref.to_fraction(abs(a)) == abs(fa)
        # a and b often share sign and bit position, where the order is
        # that of the mantissas on a common exponent
        assert [a < b, a <= b, a > b, a >= b, a == b] == [fa < fb, fa <= fb, fa > fb,
                                                          fa >= fb, fa == fb]
        assert [a < 3, a > -3, a == int(fa)] == [fa < 3, fa > -3, fa == int(fa)]

    def test_order_of_far_numbers_builds_no_long_int(self):
        # each pair is settled by sign or bit position, or shifted by one
        # bit; bringing them to a common exponent took 12.5 MB each
        big, tiny = Dyadic(3, 10 ** 8), Dyadic(-5, -10 ** 8)
        tracemalloc.start()
        try:
            assert big > ONE and tiny < ZERO < big and tiny < Dyadic(-1, -10 ** 8)
            assert Dyadic(5, 10 ** 8 - 1) < big and not big < big and -big < tiny
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(dyadics, dyadics)
    @settings(max_examples=100)
    def test_half_sum_is_exact_midpoint(self, a, b):
        assert ref.to_fraction(a.half_sum(b)) == (ref.to_fraction(a) + ref.to_fraction(b)) / 2

    @given(dyadics, st.integers(0, 6))
    @settings(max_examples=100)
    def test_power(self, a, k):
        assert ref.to_fraction(a ** k) == ref.to_fraction(a) ** k

    @given(dyadics)
    @settings(max_examples=50)
    def test_power_is_repeated_multiplication(self, a):
        p = ONE
        for k in range(41):
            assert ((a ** k).m, (a ** k).e) == (p.m, p.e), k
            p = p * a

    def test_from_fraction_rejects_non_dyadic(self):
        with pytest.raises(NonDyadicLiteral):
            Dyadic.from_fraction(Fraction(1, 3))

    def test_hash_agrees_with_int_equality(self):
        assert Dyadic(2) == 2 and hash(Dyadic(2)) == hash(2)
        assert len({Dyadic(2), 2}) == 1
        assert hash(Dyadic(-1)) == hash(-1)
        assert hash(Dyadic(3, 70)) == hash(3 << 70)

    @given(dyadics)
    @settings(max_examples=200)
    def test_hash_matches_the_equal_number(self, a):
        assert hash(a) == hash(ref.to_fraction(a))

    def test_hash_of_huge_exponent_is_immediate(self):
        # 2^(10^12) has 10^12 bits; the hash must not build it
        assert hash(Dyadic(1, 10 ** 12)) == pow(2, 10 ** 12, sys.hash_info.modulus)

    def test_negative_power_is_a_typed_error(self):
        with pytest.raises(IndexOutOfRange):
            Dyadic(3) ** -2
        with pytest.raises(TypeError):
            Dyadic(3) ** 0.5

    def test_normalizing_a_long_power_of_two_is_immediate(self):
        # stripping 200,000 factors of 2 one division at a time took seconds
        d = Dyadic(2 ** 200000)
        assert (d.m, d.e) == (1, 200000)
        d = Dyadic(-(3 << 100000), -7)
        assert (d.m, d.e) == (-3, 99993)


def traced_outcome(invert, *args):
    """The result of a bisection as (m, e) with its trace, or the error
    raised: its type, with the message of an IndexOutOfRange."""
    trace = []
    try:
        r = invert(*args, trace)
    except (BracketViolation, CapExceeded, IndexOutOfRange) as exc:
        return type(exc), str(exc) if type(exc) is IndexOutOfRange else None
    return (r.m, r.e), [tuple((v.m, v.e) for v in t) for t in trace]


class TestCheckedArguments:
    """Dyadic(m, e) reads a plain int as it is and anything else through
    operator.index; the bisection and mth_root read a Dyadic as it is and
    anything else through the checked constructor.  Both paths give the
    same values and the same errors."""

    def test_a_bool_is_its_int(self):
        d = Dyadic(True, True)
        assert (d.m, d.e) == (1, 1) and type(d.m) is type(d.e) is int
        assert Dyadic(True) == Dyadic(1) and Dyadic(False) == ZERO

    def test_an_int_subclass_and_an_index_object_are_read_through_index(self):
        class Sub(int):
            pass

        class Twelve:
            def __index__(self):
                return 12

        for d in (Dyadic(Sub(12), Sub(-1)), Dyadic(Twelve(), -1), Dyadic(12, Sub(-1))):
            assert (d.m, d.e) == (3, 1) and type(d.m) is type(d.e) is int

    def test_int_and_mixed_coefficients(self):
        want = DyadicPoly([Dyadic(1), Dyadic(1, -1), Dyadic(4)])
        for coeffs in ([True, Dyadic(1, -1), 4], (c for c in [1, Dyadic(1, -1), Dyadic(4)])):
            p = DyadicPoly(coeffs)
            assert all(type(c) is Dyadic for c in p.coeffs)
            assert (p.coeffs, p.ints, p.exp) == (want.coeffs, want.ints, want.exp) \
                == ((ONE, Dyadic(1, -1), Dyadic(4)), (2, 1, 8), -1)
        p = DyadicPoly([])
        assert (p.coeffs, p.ints, p.exp) == ((), (), 0)

    def test_bisection_with_int_arguments(self):
        # x^3 + 2x + 1, increasing: hits, inner results, brackets missed
        # at both ends, a >= b and tol <= 0
        p = DyadicPoly([1, 2, 0, 1])
        seen = set()
        for args in product((-1, 0, 2), (-1, 0, 2), (-2, 1, 4, 13, 20), (-1, 0, 1, 2)):
            want = traced_outcome(ref.bisection_invert, p, *map(Dyadic, args))
            # every argument an int, or one of them
            for ints in [range(4)] + [[i] for i in range(4)]:
                mixed = [v if i in ints else Dyadic(v) for i, v in enumerate(args)]
                assert traced_outcome(bisection_invert, p, *mixed) == want, mixed
            seen.add(want[0] if isinstance(want[0], type) else 'result')
        assert seen == {IndexOutOfRange, BracketViolation, 'result'}

    def test_errors_in_order_with_int_arguments(self):
        # a >= b before tol <= 0 before the bit budget: p's constant
        # coefficient 2^40000 passes the budget on [0, 1]
        p = DyadicPoly([Dyadic(1, 40000), 1])
        for a, b, tol, error in [(1, 0, 0, 'need a < b'), (0, 1, 0, 'need tol > 0'),
                                 (0, 1, 1, CapExceeded)]:
            for start in (_bisection_start, ref.bisection_start):
                if isinstance(error, str):
                    with pytest.raises(IndexOutOfRange, match=error):
                        start(p, a, b, 0, tol)
                else:
                    with pytest.raises(error):
                        start(p, a, b, 0, tol)
            with pytest.raises(IndexOutOfRange if isinstance(error, str) else error):
                bisection_invert(p, a, b, 0, tol)

    @pytest.mark.parametrize('m', [1, 2, 3])
    def test_mth_root_with_int_arguments(self, m):
        poly = DyadicPoly([ZERO] * m + [ONE])
        for a, tol in product(range(10), (-1, 0, 1, 2)):
            got = outcome(mth_root, a, m, tol)
            assert got == outcome(mth_root, Dyadic(a), m, Dyadic(tol))
            want = outcome(ref.bisection_invert, poly, ZERO, Dyadic(max(a, 1)), Dyadic(a),
                           Dyadic(tol))
            assert got == want, (a, m, tol)


class TestSeries:
    def test_finite_series_sum(self):
        xs = [Dyadic(k) for k in range(1, 6)]
        assert finite_series(xs, 1, 5) == Dyadic(15)
        assert finite_series(xs, 2, 4) == Dyadic(9)
        assert finite_series(xs, 3, 3) == Dyadic(3)

    def test_index_errors(self):
        xs = [ONE, ONE]
        with pytest.raises(IndexOutOfRange):
            finite_series(xs, 0, 1)
        with pytest.raises(IndexOutOfRange):
            finite_series(xs, 2, 1)
        with pytest.raises(IndexOutOfRange):
            finite_series(xs, 1, 3)

    @given(st.lists(dyadics, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_linearity_against_fractions(self, xs):
        total = finite_series(xs, 1, len(xs))
        assert ref.to_fraction(total) == sum(ref.to_fraction(x) for x in xs)

    @pytest.mark.parametrize('top', ['2^1000000', '2^10000000', '-3*2^40000'])
    def test_a_long_sum_fails_before_the_first_add(self, top):
        # 2^1000000 + 1 took 1.55 s and printed 301k digits; 2^10000000
        # + 1 did not finish
        xs = [Dyadic.parse(top), ONE]
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match=r'xs\[1\.\.2\] spans at least \d+ bits; '
                                              r'capped at 32768 bits'):
            finite_series(xs, 1, 2)
        assert time.perf_counter() - t0 < 0.1
        assert finite_series(xs, 1, 1) == xs[0]

    def test_a_sum_at_the_bit_budget_answers(self):
        # 2^32767 + 1 is 32768 bits long on the exponent 0, and so is the
        # span of 2^-1 and 2^32766; one more bit is refused
        at_cap = [[Dyadic(1, HORNER_BITS_CAP - 1), ONE], [Dyadic(1, -1), ZERO,
                                                          Dyadic(-1, HORNER_BITS_CAP - 2)]]
        for xs in at_cap:
            total = finite_series(xs, 1, len(xs))
            assert ref.to_fraction(total) == sum(ref.to_fraction(x) for x in xs)
        for xs in ([Dyadic(1, HORNER_BITS_CAP), ONE], [Dyadic(3, -2), Dyadic(1, HORNER_BITS_CAP - 2)]):
            with pytest.raises(CapExceeded, match='at least %d bits' % (HORNER_BITS_CAP + 1)):
                finite_series(xs, 1, 2)

    def test_geometric_partial_sums(self):
        half = Dyadic(1, -1)
        # 1 + 1/2 + ... + 1/1024 = 2047/1024
        assert geometric_partial_sum(half, 10) == Dyadic(2047, -10)
        assert geometric_partial_sum(ONE, 4) == Dyadic(5)
        assert geometric_partial_sum(Dyadic(2), 3) == Dyadic(15)

    def test_geometric_partial_sum_matches_closed_form(self):
        # x = k/8 for k = -16..16 except x = 1, and m = 0..12
        for k in range(-16, 17):
            if k == 8:
                continue
            x = Dyadic(k, -3)
            fx = Fraction(k, 8)
            for m in range(13):
                closed = (1 - fx ** (m + 1)) / (1 - fx)
                assert ref.to_fraction(geometric_partial_sum(x, m)) == closed, (k, m)

    def test_geometric_partial_sum_cap(self):
        # 3/4 adds about 2 + 2 bits a term: 8,192 terms are within
        # HORNER_BITS_CAP, one more is not, and 10^7 fail before a term
        x = Dyadic(3, -2)
        s = geometric_partial_sum(x, HORNER_BITS_CAP // 4)
        assert ref.to_fraction(s) == 4 * (1 - Fraction(3, 4) ** (HORNER_BITS_CAP // 4 + 1))
        with pytest.raises(CapExceeded):
            geometric_partial_sum(x, HORNER_BITS_CAP // 4 + 1)
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded):
            geometric_partial_sum(x, 10 ** 7)
        assert time.perf_counter() - t0 < 0.1
        assert geometric_partial_sum(ONE, HORNER_BITS_CAP) == Dyadic(HORNER_BITS_CAP + 1)
        assert geometric_partial_sum(x, -5) == ONE

    def test_geometric_partial_sum_of_zero(self):
        # every term past the first is 0, and no bit count passes the cap
        assert geometric_partial_sum(ZERO, 0) == ONE
        assert geometric_partial_sum(ZERO, 3) == ONE
        t0 = time.perf_counter()
        assert geometric_partial_sum(ZERO, 10 ** 12) == ONE
        assert time.perf_counter() - t0 < 0.01

    def test_geometric_limit_dyadic(self):
        assert geometric_limit(Dyadic(1, -1)) == Dyadic(2)

    def test_geometric_limit_non_dyadic(self):
        with pytest.raises(NonDyadicClosedForm) as exc:
            geometric_limit(Dyadic(1, -2))  # 1 / (1 - 1/4) = 4/3
        assert (exc.value.numerator, exc.value.denominator) == (4, 3)

    def test_geometric_limit_long_pair(self):
        # 1 / (1 - 2^-20000) = 2^20000 / (2^20000 - 1), each past the
        # 4300 digits that int-to-str conversion allows
        with pytest.raises(NonDyadicClosedForm) as exc:
            geometric_limit(Dyadic(1, -20000))
        num, den = 1 << 20000, (1 << 20000) - 1
        assert (exc.value.numerator, exc.value.denominator) == (num, den)
        assert str(exc.value) == ("closed form %s/%s is not a dyadic rational"
                                  % (decimal_digits(num), decimal_digits(den)))

    @pytest.mark.parametrize('e', [-(HORNER_BITS_CAP + 1), -10 ** 6, -40273750])
    def test_geometric_limit_pair_past_the_cap(self, e):
        # the numerator 2^-e is 1 - e bits long; refused before it is
        # built, in well under a second even for e = -40273750
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match=r'at least %d bits; capped at' % (1 - e)):
            geometric_limit(Dyadic(1, e))
        assert time.perf_counter() - t0 < 0.5

    def test_geometric_limit_at_the_cap(self):
        # a numerator of exactly HORNER_BITS_CAP bits is still given
        with pytest.raises(NonDyadicClosedForm) as exc:
            geometric_limit(Dyadic(1, 1 - HORNER_BITS_CAP))
        assert exc.value.numerator == 1 << HORNER_BITS_CAP - 1

    def test_geometric_limit_far_but_dyadic(self):
        # 1 - x = 2^-40000: the limit 2^40000 is dyadic, whatever its size
        x = ONE - Dyadic(1, -40000)
        assert geometric_limit(x) == Dyadic(1, 40000)
        assert geometric_limit(ZERO) == ONE

    def test_geometric_limit_domain(self):
        with pytest.raises(IndexOutOfRange):
            geometric_limit(ONE)

    def test_partial_sums_approach_limit(self):
        half = Dyadic(1, -1)
        lim = geometric_limit(half)
        for m in range(1, 12):
            gap = lim - geometric_partial_sum(half, m)
            assert ZERO < gap
            assert gap == Dyadic(1, -m)


class TestBisection:
    def test_exact_hit_returns_the_preimage(self):
        p = DyadicPoly([ZERO, ONE])  # identity
        assert bisection_invert(p, ZERO, ONE, Dyadic(3, -3), Dyadic(1, -10)) == Dyadic(3, -3)

    def test_endpoint_hits(self):
        p = DyadicPoly([ZERO, ONE])
        assert bisection_invert(p, ZERO, ONE, ZERO, Dyadic(1, -4)) == ZERO
        assert bisection_invert(p, ZERO, ONE, ONE, Dyadic(1, -4)) == ONE

    def test_result_near_true_preimage(self):
        p = DyadicPoly([ZERO, ZERO, ONE])  # x^2
        tol = Dyadic(1, -10)
        r = bisection_invert(p, ZERO, Dyadic(2), Dyadic(2), tol)
        assert p(r) <= Dyadic(2) <= p(r + tol)

    def test_width_law_via_trace(self):
        p = DyadicPoly([ZERO, ZERO, ONE])
        trace = []
        bisection_invert(p, ZERO, Dyadic(2), Dyadic(2), Dyadic(1, -8), trace)
        for i, (x, y, px, py) in enumerate(trace):
            assert y - x == Dyadic(2, -(i + 1))
            assert min(px, py) <= Dyadic(2) <= max(px, py)

    def test_initial_bracket_violation(self):
        p = DyadicPoly([ZERO, ONE])
        with pytest.raises(BracketViolation) as exc:
            bisection_invert(p, ZERO, ONE, Dyadic(2), Dyadic(1, -4))
        assert exc.value.step == 0

    def test_non_monotone_detected(self):
        # p(x) = 4x(1 - x) peaks at 1 in the middle but vanishes at both
        # endpoints, so the value 1/2 is attained inside yet never
        # bracketed: the violation surfaces immediately
        p = DyadicPoly([ZERO, Dyadic(4), Dyadic(-4)])
        with pytest.raises(BracketViolation) as exc:
            bisection_invert(p, ZERO, ONE, Dyadic(1, -1), Dyadic(1, -12))
        assert exc.value.step == 0

    def test_non_monotone_but_bracketed_still_converges(self):
        # when the endpoints do bracket w, bisection follows whichever
        # half keeps the bracket and lands near some preimage
        p = DyadicPoly([ZERO, Dyadic(4), Dyadic(-4)])
        tol = Dyadic(1, -12)
        r = bisection_invert(p, Dyadic(1, -3), Dyadic(3, -2), Dyadic(1, -1), tol)
        assert min(p(r), p(r + tol)) <= Dyadic(1, -1) <= max(p(r), p(r + tol))

    def test_bad_interval_and_tolerance(self):
        p = DyadicPoly([ZERO, ONE])
        with pytest.raises(IndexOutOfRange):
            bisection_invert(p, ONE, ZERO, ZERO, ONE)
        with pytest.raises(IndexOutOfRange):
            bisection_invert(p, ZERO, ONE, ZERO, ZERO)

    def test_decreasing_polynomial(self):
        p = DyadicPoly([ONE, Dyadic(-1)])  # 1 - x
        r = bisection_invert(p, ZERO, ONE, Dyadic(1, -2), Dyadic(1, -10))
        assert r == Dyadic(3, -2)


coefficients = st.builds(Dyadic, st.integers(-32, 32), st.integers(-3, 3))


class TestPolynomial:
    @given(st.lists(coefficients, max_size=5), st.builds(Dyadic, st.integers(-64, 64),
                                                         st.integers(-6, 6)))
    @settings(max_examples=300)
    def test_integer_horner_matches_dyadic_horner(self, coeffs, x):
        p = DyadicPoly(coeffs)
        v, r = p(x), ref.poly_value(p, x)
        assert (v.m, v.e) == (r.m, r.e)


@st.composite
def bisection_cases(draw):
    """Degrees 0..4 with coefficients of either sign, so increasing,
    decreasing and non-monotone polynomials; endpoints with exponents
    from -3 to 5; w at a point the bisection may visit (an exact
    midpoint hit), between p(a) and p(b), between them on a grid finer
    than any p(z) reached, or anywhere (often not bracketed), or w = 0
    with p moved to vanish at a quarter of [a, b]; tol from 2^-12 up to
    2^8, often at least b - a.  The coefficients are scaled by up to
    2^8, so p can be a multiple of a positive power of two at every
    point visited."""
    scale = Dyadic(1, draw(st.integers(0, 8)))
    p = DyadicPoly([c * scale for c in draw(st.lists(coefficients, min_size=1, max_size=5))])
    a = draw(st.builds(Dyadic, st.integers(-40, 40), st.integers(-3, 5)))
    b = a + draw(st.builds(Dyadic, st.integers(1, 64), st.integers(-3, 5)))
    kind = draw(st.sampled_from(['grid', 'between', 'fine', 'root', 'any']))
    if kind == 'grid':
        w = p(a + (b - a) * Dyadic(draw(st.integers(0, 64)), -6))
    elif kind == 'between':
        w = p(a) + (p(b) - p(a)) * Dyadic(draw(st.integers(0, 64)), -6)
    elif kind == 'fine':
        fine = Dyadic(draw(st.integers(0, 1 << 20)) | 1, -draw(st.integers(1, 120)))
        w = p(a) + (p(b) - p(a)) * fine
    elif kind == 'root':
        z = a + (b - a) * Dyadic(draw(st.integers(0, 4)), -2)
        p = DyadicPoly((p.coeffs[0] - p(z),) + p.coeffs[1:])
        w = ZERO
    else:
        w = Dyadic(draw(st.integers(-500, 500)), draw(st.integers(-4, 4)))
    return p, a, b, w, Dyadic(1, draw(st.integers(-12, 8)))


def bisection_outcome(invert, p, a, b, w, tol):
    trace = []
    try:
        r = invert(p, a, b, w, tol, trace)
    except BracketViolation as exc:
        return 'BracketViolation', exc.step
    return (r.m, r.e), [tuple((v.m, v.e) for v in t) for t in trace]


class TestBisectionReference:
    """The integer-grid bisection against the Dyadic-object loop it
    replaced: the same result, trace and BracketViolation step."""

    @given(bisection_cases())
    @settings(max_examples=500)
    def test_matches_reference(self, case):
        expected = bisection_outcome(ref.bisection_invert, *case)
        assert bisection_outcome(bisection_invert, *case) == expected

    def test_fine_square_root_matches_reference(self):
        a = Dyadic(1234567, -10)
        tol = Dyadic(1, -2048)
        r = mth_root(a, 2, tol)
        s = ref.bisection_invert(DyadicPoly([ZERO, ZERO, ONE]), ZERO, a, a, tol)
        assert (r.m, r.e) == (s.m, s.e)

    @pytest.mark.parametrize('coeffs, a, b', [
        ((4, -4), -1, 1),   # p(b) = 0
        ((-4, -4), -1, 1),  # p(a) = 0
        ((4, -4), 0, 2),    # p at the first midpoint is 0
    ])
    def test_zero_w_on_a_coarse_lattice(self, coeffs, a, b):
        # every p(z) visited is even, and w = 0 is stored with exponent 0:
        # it must not be rounded off the lattice as a finer w would be
        case = (DyadicPoly([Dyadic(c) for c in coeffs]), Dyadic(a), Dyadic(b), ZERO, ONE)
        expected = bisection_outcome(ref.bisection_invert, *case)
        assert bisection_outcome(bisection_invert, *case) == expected

    def test_w_finer_than_the_grid(self):
        # every p(z) visited here is a multiple of 2^-128, so w is rounded
        # to that grid instead of the coefficients being shifted to 2^-10^8
        t0 = time.perf_counter()
        assert mth_root(Dyadic(1, -100000000), 2, Dyadic(1, -64)) == ZERO
        assert time.perf_counter() - t0 < 1
        a, tol = Dyadic(3, -301), Dyadic(1, -64)
        r = mth_root(a, 2, tol)
        s = ref.bisection_invert(DyadicPoly([ZERO, ZERO, ONE]), ZERO, ONE, a, tol)
        assert (r.m, r.e) == (s.m, s.e)


def canonical(d):
    """Whether d is a Dyadic in canonical form: an int mantissa that is
    odd, or mantissa and exponent both 0."""
    return (type(d) is Dyadic and type(d.m) is int and type(d.e) is int
            and (d.m % 2 == 1 or d.m == d.e == 0))


# zero, small and long mantissas of either sign, at near and far exponents
operands = st.builds(Dyadic, st.one_of(st.just(0), st.integers(-64, 64),
                                       st.integers(-(1 << 80), 1 << 80)),
                     st.one_of(st.integers(-8, 8), st.integers(-100000, 100000)))


class TestCanonicalResults:
    """Every result built without the checked constructor is canonical
    and equals its Fraction counterpart."""

    @given(operands, operands)
    @settings(max_examples=300)
    def test_arithmetic(self, a, b):
        fa, fb = ref.to_fraction(a), ref.to_fraction(b)
        for r, want in [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa),
                        (abs(a), abs(fa)), (a.half_sum(b), (fa + fb) / 2), (a + a, 2 * fa),
                        (a - a, 0), (a.half_sum(-a), 0)]:
            assert canonical(r) and ref.to_fraction(r) == want

    @given(st.builds(Dyadic, st.integers(-64, 64), st.integers(-300, 300)), st.integers(0, 7))
    @settings(max_examples=200)
    def test_powers(self, a, k):
        r = a ** k
        assert canonical(r) and ref.to_fraction(r) == ref.to_fraction(a) ** k

    @given(st.lists(operands, max_size=4), operands)
    @settings(max_examples=200)
    def test_polynomial_values(self, coeffs, x):
        # both sides times 2^s, exact ints: at degree 3 and exponents
        # near -100,000 the Fraction sum and its normalization took
        # 170 ms, near hypothesis's 200 ms deadline
        r = DyadicPoly(coeffs)(x)
        assert canonical(r)
        terms = [(c.m * x.m ** i, c.e + i * x.e) for i, c in enumerate(coeffs)]
        s = -min([r.e] + [e for _, e in terms])
        assert r.m << r.e + s == sum(m << e + s for m, e in terms)

    @given(bisection_cases())
    @settings(max_examples=300)
    def test_bisection_result_and_trace(self, case):
        p = case[0]

        def value(x):
            fx = ref.to_fraction(x)
            return sum(ref.to_fraction(c) * fx ** i for i, c in enumerate(p.coeffs))

        trace = []
        try:
            r = bisection_invert(*case, trace)
        except BracketViolation:
            return
        assert canonical(r)
        for x, y, px, py in trace:
            assert all(map(canonical, (x, y, px, py)))
            assert (ref.to_fraction(px), ref.to_fraction(py)) == (value(x), value(y))


@st.composite
def root_cases(draw):
    """m from 1 to 6; a zero, a perfect m-th power, or any a > 0 with
    exponents from -150 to 150; tol from 2^-160 to 2^168, so finer and
    coarser than a, and now and then zero or negative.  All stay within
    both caps, which the reference does not have."""
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(['any', 'power', 'zero']))
    if kind == 'zero':
        a = ZERO
    elif kind == 'power':
        a = Dyadic(draw(st.integers(1, 1 << 12)), draw(st.integers(-25, 25))) ** m
    else:
        a = Dyadic(draw(st.integers(1, 1 << 40)), draw(st.integers(-150, 150)))
    tol = Dyadic(draw(st.integers(-1, 1 << 8)), draw(st.integers(-160, 160)))
    return a, m, tol


def outcome(fn, *args):
    try:
        r = fn(*args)
    except (BracketViolation, CapExceeded, IndexOutOfRange) as exc:
        return type(exc)
    return r.m, r.e


class TestRootClosedForm:
    """mth_root takes the bisection's last left endpoint from one integer
    m-th root: the same Dyadic as the Dyadic-object loop, or the same
    error."""

    @given(root_cases())
    @settings(max_examples=300)
    def test_matches_reference_bisection(self, case):
        a, m, tol = case
        expected = outcome(ref.bisection_invert, DyadicPoly([ZERO] * m + [ONE]), ZERO,
                           max(a, ONE), a, tol)
        assert outcome(mth_root, a, m, tol) == expected

    def test_at_the_step_cap_is_quick(self):
        # steps = BISECTION_CAP // m - 2 on [0, 1] and on [0, 2]: about
        # 3 ms at most for each root here (Python 3.11, 2-CPU host),
        # against 180 to 310 ms for the step-by-step loop.  The bound
        # allows ten times the measured 12 ms total.
        t0 = time.perf_counter()
        for m in (2, 3, 5, 8):
            steps = BISECTION_CAP // m - 2
            for a, tol in ((Dyadic(3, -2), Dyadic(1, -steps)), (Dyadic(2), Dyadic(1, 1 - steps))):
                r = mth_root(a, m, tol)
                assert r ** m <= a < (r + tol) ** m
        assert time.perf_counter() - t0 < 0.12
        for m in (2, 3, 5, 8):
            with pytest.raises(CapExceeded):
                mth_root(Dyadic(3, -2), m, Dyadic(1, -(BISECTION_CAP // m + 1)))

    def test_degree_past_the_bit_budget_fails_at_once(self):
        # x^m sums terms of m + 1 bits or more, so the Horner budget
        # admits m = HORNER_BITS_CAP - 1 only where an endpoint is a hit
        assert mth_root(ZERO, HORNER_BITS_CAP - 1, ONE) == ZERO
        with pytest.raises(CapExceeded):
            mth_root(ZERO, HORNER_BITS_CAP, ONE)
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded):
            mth_root(Dyadic(2), 10 ** 9, ONE)
        assert time.perf_counter() - t0 < 1
        with pytest.raises(IndexOutOfRange):
            mth_root(Dyadic(2), 10 ** 9, ZERO)


class TestStepCap:
    SQUARE = DyadicPoly([ZERO, ZERO, ONE])

    def test_at_the_cap_runs(self):
        # on [0, 1], tol 2^-s takes s steps; at degree 2 the cap admits s = CAP / 2
        tol = Dyadic(1, -(BISECTION_CAP // 2))
        r = bisection_invert(self.SQUARE, ZERO, ONE, Dyadic(1, -1), tol)
        assert r * r < Dyadic(1, -1) < (r + tol) * (r + tol)

    def test_past_the_cap_fails_before_the_first_step(self):
        trace = []
        with pytest.raises(CapExceeded):
            bisection_invert(self.SQUARE, ZERO, ONE, Dyadic(1, -1),
                             Dyadic(1, -(BISECTION_CAP // 2 + 1)), trace)
        assert trace == []
        with pytest.raises(CapExceeded):
            bisection_invert(DyadicPoly([Dyadic(-1, -1), ONE]), ZERO, ONE, ZERO,
                             Dyadic(1, -(BISECTION_CAP + 1)))
        with pytest.raises(CapExceeded):
            mth_root(Dyadic(2), 2, Dyadic(1, -100000000))

    def test_far_inputs_fail_before_the_endpoints_are_evaluated(self):
        # few steps, but every Horner sum would be millions of bits long
        for p, a, b, w in [
                (self.SQUARE, Dyadic(1, -8000000), ONE, Dyadic(1, -1)),
                (DyadicPoly([Dyadic(1, -8000000), ONE]), ZERO, ONE, Dyadic(1, -1)),
                (DyadicPoly([ZERO, ONE]), ZERO, ONE, Dyadic(1, 8000000))]:
            t0 = time.perf_counter()
            with pytest.raises(CapExceeded):
                bisection_invert(p, a, b, w, Dyadic(1, -30))
            assert time.perf_counter() - t0 < 1

    def test_far_endpoints_fail_before_they_are_shifted(self):
        # the endpoint 2^(10^8), or 1 on the grid 2^-(10^8), is a 10^8-bit
        # numerator: its bit position alone passes the budget.  Measured
        # on a 2-CPU host: 0.25 ms and 2.3 kB traced for the root, where
        # the shifting version took 0.08 s and 40 MB.  The bounds are
        # 0.02 s and 1 MiB.
        calls = [lambda: mth_root(Dyadic(1, 10 ** 8), 2, ONE),
                 lambda: bisection_invert(self.SQUARE, ZERO, Dyadic(1, 10 ** 8), ONE, ONE),
                 lambda: bisection_invert(self.SQUARE, Dyadic(1, -10 ** 8), ONE, ONE, ONE)]
        for call in calls:
            t0 = time.perf_counter()
            with pytest.raises(CapExceeded):
                call()
            assert time.perf_counter() - t0 < 0.02
            tracemalloc.start()
            try:
                with pytest.raises(CapExceeded):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_far_target_fails_before_it_is_shifted(self):
        # w = 2^(4 * 10^7) folded into p's constant term would be a
        # 4 * 10^7-bit integer: its bit position alone passes the budget.
        # The shifting version traced 10.7 MB on a 2-CPU host; the bound
        # is 1 MiB
        call = lambda: bisection_invert(DyadicPoly([ZERO, ONE]), ZERO, ONE,
                                        Dyadic(1, 4 * 10 ** 7), ONE)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fine_tolerance_fails_before_the_coefficients_are_shifted(self):
        # w off the grid's lattice puts the exponent f about 10^7 bits
        # below p's, so shifted there each coefficient of p would be a
        # 10^7-bit integer: their bit lengths alone pass the budget.  The
        # shifting version traced 1.3 MB for x and 2.7 MB for the
        # constant 1 on a 2-CPU host, this one under 4 kB; the bound is
        # 64 kB
        tol = Dyadic(1, -10 ** 7)
        w = Dyadic(3, -(10 ** 7 + 5))
        for p in (DyadicPoly([ZERO, ONE]), DyadicPoly([ONE, ZERO])):
            tracemalloc.start()
            try:
                with pytest.raises(CapExceeded, match='at least 1000000[23] bits'):
                    bisection_invert(p, ZERO, ONE, w, tol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16

    def test_at_the_bit_budget_runs(self):
        # cs = (-1, 0, 2) after folding w = 1/2, x = 1 and y = 2^k: the sums
        # start at 2 + 2 * (k + 1) bits, which is the budget for this k
        k = HORNER_BITS_CAP // 2 - 2
        a, tol = Dyadic(1, -k), Dyadic(1, -20)
        r = bisection_invert(self.SQUARE, a, ONE, Dyadic(1, -1), tol)
        assert r * r < Dyadic(1, -1) < (r + tol) * (r + tol)
        with pytest.raises(CapExceeded):
            bisection_invert(self.SQUARE, Dyadic(1, -k - 1), ONE, Dyadic(1, -1), tol)

    def test_bracket_and_endpoint_hits_come_before_the_cap(self):
        tiny = Dyadic(1, -100000000)
        with pytest.raises(BracketViolation):
            bisection_invert(self.SQUARE, ZERO, ONE, Dyadic(2), tiny)
        assert mth_root(ZERO, 2, tiny) == ZERO
        assert mth_root(ONE, 2, tiny) == ONE
        assert mth_root(Dyadic(4), 1, tiny) == Dyadic(4)
        with pytest.raises(CapExceeded):
            mth_root(Dyadic(4), 2, tiny)


# a small exponent, one within HORNER_BITS_CAP, or one up to 10^8 either way
far_exponents = st.one_of(st.integers(-40, 40), st.integers(-HORNER_BITS_CAP, HORNER_BITS_CAP),
                          st.integers(-10 ** 8, 10 ** 8))


@st.composite
def budget_cases(draw):
    """Inputs to _bisection_start on both sides of the Horner bit
    budget.  Degrees 0..6 with coefficients on a common exponent up to
    10^8 away, spread by up to the budget; endpoints small, at
    2^-(HORNER_BITS_CAP // 2 +- 2) against 1, or far, of either sign;
    w at an endpoint's value, between the two, anywhere up to 10^8
    away, far finer than the grid, between them or not, or zero; tol
    up to 10^8 away, now and then zero or negative."""
    base = draw(far_exponents)
    spread = st.integers(0, draw(st.sampled_from([8, HORNER_BITS_CAP + 64])))
    mantissas = st.one_of(st.integers(-40, 40), st.integers(-(1 << 80), 1 << 80))
    p = DyadicPoly([Dyadic(draw(mantissas), base + draw(spread))
                    for _ in range(draw(st.integers(0, 7)))])
    kind = draw(st.sampled_from(['small', 'near', 'far', 'signs']))
    if kind == 'small':
        a = Dyadic(draw(st.integers(-40, 40)), draw(st.integers(-6, 6)))
        b = a + Dyadic(draw(st.integers(1, 64)), draw(st.integers(-6, 6)))
    elif kind == 'near':
        a, b = Dyadic(1, -(HORNER_BITS_CAP // 2 + draw(st.integers(-2, 2)))), ONE
    elif kind == 'far':
        m = draw(st.integers(-(1 << 20), 1 << 20))
        e = draw(far_exponents)
        a, b = Dyadic(m, e), Dyadic(m + draw(st.integers(1, 1 << 20)), e)
    else:
        a = Dyadic(-draw(st.integers(0, 1 << 20)), draw(far_exponents))
        b = Dyadic(draw(st.integers(1, 1 << 20)), draw(far_exponents))
    wkind = draw(st.sampled_from(['endpoint', 'between', 'any', 'fine', 'zero']))
    if wkind == 'zero':
        w = ZERO
    elif kind in ('small', 'near') and wkind != 'any':
        # p(a) + (p(b) - p(a)) * t for t = 0, 1, or t in (0, 1) of up
        # to 10^6 bits
        t = {'endpoint': Dyadic(draw(st.integers(0, 1))),
             'between': Dyadic(draw(st.integers(0, 64)), -6),
             'fine': Dyadic(1, -draw(st.one_of(st.integers(1, 2 * HORNER_BITS_CAP),
                                               st.integers(1, 10 ** 6))))}[wkind]
        w = p(a) + (p(b) - p(a)) * t
    elif wkind == 'fine':
        w = Dyadic(draw(st.integers(-(1 << 20), 1 << 20)) | 1,
                   -draw(st.integers(10 ** 6, 10 ** 8)))
    else:
        w = Dyadic(draw(mantissas), draw(far_exponents))
    tol = Dyadic(draw(st.integers(-1, 1 << 8)), draw(far_exponents))
    return p, a, b, w, tol


@st.composite
def constant_cases(draw):
    """budget_cases with p cut to its constant coefficient or to the zero
    polynomial, and w half the time at p's value, a hit."""
    p, a, b, w, tol = draw(budget_cases())
    p = DyadicPoly(p.coeffs[:draw(st.integers(0, 1))])
    return p, a, b, p(a) if draw(st.booleans()) else w, tol


def start_outcome(start, case):
    try:
        hit, k, x, y, steps, cs, sx = start(*case)
    except (BracketViolation, CapExceeded, IndexOutOfRange) as exc:
        return type(exc)
    if hit is not None and len(case[0].ints) <= 1:
        # a constant p hits at a without placing a and b on the grid,
        # and the callers read nothing of a hit but the endpoint
        x = y = steps = None
    return None if hit is None else (hit.m, hit.e), k, x, y, steps, list(cs), sx


class TestOneBitBudget:
    """The one Horner bit budget of the bisection against the four
    successive checks it replaced, and its length against the true one."""

    @given(budget_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_four_checks(self, case):
        p, a, b, w, tol = case
        if w == ZERO and p.exp != 0:
            # The four checks took w = 0 to lie at exponent 0, so they
            # refused coefficients 2^-32768 and finer, or 2^32768 and
            # coarser, on w's account.  p moved to exponent 0 has the
            # same integers, grid and signs.
            p = DyadicPoly([c * Dyadic(1, -p.exp) for c in p.coeffs])
        assert start_outcome(_bisection_start, case) == start_outcome(ref.bisection_start,
                                                                      (p, a, b, w, tol))

    def test_constant_p_does_not_place_far_endpoints_on_the_grid(self):
        # p - w is one constant on [a, b], so its sign alone gives the hit
        # at a or BracketViolation(0).  Placing a and b on the grid shifted
        # them by 10^8 bits: 53 MB traced and 40-50 ms; the bound is 64 kB
        a, b = Dyadic(1, 10 ** 8), Dyadic(3, 10 ** 8)
        tracemalloc.start()
        try:
            assert bisection_invert(DyadicPoly([1]), a, b, ONE, ONE) == a
            with pytest.raises(BracketViolation):
                bisection_invert(DyadicPoly([1]), a, b, Dyadic(2), ONE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @given(constant_cases())
    @settings(max_examples=300, deadline=None)
    def test_constant_p_matches_the_oracle(self, case):
        p, a, b, w, tol = case
        if w == ZERO and p.exp != 0:
            # as in test_matches_the_four_checks: the oracle takes w = 0
            # to lie at exponent 0
            p = DyadicPoly([c * Dyadic(1, -p.exp) for c in p.coeffs])
        assert start_outcome(_bisection_start, case) == start_outcome(ref.bisection_start,
                                                                      (p, a, b, w, tol))

    def test_zero_w_below_far_coefficients(self):
        # p = (x - 1/3) * 2^-40000 on [0, 1]: w = 0 adds no bits, so the
        # sums are a few bits long, where the four checks refused
        p = DyadicPoly([Dyadic(-1, -40000), Dyadic(3, -40000)])
        case = (p, ZERO, ONE, ZERO, Dyadic(1, -20))
        assert start_outcome(ref.bisection_start, case) is CapExceeded
        r = bisection_invert(*case)
        assert p(r) <= ZERO < p(r + Dyadic(1, -20))

    def test_zero_w_above_far_coefficients(self):
        # the same p at 2^40000: zero lies on every lattice, so p is not
        # shifted down to w's stored exponent 0, and the bisection ends
        # where it does for p at 2^0
        p = DyadicPoly([Dyadic(-1, 40000), Dyadic(3, 40000)])
        case = (p, ZERO, ONE, ZERO, Dyadic(1, -20))
        assert start_outcome(ref.bisection_start, case) is CapExceeded
        r = bisection_invert(*case)
        assert r == bisection_invert(DyadicPoly([-1, 3]), ZERO, ONE, ZERO, Dyadic(1, -20))
        assert r == Dyadic(349525, -20)

    @given(st.lists(st.integers(-(1 << 40), 1 << 40), max_size=7),
           st.integers(0, HORNER_BITS_CAP + 64), st.booleans(),
           st.integers(-(1 << 40), 1 << 40), st.integers(0, 2 * HORNER_BITS_CAP),
           st.sampled_from([None, -2, -1, 0, 1, 2]))
    @settings(max_examples=400)
    def test_exact_or_a_lower_bound_past_the_cap(self, ints, shift, on_w, wm, reach, cancel):
        # one of the two shifts is zero: the exponent f is p's or w's
        shift, wshift = (0, shift) if on_w else (shift, 0)
        if cancel is not None and ints:
            # the two parts of the constant a few units apart
            if on_w:
                ints[0] = (wm << wshift) + cancel
            else:
                wm = (ints[0] << shift) + cancel
        cs = [c << shift for c in ints] or [0]
        cs[0] -= wm << wshift
        true = max(c.bit_length() for c in cs) + reach
        bits = _horner_bits(tuple(ints), shift, wm, wshift, reach)
        assert bits == true or HORNER_BITS_CAP < bits <= true

    @pytest.mark.parametrize('ints, shift, wm, wshift, bits', [
        # parts 1 bit apart that cancel to 1
        ((1,), HORNER_BITS_CAP + 5, (1 << HORNER_BITS_CAP + 5) - 1, 0, 1),
        # 2 apart: 2^CAP - 2^(CAP - 2) loses a bit and is within the cap,
        # -2^CAP - 2^(CAP - 2) gains one
        ((1,), HORNER_BITS_CAP, 1, HORNER_BITS_CAP - 2, HORNER_BITS_CAP),
        ((-1,), HORNER_BITS_CAP, 1, HORNER_BITS_CAP - 2, HORNER_BITS_CAP + 1),
        ((1 << 40, 3), 0, 1, HORNER_BITS_CAP - 2, HORNER_BITS_CAP - 2),
    ], ids=['cancel', 'loses-a-bit', 'gains-a-bit', 'w-alone'])
    def test_at_the_cap(self, ints, shift, wm, wshift, bits):
        assert _horner_bits(ints, shift, wm, wshift, 0) == bits

    @pytest.mark.parametrize('ints, shift, wm, wshift', [
        ((1, 0), 10 ** 8, 1, 0),        # p's constant far above w
        ((0, 1), 10 ** 8, 1, 0),        # x far above w, w next to the constant
        ((1 << 64,), 0, 3, 10 ** 8),    # w far above p
        ((0, 0, 1), 10 ** 8, 0, 0),     # x^2 far above w = 0
    ])
    def test_far_inputs_are_not_shifted(self, ints, shift, wm, wshift):
        # the longest term has about 10^8 bits; taking it from bit
        # positions traces a few hundred bytes, shifting 12 MB
        tracemalloc.start()
        try:
            bits = _horner_bits(ints, shift, wm, wshift, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 10 ** 8 - 64 < bits < 10 ** 8 + 72
        assert peak < 1 << 16

    def test_one_message_form(self):
        cases = [lambda: geometric_partial_sum(Dyadic(3, -2), HORNER_BITS_CAP // 4 + 1),
                 lambda: mth_root(ZERO, HORNER_BITS_CAP, ONE),
                 lambda: bisection_invert(TestStepCap.SQUARE, ZERO, Dyadic(1, 10 ** 8), ONE, ONE),
                 lambda: bisection_invert(DyadicPoly([ZERO, ONE]), ZERO, ONE,
                                          Dyadic(1, 4 * 10 ** 7), ONE)]
        for call in cases:
            with pytest.raises(CapExceeded, match=r' at least \d+ bits; capped at 32768 bits$'):
                call()


class TestRoots:
    def test_square_root_of_two(self):
        assert mth_root(Dyadic(2), 2, Dyadic(1, -4)) == Dyadic(11, -3)

    def test_root_bound_property(self):
        tol = Dyadic(1, -10)
        for a in (Dyadic(2), Dyadic(3), Dyadic(5), Dyadic(1, -1)):
            for m in (2, 3, 4):
                r = mth_root(a, m, tol)
                assert r ** m <= a
                assert a < (r + tol) ** m or r ** m == a

    def test_monotone_in_argument(self):
        tol = Dyadic(1, -12)
        roots = [mth_root(Dyadic(k), 2, tol) for k in range(1, 6)]
        assert roots == sorted(roots)

    def test_exact_roots(self):
        assert mth_root(Dyadic(4), 2, Dyadic(1, -4)) == Dyadic(2)
        assert mth_root(Dyadic(8), 3, Dyadic(1, -4)) == Dyadic(2)
        assert mth_root(ZERO, 2, Dyadic(1, -4)) == ZERO

    def test_product_law_approximately(self):
        # sqrt(2) * sqrt(3) approximates sqrt(6) within the combined
        # tolerance budget
        tol = Dyadic(1, -20)
        r2, r3, r6 = (mth_root(Dyadic(k), 2, tol) for k in (2, 3, 6))
        prod = r2 * r3
        gap = abs(prod - r6)
        # both factors are below the true roots, so the product sits
        # within roughly (sqrt(3) + sqrt(2) + 1) * tol of r6
        assert gap < Dyadic(4) * tol

    def test_domain_errors(self):
        with pytest.raises(IndexOutOfRange):
            mth_root(Dyadic(2), 0, Dyadic(1, -4))
        with pytest.raises(IndexOutOfRange):
            mth_root(Dyadic(-1), 2, Dyadic(1, -4))


class TestVectorChecks:
    @given(st.lists(dyadics, min_size=1, max_size=6),
           st.lists(dyadics, min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_cauchy_schwarz_always_holds(self, xs, ys):
        k = min(len(xs), len(ys))
        assert cauchy_schwarz_check(xs[:k], ys[:k])

    def test_dot_errors(self):
        with pytest.raises(LengthMismatch):
            dot([ONE], [ONE, ONE])
        with pytest.raises(EmptyArgument):
            dot([], [])

    @given(st.lists(dyadics, min_size=1, max_size=6),
           st.lists(dyadics, min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_metric_compare_sandwich(self, xs, ys):
        k = min(len(xs), len(ys))
        out = metric_compare(xs[:k], ys[:k])
        assert out['lower_ok'] and out['upper_ok'] and out['cauchy_schwarz']
        assert out['dmax_sq'] <= out['e_sq'] <= out['n_dmax_sq']

    def test_metric_compare_example(self):
        out = metric_compare([ZERO, ZERO], [ONE, ONE])
        assert out['dmax_sq'] == ONE
        assert out['e_sq'] == Dyadic(2)
        assert out['n_dmax_sq'] == Dyadic(2)


class TestPowers:
    @given(dyadics.filter(lambda d: d > ONE), st.integers(0, 10))
    @settings(max_examples=100)
    def test_lower_bound(self, x, m):
        # Bernoulli's inequality
        assert x ** m >= Dyadic(m) * (x - ONE) + ONE


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _refused_as_input(outcome):
    """An outcome of int() or Fraction(), with a refusal replaced by the
    InputError that decimal_int and decimal_fraction raise for it."""
    return InputError if outcome in (ValueError, ZeroDivisionError) else outcome


# every character int() or Fraction() treats as a digit or a space, a
# sample of others, and the ASCII ones int() does not skip
_CHARS = [chr(c) for c in range(0x3000) if chr(c).isspace() or chr(c).isdigit()
          or chr(c).isnumeric() or c < 0x250] + ['\U0001d7ce', '\U0001d7ff', '\x1c', '\x1f']


class TestDecimalParsing:
    def test_decimal_int_accepts_what_int_accepts(self):
        forms = ['%s', '1%s', '%s1', '1%s1', '%s-1', '-%s', '1_%s', '+%s2', '1%s_2']
        for c in _CHARS:
            for form in forms:
                text = form % c
                assert _outcome(decimal_int, text) == _refused_as_input(_outcome(int, text)), text

    def test_decimal_fraction_accepts_what_fraction_accepts(self):
        forms = ['%s', '1%s', '%s1', '%s.5', '1%s/2', '1/%s', '1e%s', '.%s', '1.%s',
                 '1_%s.5', '%s1/2', '-%s1.5e-3', '1.5%s', '1/2%s']
        for c in _CHARS:
            for form in forms:
                text = form % c
                assert (_outcome(decimal_fraction, text)
                        == _refused_as_input(_outcome(Fraction, text))), text
        for text in ['1/0', '0/0', '1.', '.5', '-1.5E+3', '2e-1_0', '1_0.0_5', '1.d',
                     '1 /2', '1/-2', '+.5e1', '', ' ', 'nan', 'inf', '1e', '/2']:
            assert (_outcome(decimal_fraction, text)
                    == _refused_as_input(_outcome(Fraction, text))), text

    def test_past_the_int_digit_limit(self):
        digits = '7' * 5000
        with pytest.raises(ValueError):
            int(digits)
        assert decimal_int(' -%s\n' % digits) == -int(Decimal(digits))
        assert decimal_fraction('%s/3' % digits) == Fraction(int(Decimal(digits)), 3)
        assert decimal_fraction('1.%s' % digits) == 1 + Fraction(int(Decimal(digits)), 10 ** 5000)


class TestIntFirst:
    """decimal_int reads a text by int() first and by Decimal only when
    int() refuses it: here for its length, one digit past the default
    limit of int-to-str conversion, 4,300 digits."""

    @pytest.mark.parametrize('digits', [4300, 4301])
    @pytest.mark.parametrize('form', ['%s', ' -%s\n', '+%s', '　%s\t'])
    def test_each_side_of_the_digit_limit(self, digits, form):
        text = form % ('8' + '1_2' * ((digits - 1) // 2) + '7' * ((digits - 1) % 2))
        assert len(text.strip().lstrip('+-').replace('_', '')) == digits
        want = int(Decimal(text.strip().replace('_', '')))
        assert decimal_int(text) == want
        if digits > 4300:
            with pytest.raises(ValueError, match='Exceeds the limit'):
                int(text)
        else:
            assert int(text) == want
        assert decimal_fraction(text.strip() + '/3') == Fraction(want, 3)

    @pytest.mark.parametrize('text', ['1' * 4301 + 'x', '1' * 4301 + '__1', '\x1c' + '1' * 4301,
                                      '1' * 4301 + '.5'])
    def test_refusals_past_the_digit_limit(self, text):
        with pytest.raises(InputError, match='invalid literal for int'):
            decimal_int(text)


def _parsed(parse, text):
    """The (m, e) of the Dyadic read, or the type and text of the error."""
    try:
        d = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return d.m, d.e


_digits = st.text('0123456789', min_size=1, max_size=30)
_spaces = st.sampled_from(['', ' ', '\t', '　'])
# 'p/q', decimals and exponents, with the forms Fraction() refuses: a
# signed or spaced denominator, a zero one, a bare point or exponent
_fraction_texts = st.one_of(
    st.builds('{}{}{}/{}{}{}'.format, _spaces, st.sampled_from(['', '-', '+']), _digits,
              st.sampled_from(['', '-', '+', ' ']), _digits, _spaces),
    st.builds(lambda p, k: '%d/%d' % (p, 1 << k), st.integers(-2 ** 80, 2 ** 80),
              st.integers(0, 80)),
    st.builds('{}{}.{}{}'.format, st.sampled_from(['', '-', '+']), _digits | st.just(''),
              _digits | st.just(''),
              st.sampled_from(['', 'e', 'E3', 'e-2', 'E+1_0', 'e-0', 'e2_', '5'])),
    st.text('0123456789/.eE+-_ ', max_size=12))


class TestParseOneFraction:
    """Dyadic.parse reads 'p/q', decimals and exponents through one
    Fraction, which Dyadic.from_fraction reads as it is: the same
    Dyadic, or the same error, as through a second Fraction."""

    @given(_fraction_texts)
    @settings(max_examples=600, deadline=None)
    def test_matches_two_fractions(self, text):
        assert _parsed(Dyadic.parse, text) == _parsed(ref.parse_dyadic, text)

    @given(st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))
    @settings(max_examples=300, deadline=None)
    def test_from_fraction_reads_a_fraction_as_it_is(self, p, q):
        fr = Fraction(p, q)
        assert (_parsed(Dyadic.from_fraction, fr)
                == _parsed(ref.dyadic_from_fraction, fr))
        if q == 1:
            assert _parsed(Dyadic.from_fraction, p) == _parsed(ref.dyadic_from_fraction, p)

    def test_one_fraction_a_parse(self, monkeypatch):
        import fintopo.numeric as numeric
        built = []

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(numeric, 'Fraction', Counted)
        assert Dyadic.parse('-3/8') == Dyadic(-3, -3)
        assert Dyadic.parse('1.375e1') == Dyadic(55, -2)
        assert len(built) == 2

"""Exact dyadic arithmetic: finite series, geometric sums, bisection
inversion of monotone polynomials, m-th roots, and the exact
Cauchy-Schwarz / metric-comparison checks.

A dyadic number is mantissa * 2^exponent with the mantissa odd or zero
(canonical form).  Addition, subtraction, multiplication and comparison
are exact; division is deliberately absent.
"""

import sys
from fractions import Fraction

from .errors import (BracketViolation, EmptyArgument, IndexOutOfRange,
                     LengthMismatch, NonDyadicClosedForm, NonDyadicLiteral)


class Dyadic:
    __slots__ = ('m', 'e')

    def __init__(self, m, e=0):
        m = int(m)
        e = int(e)
        if m == 0:
            e = 0
        else:
            zeros = (m & -m).bit_length() - 1
            m >>= zeros
            e += zeros
        self.m = m
        self.e = e

    # -- construction helpers --

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        den = fr.denominator
        k = den.bit_length() - 1
        if den != 1 << k:
            raise NonDyadicLiteral("%s has a non-power-of-two denominator" % fr)
        return Dyadic(fr.numerator, -k)

    @staticmethod
    def parse(text):
        """Accepts 'm*2^e', integers, exact decimals like '1.375', and
        fractions 'p/q' with a power-of-two denominator."""
        text = text.strip()
        if '*2^' in text:
            m, e = text.split('*2^')
            return Dyadic(int(m), int(e))
        if text.startswith('2^'):
            return Dyadic(1, int(text[2:]))
        if text.startswith('-2^'):
            return Dyadic(-1, int(text[3:]))
        if '/' in text:
            p, q = text.split('/')
            return Dyadic.from_fraction(Fraction(int(p), int(q)))
        if '.' in text or 'e' in text or 'E' in text:
            return Dyadic.from_fraction(Fraction(text))
        return Dyadic(int(text))

    def to_fraction(self):
        if self.e >= 0:
            return Fraction(self.m * (1 << self.e))
        return Fraction(self.m, 1 << -self.e)

    def __str__(self):
        return '%d*2^%d' % (self.m, self.e)

    def __repr__(self):
        return 'Dyadic(%d, %d)' % (self.m, self.e)

    def __hash__(self):
        """Python's numeric hash of m * 2^e, so a Dyadic hashes like the
        int (or Fraction) it equals.  2^e is taken modulo the hash
        modulus, never materialised."""
        modulus = sys.hash_info.modulus
        h = abs(self.m) % modulus * pow(2, self.e, modulus) % modulus
        if self.m < 0:
            h = -h
        return -2 if h == -1 else h

    # -- exact arithmetic --

    def __add__(self, other):
        other = _coerce(other)
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    def __neg__(self):
        return Dyadic(-self.m, self.e)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        return Dyadic(self.m * other.m, self.e + other.e)

    __radd__ = __add__
    __rmul__ = __mul__

    def __abs__(self):
        return Dyadic(abs(self.m), self.e)

    def __pow__(self, k):
        if k < 0:
            raise IndexOutOfRange("need a nonnegative exponent, got %d" % k)
        out = Dyadic(1)
        for _ in range(k):
            out = out * self
        return out

    def half_sum(self, other):
        """The exact midpoint (self + other) / 2."""
        s = self + other
        return Dyadic(s.m, s.e - 1)

    # -- exact ordering --

    def _cmp(self, other):
        other = _coerce(other)
        e = min(self.e, other.e)
        a = self.m << (self.e - e)
        b = other.m << (other.e - e)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


def _coerce(v):
    if isinstance(v, Dyadic):
        return v
    if isinstance(v, int):
        return Dyadic(v)
    raise TypeError("cannot mix Dyadic with %r" % type(v))


ZERO = Dyadic(0)
ONE = Dyadic(1)


class DyadicPoly:
    """A polynomial with dyadic coefficients, ascending degree."""

    __slots__ = ('coeffs',)

    def __init__(self, coeffs):
        self.coeffs = tuple(_coerce(c) for c in coeffs)

    def __call__(self, x):
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return 'DyadicPoly(%r)' % (list(self.coeffs),)


def finite_series(xs, l, m):
    """Sum of xs[l..m] (1-based, inclusive) by the running recursion."""
    if not 1 <= l <= m <= len(xs):
        raise IndexOutOfRange("need 1 <= l <= m <= %d, got (%d, %d)" % (len(xs), l, m))
    s = xs[l - 1]
    for k in range(l, m):
        s = s + xs[k]
    return s


def geometric_partial_sum(x, m):
    """Sum of x^k for k = 0..m, exactly, by the running recursion."""
    x = _coerce(x)
    s = ONE
    p = ONE
    for _ in range(m):
        p = p * x
        s = s + p
    return s


def geometric_limit(x):
    """The value 1 / (1 - x) the partial sums approach for |x| < 1;
    dyadic when the division is exact, otherwise NonDyadicClosedForm
    carrying the exact rational pair."""
    x = _coerce(x)
    if not (abs(x) < ONE):
        raise IndexOutOfRange("limit exists only for |x| < 1")
    val = 1 / (ONE - x).to_fraction()
    try:
        return Dyadic.from_fraction(val)
    except NonDyadicLiteral:
        raise NonDyadicClosedForm(val.numerator, val.denominator)


def bisection_invert(p, a, b, w, tol, trace=None):
    """Find x in [a, b] with p(x) close to w by exact bisection.

    Requires a < b, tol > 0, and w bracketed between p(a) and p(b); p
    should be strictly monotone on [a, b] -- violations surface as a
    BracketViolation when the invariant min(p(x), p(y)) <= w <=
    max(p(x), p(y)) breaks.  Stops once the interval width is at most
    tol (the width after n steps is exactly (b - a) / 2^n) and returns
    the left endpoint; an exact hit p(z) = w returns z at once.  If
    given, trace receives one (x, y, p(x), p(y)) tuple per step.
    """
    a, b, w, tol = _coerce(a), _coerce(b), _coerce(w), _coerce(tol)
    if not a < b:
        raise IndexOutOfRange("need a < b")
    if not tol > ZERO:
        raise IndexOutOfRange("need tol > 0")
    pa, pb = p(a), p(b)
    if not (min(pa, pb) <= w <= max(pa, pb)):
        raise BracketViolation(0)
    if pa == w:
        return a
    if pb == w:
        return b
    x, y, px, py = a, b, pa, pb
    step = 0
    while y - x > tol:
        step += 1
        z = x.half_sum(y)
        pz = p(z)
        if pz == w:
            return z
        if min(px, pz) <= w <= max(px, pz):
            y, py = z, pz
        else:
            x, px = z, pz
        if not (min(px, py) <= w <= max(px, py)):
            raise BracketViolation(step)
        if trace is not None:
            trace.append((x, y, px, py))
    return x


def mth_root(a, m, tol):
    """Approximate the m-th root of a >= 0 from below: the result r
    satisfies r^m <= a < (r + tol)^m."""
    a = _coerce(a)
    if m < 1:
        raise IndexOutOfRange("need m >= 1")
    if a < ZERO:
        raise IndexOutOfRange("need a >= 0")
    hi = a if a > ONE else ONE
    poly_coeffs = [ZERO] * m + [ONE]
    return bisection_invert(DyadicPoly(poly_coeffs), ZERO, hi, a, tol)


def dot(xs, ys):
    if len(xs) != len(ys):
        raise LengthMismatch("vectors have lengths %d and %d" % (len(xs), len(ys)))
    if not xs:
        raise EmptyArgument("need nonempty vectors")
    s = ZERO
    for u, v in zip(xs, ys):
        s = s + _coerce(u) * _coerce(v)
    return s


def cauchy_schwarz_check(xs, ys):
    """(sum x_k y_k)^2 <= (sum x_k^2)(sum y_k^2), exactly."""
    lhs = dot(xs, ys)
    return lhs * lhs <= dot(xs, xs) * dot(ys, ys)


def metric_compare(xs, ys):
    """Exact squared comparison of the maximum and Euclidean distances
    between two dyadic vectors: dmax^2 <= e^2 <= n * dmax^2.

    Works in squares to avoid irrational square roots; also reports the
    Cauchy-Schwarz verdict for the pair of difference vectors."""
    if len(xs) != len(ys):
        raise LengthMismatch("vectors have lengths %d and %d" % (len(xs), len(ys)))
    if not xs:
        raise EmptyArgument("need nonempty vectors")
    diffs = [_coerce(u) - _coerce(v) for u, v in zip(xs, ys)]
    dmax = max(abs(d) for d in diffs)
    e_sq = dot(diffs, diffs)
    n = len(diffs)
    return {
        'dmax_sq': dmax * dmax,
        'e_sq': e_sq,
        'n_dmax_sq': Dyadic(n) * dmax * dmax,
        'lower_ok': dmax * dmax <= e_sq,
        'upper_ok': e_sq <= Dyadic(n) * dmax * dmax,
        'cauchy_schwarz': cauchy_schwarz_check(xs, ys),
    }


def power_lower_bound_check(x, m):
    """x^m >= m(x - 1) + 1 for dyadic x > 1 (exact)."""
    x = _coerce(x)
    return x ** m >= Dyadic(m) * (x - ONE) + ONE


def power_exceeds(x, bound):
    """For x > 1: the least m with x^m > bound."""
    x = _coerce(x)
    bound = _coerce(bound)
    if not x > ONE:
        raise IndexOutOfRange("need x > 1")
    m = 0
    p = ONE
    while not p > bound:
        p = p * x
        m += 1
    return m


def power_vanishes(x, k):
    """For 0 < x < 1: the least m with x^m < 2^-k."""
    x = _coerce(x)
    if not (ZERO < x < ONE):
        raise IndexOutOfRange("need 0 < x < 1")
    thr = Dyadic(1, -k)
    m = 0
    p = ONE
    while not p < thr:
        p = p * x
        m += 1
    return m

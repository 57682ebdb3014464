"""Exact dyadic arithmetic: finite series, geometric sums, bisection
inversion of monotone polynomials, m-th roots, and the exact
Cauchy-Schwarz / metric-comparison checks.

A dyadic number is mantissa * 2^exponent with the mantissa odd or zero
(canonical form), so two are equal iff their mantissas and exponents
are.  Addition, subtraction, multiplication and comparison are exact;
division is deliberately absent.  Dyadic(m, e) checks its arguments;
the arithmetic builds its results unchecked, by _dyadic and _normal.

Polynomials are evaluated by one integer Horner rule on the
coefficients' common exponent.  Bisection runs on the integer grid
N * 2^-k that its points lie on and builds a Dyadic only for the result
and the trace, whose values of p are integer Horner sums on the grid
too; its results are those of the step-by-step Dyadic loop, bit for
bit.  A tolerance whose steps, times the degree, pass
BISECTION_CAP raises CapExceeded before the first step.  One bit
budget, HORNER_BITS_CAP, bounds the longest Horner term on the starting
grid, the degree of mth_root, the terms of geometric_partial_sum, the
span of the terms of finite_series, and the numerator of a non-dyadic
geometric_limit; each refusal reads
"... at least N bits; capped at 32768 bits".  That length, and
every comparison, is taken from bit positions before anything is
shifted out to a far exponent.  mth_root returns the left endpoint that
this bisection of x^m ends on in closed form, from one integer m-th
root, bit for bit and under the same caps.
"""

import functools
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from operator import index

from .errors import (BracketViolation, CapExceeded, EmptyArgument, IndexOutOfRange,
                     InputError, LengthMismatch, NonDyadicClosedForm, NonDyadicLiteral)

# Most bit growth one bisection may take: its steps times max(degree, 1).
# The evaluated integers grow by that many bits over the inputs'.
BISECTION_CAP = 1 << 14

# Longest Horner sum, in bits, that one bisection may start from.  An
# endpoint, a coefficient or w far in scale from the others lengthens
# every sum however few the steps; with BISECTION_CAP this bounds the
# sums at every step.
HORNER_BITS_CAP = 1 << 15


def _over_budget(bits, what, *args):
    """The one refusal of the Horner bit budget: raise CapExceeded for
    what % args, at least bits long, past HORNER_BITS_CAP."""
    raise CapExceeded("%s at least %d bits; capped at %d bits"
                      % (what % args, bits, HORNER_BITS_CAP))


def decimal_digits(i):
    """The int i in decimal, exactly and at any length: int-to-str
    conversion refuses ints past sys.get_int_max_str_digits, decimal's
    does not."""
    return str(Decimal(i))


# The forms int() and Fraction() read.  Their whitespace is str.isspace,
# less \x1c-\x1f for int(), which passes ASCII through to its own six
# spaces.  decimal_int matches _INT_TEXT, through re's cache, only for a
# text that int() refuses; _FRACTION_TEXT is compiled on the first call
# of decimal_fraction and kept.  So a process that reads no number, or
# only ints that int() reads, compiles neither.
_INT_TEXT = r'[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*'
_FRACTION_TEXT = r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<denom>\d+(?:_\d+)*)
     |(?:\.(?P<decimal>\d*|\d+(?:_\d+)*))?(?:E(?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*"""


@functools.cache
def _fraction_pattern():
    return re.compile(_FRACTION_TEXT, re.VERBOSE | re.IGNORECASE)


def decimal_int(text):
    """int(text) for a decimal string, exactly and at any length.  It
    accepts the strings int() accepts: int() reads them, and a string
    that int() refuses for its length, past sys.get_int_max_str_digits,
    has its digits read through Decimal, which that limit does not
    bind; any other string is an InputError."""
    try:
        return int(text)
    except ValueError:
        pass
    if not re.fullmatch(_INT_TEXT, text):
        raise InputError("invalid literal for int() with base 10: %r" % text)
    return int(Decimal(text))


def decimal_fraction(text):
    """Fraction(text) for a string, exactly and at any length: the same
    forms (p/q, decimals with an exponent), each run of digits read by
    decimal_int.  Any other string, and a zero denominator, is an
    InputError."""
    m = _fraction_pattern().fullmatch(text)
    if m is None:
        raise InputError('Invalid literal for Fraction: %r' % text)
    num = decimal_int(m['num'] or '0')
    den = 1
    if m['denom']:
        den = decimal_int(m['denom'])
        if den == 0:
            raise InputError("zero denominator in %r" % text)
    else:
        if m['decimal']:
            den = 10 ** len(m['decimal'].replace('_', ''))
            num = num * den + decimal_int(m['decimal'])
        if m['exp']:
            exp = decimal_int(m['exp'])
            if exp >= 0:
                num *= 10 ** exp
            else:
                den *= 10 ** -exp
    return Fraction(-num if m['sign'] == '-' else num, den)


class Dyadic:
    __slots__ = ('m', 'e')

    def __init__(self, m, e=0):
        m, e = index(m), index(e)
        zeros = (m & -m).bit_length() - 1
        self.m, self.e = (m >> zeros, e + zeros) if m else (0, 0)

    # -- construction helpers --

    @staticmethod
    def from_fraction(fr):
        """The Dyadic equal to fr, a Fraction or an int, read as it is,
        through its numerator and denominator (lowest terms), so no
        second Fraction is built.  NonDyadicLiteral unless the
        denominator is a power of two."""
        den = fr.denominator
        k = den.bit_length() - 1
        if den != 1 << k:
            raise NonDyadicLiteral("%s/%s has a non-power-of-two denominator"
                                   % (decimal_digits(fr.numerator), decimal_digits(den)))
        return Dyadic(fr.numerator, -k)

    @staticmethod
    def parse(text):
        """Accepts 'm*2^e', integers, and the exact decimals like '1.375'
        and fractions 'p/q' that decimal_fraction reads, with a
        power-of-two denominator.  Any other string is an InputError."""
        text = text.strip()
        if '*2^' in text:
            m, _, e = text.partition('*2^')
            return Dyadic(decimal_int(m), decimal_int(e))
        if text.startswith('2^'):
            return Dyadic(1, decimal_int(text[2:]))
        if text.startswith('-2^'):
            return Dyadic(-1, decimal_int(text[3:]))
        if '/' in text or '.' in text or 'e' in text or 'E' in text:
            return Dyadic.from_fraction(decimal_fraction(text))
        return Dyadic(decimal_int(text))

    def __str__(self):
        return '%s*2^%d' % (decimal_digits(self.m), self.e)

    def __repr__(self):
        return 'Dyadic(%s, %d)' % (decimal_digits(self.m), self.e)

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
        a, b, c = self.m, other.m, self.e - other.e
        if not (a and b):
            return self if a else other
        if not c:
            return _normal(a + b, self.e)
        # one mantissa odd and the other shifted: the sum is odd
        return _dyadic((a << c) + b, other.e) if c > 0 else _dyadic(a + (b << -c), self.e)

    def __neg__(self):
        return _dyadic(-self.m, self.e)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        return _dyadic(self.m * other.m, self.e + other.e) if self.m and other.m else ZERO

    __radd__ = __add__
    __rmul__ = __mul__

    def __abs__(self):
        return _dyadic(abs(self.m), self.e)

    def __pow__(self, k):
        k = index(k)
        if k < 0:
            raise IndexOutOfRange("need a nonnegative exponent, got %d" % k)
        return _dyadic(self.m ** k, self.e * k)

    def half_sum(self, other):
        """The exact midpoint (self + other) / 2."""
        s = self + other
        return _dyadic(s.m, s.e - 1) if s.m else ZERO

    # -- exact ordering --

    def _cmp(self, other):
        """Settled by a common exponent, by sign, then by bit position
        |m|.bit_length() + e.  Only when both agree are the mantissas
        shifted to one exponent, and by no more than their own lengths."""
        other = _coerce(other)
        a, b = self.m, other.m
        if self.e == other.e or (a ^ b) < 0 or not a or not b:
            # one exponent, or the signs differ or one is zero: the mantissas' order
            return (a > b) - (a < b)
        c = a.bit_length() + self.e - b.bit_length() - other.e
        if c:
            return 1 if (c > 0) == (a > 0) else -1
        c = self.e - other.e
        if c > 0:
            a <<= c
        else:
            b <<= -c
        return (a > b) - (a < b)

    def __eq__(self, other):
        if isinstance(other, Dyadic):  # canonical forms
            return self.m == other.m and self.e == other.e
        if not isinstance(other, int):
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


def _dyadic(m, e):
    """The Dyadic m * 2^e, trusted to be canonical: m odd, or m = e = 0.
    Negation, abs, products and powers keep a mantissa odd."""
    d = object.__new__(Dyadic)
    d.m, d.e = m, e
    return d


def _normal(m, e):
    """The Dyadic m * 2^e for ints m and e, in canonical form."""
    zeros = (m & -m).bit_length() - 1
    return _dyadic(m >> zeros, e + zeros) if m else ZERO


ZERO = Dyadic(0)
ONE = Dyadic(1)


def _horner(cs, n, k):
    """The sum of cs[i] * n^i * 2^(k * (d - i)) for d = len(cs) - 1: the
    integer polynomial cs at n * 2^-k, times 2^(k * d)."""
    out = 0
    shift = 0
    for c in reversed(cs):
        out = out * n + (c << shift)
        shift += k
    return out


class DyadicPoly:
    """A polynomial with dyadic coefficients, ascending degree, also held
    as integers on their common exponent: coeffs[i] = ints[i] * 2^exp."""

    __slots__ = ('coeffs', 'ints', 'exp')

    def __init__(self, coeffs):
        self.coeffs = tuple(_coerce(c) for c in coeffs)
        self.exp = min((c.e for c in self.coeffs), default=0)
        self.ints = tuple(c.m << (c.e - self.exp) for c in self.coeffs)

    def __call__(self, x):
        x = _coerce(x)
        if x.e >= 0:
            return _normal(_horner(self.ints, x.m << x.e, 0), self.exp)
        return _normal(_horner(self.ints, x.m, -x.e), self.exp + x.e * (len(self.ints) - 1))

    def __repr__(self):
        return 'DyadicPoly(%r)' % (list(self.coeffs),)


def finite_series(xs, l, m):
    """Sum of xs[l..m] (1-based, inclusive) by the running recursion.
    When the terms span more than HORNER_BITS_CAP bits, from the highest
    bit position to the least exponent, CapExceeded is raised at once."""
    if not 1 <= l <= m <= len(xs):
        raise IndexOutOfRange("need 1 <= l <= m <= %d, got (%d, %d)" % (len(xs), l, m))
    terms = [x for x in map(_coerce, xs[l - 1:m]) if x.m]
    if terms:
        span = max(abs(x.m).bit_length() + x.e for x in terms) - min(x.e for x in terms)
        if span > HORNER_BITS_CAP:
            _over_budget(span, "xs[%d..%d] spans", l, m)
    s = xs[l - 1]
    for k in range(l, m):
        s = s + xs[k]
    return s


def geometric_partial_sum(x, m):
    """Sum of x^k for k = 0..m, exactly, by the running recursion.

    The sum grows by about abs(x.m).bit_length() + abs(x.e) bits a term,
    so the time is quadratic in m.  When m times that passes
    HORNER_BITS_CAP, CapExceeded is raised before the first term.
    For x = 0 the sum is 1, whatever m."""
    x = _coerce(x)
    if x.m == 0:
        return ONE
    per = abs(x.m).bit_length() + abs(x.e)
    if m * per > HORNER_BITS_CAP:
        _over_budget(m * per, "%d terms of x = %s, counted at %d bits a term, take", m, x, per)
    s = ONE
    p = ONE
    for _ in range(m):
        p = p * x
        s = s + p
    return s


def geometric_limit(x):
    """The value 1 / (1 - x) the partial sums approach for |x| < 1.

    1 - x is a Dyadic m * 2^e with m odd and positive, so 1 / (1 - x)
    is 2^-e / m: dyadic iff m = 1.  Otherwise NonDyadicClosedForm
    carries that exact pair, in lowest terms; e < 0 there, so 2^-e is
    the longer of the two.  When it is longer than HORNER_BITS_CAP bits,
    CapExceeded is raised before the pair is built."""
    x = _coerce(x)
    if not (abs(x) < ONE):
        raise IndexOutOfRange("limit exists only for |x| < 1")
    d = ONE - x
    if d.m == 1:
        return _dyadic(1, -d.e)
    if 1 - d.e > HORNER_BITS_CAP:
        _over_budget(1 - d.e, "1/(1 - x) for x = %s is not dyadic; its numerator has", x)
    raise NonDyadicClosedForm(1 << -d.e, d.m)


def _ceil_log2_ratio(u, v):
    """The least j with u <= v * 2^j, for u, v > 0."""
    j = u.bit_length() - v.bit_length()
    if j >= 0:
        return j if u <= v << j else j + 1
    return j if u << -j <= v else j + 1


def _horner_bits(ints, shift, wm, wshift, reach):
    """The longest Horner term on the starting grid, reach plus the
    longest of [c << shift for c in ints] with wm << wshift taken from
    the first: exact, or a lower bound past HORNER_BITS_CAP.  Only those
    two parts are shifted, where their bit positions lie within 1 of
    each other or the result is at most HORNER_BITS_CAP + 2 bits."""
    # bit positions on the common exponent, a zero's being 0
    top = max(map(int.bit_length, ints[1:]), default=0)
    top = top and top + shift
    c = ints[0] if ints else 0
    u = c and c.bit_length() + shift
    v = wm and wm.bit_length() + wshift
    # 2 or more apart, their difference is the longer's length give or take 1
    least = max(top, u - 1, v - 1) + reach
    if least > HORNER_BITS_CAP and abs(u - v) > 1:
        return least
    return max(top, ((c << shift) - (wm << wshift)).bit_length()) + reach


def _bisection_start(p, a, b, w, tol):
    """The checks and the starting grid of a bisection of p on [a, b]
    towards w, in the order bisection_invert and mth_root raise them:
    the arguments, the Horner bit budget, the endpoints' bracket and
    exact hits, then the step cap.

    Returns (hit, k, x, y, steps, cs, sx).  hit is the endpoint a or b
    at which p is w, else None.  [a, b] is [x, y] * 2^-k, and steps
    halvings take it to width at most tol; for a constant p, which hits
    or raises, x, y and steps are 0.  cs are p's integers with w
    folded into the constant coefficient, and sx is the sign of p - w
    at a.
    """
    a, b, w, tol = _coerce(a), _coerce(b), _coerce(w), _coerce(tol)
    if not a < b:
        raise IndexOutOfRange("need a < b")
    if not tol > ZERO:
        raise IndexOutOfRange("need tol > 0")
    k = -min(a.e, b.e, 0)
    d = max(len(p.ints) - 1, 0)
    # On the grid a nonzero endpoint is its bit position plus k bits
    # long, and a zero's position is 0.  So the Horner term
    # cs[i] * x^i * 2^(k * (d - i)) is at most reach bits longer than cs[i].
    reach = d * (k + max(a.m.bit_length() + a.e, b.m.bit_length() + b.e, 0))
    what = "bisection from [%s, %s] on the grid 2^-%d at degree %d sums terms of"
    if reach > HORNER_BITS_CAP:
        _over_budget(reach, what, a, b, k, d)
    if d:
        x = a.m << (a.e + k)
        y = b.m << (b.e + k)
        steps = max(0, _ceil_log2_ratio(y - x, tol.m) - tol.e - k)
    else:
        # p - w is a constant, of one sign on all of [a, b]: it hits at
        # a or raises BracketViolation(0) below, so the endpoints are
        # never placed on the grid, however far out they lie
        x = y = steps = 0
    # p is a multiple of 2^g at every point visited.  A w off that
    # lattice has the signs, and no hits, of the odd multiple of
    # 2^(g - 1) next to it, so the fold never shifts p to w's exponent.
    # Zero is on every lattice, whatever its stored exponent.
    g = p.exp - d * (k + steps)
    if w.m and w.e < g:
        wm, we = ((w.m >> (g - w.e)) << 1) + 1, g - 1
    else:
        # zero lies on every lattice, so it does not set the exponent f
        wm, we = w.m, w.e if w.m else p.exp
    f = min(p.exp, we)
    shift = p.exp - f
    bits = _horner_bits(p.ints, shift, wm, we - f, reach)
    if bits > HORNER_BITS_CAP:
        _over_budget(bits, what, a, b, k, d)
    cs = [c << shift for c in p.ints] or [0]
    cs[0] -= wm << (we - f)
    fx = _horner(cs, x, k)
    fy = _horner(cs, y, k)
    sx = (fx > 0) - (fx < 0)
    sy = (fy > 0) - (fy < 0)
    if sx * sy > 0:
        raise BracketViolation(0)
    hit = a if not sx else b if not sy else None
    if hit is None and steps * max(d, 1) > BISECTION_CAP:
        raise CapExceeded("bisection to tol %s takes %d steps at degree %d; "
                          "steps x degree is capped at %d"
                          % (tol, steps, d, BISECTION_CAP))
    return hit, k, x, y, steps, cs, sx


def bisection_invert(p, a, b, w, tol, trace=None):
    """Find x in [a, b] with p(x) close to w by exact bisection.

    p must be a DyadicPoly.  Requires a < b, tol > 0, and w bracketed
    between p(a) and p(b); p should be strictly monotone on [a, b] --
    violations surface as a BracketViolation when the invariant
    min(p(x), p(y)) <= w <= max(p(x), p(y)) breaks.  Stops once the
    interval width is at most tol (the width after n steps is exactly
    (b - a) / 2^n) and returns the left endpoint; an exact hit p(z) = w
    returns z at once.  If given, trace receives one (x, y, p(x), p(y))
    tuple per step.  Raises CapExceeded, before the endpoints are
    evaluated, when their Horner sums would pass HORNER_BITS_CAP bits,
    and before the first step when the steps times max(degree, 1) pass
    BISECTION_CAP.

    Step s visits the grid N * 2^-(k0 + s), so the endpoints are kept as
    integer numerators x, y: the midpoint is x + y once both are
    doubled.  The sign of p - w there is that of one integer Horner sum
    with -w folded into the constant coefficient.
    """
    hit, k, x, y, steps, cs, sx = _bisection_start(p, a, b, w, tol)
    if hit is not None:
        return hit
    ints, d = p.ints, len(p.ints) - 1
    if trace is not None:
        px, py = _horner(ints, x, k), _horner(ints, y, k)
    sy = -sx
    for step in range(1, steps + 1):
        z = x + y
        x <<= 1
        y <<= 1
        k += 1
        fz = _horner(cs, z, k)
        if not fz:
            return _normal(z, -k)
        sz = 1 if fz > 0 else -1
        left = sx * sz <= 0
        if left:
            y, sy = z, sz
        else:
            x, sx = z, sz
        if sx * sy > 0:
            raise BracketViolation(step)
        if trace is not None:
            # a numerator doubled on the grid one finer: p's sum doubles d times
            pz = _horner(ints, z, k)
            px, py = (px << d, pz) if left else (pz, py << d)
            e = p.exp - d * k
            trace.append((_normal(x, -k), _normal(y, -k), _normal(px, e), _normal(py, e)))
    return _normal(x, -k)


def _iroot(n, m):
    """The greatest r with r^m <= n, for n >= 0 and m >= 1."""
    if m == 1 or n < 2:
        return n
    if m == 2:
        return isqrt(n)
    # From r above the root (r^m > n, so n // r^(m - 1) < r) Newton's
    # step falls, and by AM-GM never below the root: the first step
    # that does not fall starts from the root.
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def mth_root(a, m, tol):
    """Approximate the m-th root of a >= 0 from below: the result r
    satisfies r^m <= a < (r + tol)^m.

    r is the left endpoint bisection_invert reaches for x^m = a on
    [0, max(a, 1)], bit for bit, with the same error types in the same
    order, both caps included, but in closed form.  The bisection ends
    on [j * W, (j + 1) * W], W = y * 2^-K = max(a, 1) / 2^steps, at the
    greatest j with (j * W)^m <= a; a midpoint hit (j * W)^m = a ends it
    at that same point.  So j is the integer m-th root of a * 2^(m * K),
    floor-divided by y, and no step is taken.
    """
    a, tol = _coerce(a), _coerce(tol)
    if m < 1:
        raise IndexOutOfRange("need m >= 1")
    if a < ZERO:
        raise IndexOutOfRange("need a >= 0")
    # [0, max(a, 1)] is never empty, so tol comes next, then the bit
    # budget, here too so that no x^m is built for a huge m: its leading
    # coefficient and y = max(a, 1) * 2^k have a bit or more each.
    if not tol > ZERO:
        raise IndexOutOfRange("need tol > 0")
    if m + 1 > HORNER_BITS_CAP:
        _over_budget(m + 1, "x^%d sums terms of", m)
    hi = a if a > ONE else ONE
    hit, k, _, y, steps, _, _ = _bisection_start(DyadicPoly([ZERO] * m + [ONE]), ZERO, hi, a, tol)
    if hit is not None:
        return hit
    K = k + steps
    s = a.e + m * K
    return _normal(_iroot(a.m << s if s >= 0 else a.m >> -s, m) // y * y, -K)


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
    Cauchy-Schwarz verdict for xs and ys, whose dot product refuses
    vectors of two lengths or none."""
    cauchy_schwarz = cauchy_schwarz_check(xs, ys)
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
        'cauchy_schwarz': cauchy_schwarz,
    }


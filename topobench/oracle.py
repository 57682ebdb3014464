"""Answers computed apart from fintopo, against which the benchmark
checks every result it times.

Everything here goes through the specialization preorder: U[x] is the
smallest open set containing x, the intersection of the opens (or of the
subbase members) that contain x.  From it

    closure(A)  = {x : U[x] meets A}
    interior(A) = {x : U[x] is inside A}
    opens       = the sets A with U[x] inside A for every x in A

and a map f is continuous iff f[U[x]] lies inside U[f(x)].  Sets are int
bit masks, as in fintopo, but no code of fintopo is imported.

The published constants are the OEIS sequences for n = 0..5 points.
"""

from fractions import Fraction
from itertools import permutations

A000798 = (1, 1, 4, 29, 355, 6942)   # topologies on n labelled points
A001035 = (1, 1, 3, 19, 219, 4231)   # T0 topologies (partial orders)
A001930 = (1, 1, 3, 9, 33, 139)      # topologies up to homeomorphism


def points(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(pts):
    m = 0
    for p in pts:
        m |= 1 << p
    return m


def minimal_opens(n, family):
    """U[x]: the intersection of the members of family that contain x
    (the whole carrier when none does)."""
    full = (1 << n) - 1
    ux = [full] * n
    for s in family:
        for x in range(n):
            if s >> x & 1:
                ux[x] &= s
    return tuple(ux)


def is_open(ux, a):
    """A is open iff it is an up-set of the specialization preorder."""
    for x in range(len(ux)):
        if a >> x & 1 and ux[x] & ~a:
            return False
    return True


def opens(n, ux):
    """All open sets, ascending: the up-sets of the preorder."""
    return [a for a in range(1 << n) if is_open(ux, a)]


def point_closures(n, ux):
    """cl{x} = {y : x in U[y]}."""
    return tuple(mask_of(y for y in range(n) if ux[y] >> x & 1) for x in range(n))


def closure(ux, a):
    return mask_of(x for x in range(len(ux)) if ux[x] & a)


def interior(ux, a):
    return mask_of(x for x in range(len(ux)) if ux[x] & ~a == 0)


def derived(ux, a):
    """x is a limit point of A iff U[x] meets A away from x."""
    return mask_of(x for x in range(len(ux)) if ux[x] & a & ~(1 << x))


def closure_table(n, ux):
    return tuple(closure(ux, a) for a in range(1 << n))


def interior_table(n, ux):
    return tuple(interior(ux, a) for a in range(1 << n))


def analyze(n, ux, a):
    full = (1 << n) - 1
    cl = closure(ux, a)
    return {'interior': interior(ux, a), 'closure': cl, 'derived': derived(ux, a),
            'boundary': cl & closure(ux, full ^ a), 'dense': cl == full}


def limits_of_core(ux, core):
    """Limits of the principal filter (or of a sequence whose cycle
    values are) core: the x with core inside U[x]."""
    return mask_of(x for x in range(len(ux)) if core & ~ux[x] == 0)


def image(images, a):
    m = 0
    for x, y in enumerate(images):
        if a >> x & 1:
            m |= 1 << y
    return m


def is_continuous(ux_src, ux_dst, images):
    return all(image(images, ux_src[x]) & ~ux_dst[images[x]] == 0
               for x in range(len(ux_src)))


def is_open_map(ux_src, ux_dst, images):
    """Every open is a union of U[x], and images keep unions."""
    return all(is_open(ux_dst, image(images, u)) for u in ux_src)


def is_closed_map(ux_src, ux_dst, images):
    """Every closed set is a union of point closures."""
    n_dst = len(ux_dst)
    full = (1 << n_dst) - 1
    return all(is_open(ux_dst, full ^ image(images, c))
               for c in point_closures(len(ux_src), ux_src))


def is_homeomorphism(ux1, ux2, images):
    n = len(ux1)
    return (len(ux2) == n and sorted(images) == list(range(n))
            and all(image(images, ux1[x]) == ux2[images[x]] for x in range(n)))


def preorders(n):
    """Every preorder on n points, as its tuple U (x in U[x], and y in
    U[x] implies U[y] inside U[x]).  Brute force, meant for n <= 4."""
    choices = [[m for m in range(1 << n) if m >> x & 1] for x in range(n)]
    out = []

    def rec(x, ux):
        if x == n:
            if all(ux[y] & ~ux[z] == 0 for z in range(n) for y in points(ux[z])):
                out.append(tuple(ux))
            return
        for m in choices[x]:
            rec(x + 1, ux + [m])

    rec(0, [])
    return out


def relabel(ux, perm):
    """U of the space whose point perm[x] plays the part of x."""
    out = [0] * len(ux)
    for x, u in enumerate(ux):
        out[perm[x]] = image(perm, u)
    return tuple(out)


def canonical_form(n, ux):
    """The least relabelling of U: equal iff homeomorphic."""
    return min(relabel(ux, p) for p in permutations(range(n)))


def product_ux(ux1, ux2):
    """U of the product on the row-major carrier, point i * n2 + j."""
    n2 = len(ux2)
    out = []
    for i in range(len(ux1)):
        for j in range(n2):
            out.append(mask_of(a * n2 + b for a in points(ux1[i]) for b in points(ux2[j])))
    return tuple(out)


def dyadic(text):
    """The exact value of a dyadic literal 'm*2^e'."""
    m, e = text.split('*2^')
    return Fraction(int(m)) * Fraction(2) ** int(e)

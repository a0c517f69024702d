"""Ray diagrams: Kochen-Specker-style Greechie diagrams of integer rays.

`R(d, m)` has one atom per ray through a primitive vector of {-m..m}^d,
the vector whose first nonzero entry is positive.  Its blocks are the sets
of d pairwise orthogonal rays, its atoms the rays in some block.  An atom
is named by its coordinates, as in "1,0,-1".

The closed `R(3, m)` completes each orthogonal pair of those rays by the
ray of its cross product, which may leave {-m..m}^3; its blocks are the
distinct triads, its atoms the rays in some triad.
"""

import itertools
import math

import partlogic as P


def rays(d, m):
    """The primitive vectors of {-m..m}^d with first nonzero entry positive."""
    return [
        v
        for v in itertools.product(range(-m, m + 1), repeat=d)
        if math.gcd(*v) == 1 and next(x for x in v if x) > 0
    ]


def bases(d, m):
    """Each d-set of pairwise orthogonal rays, as a tuple in ray order."""
    vs = rays(d, m)
    # later[i]: the rays after ray i orthogonal to it
    later = [
        {j for j in range(i + 1, len(vs)) if sum(map(math.prod, zip(vs[i], vs[j]))) == 0}
        for i in range(len(vs))
    ]
    found = []

    def grow(chosen, candidates):
        if len(chosen) == d:
            found.append(tuple(vs[i] for i in chosen))
            return
        for i in sorted(candidates):
            grow(chosen + [i], candidates & later[i])

    grow([], set(range(len(vs))))
    return found


def name(v):
    return ",".join(map(str, v))


def R(d, m):
    """The ray diagram of the primitive vectors in {-m..m}^d."""
    blocks = [[name(v) for v in b] for b in bases(d, m)]
    return P.GreechieDiagram(dict.fromkeys(a for b in blocks for a in b), blocks)


def primitive(v):
    """The vector of v's ray: divided by its gcd, first nonzero entry positive."""
    g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
    return tuple(x // g for x in v)


def closed_R(m):
    """The cross-product closure of R(3, m)."""
    vs = rays(3, m)
    triads = {}
    for u, v in itertools.combinations(vs, 2):
        if sum(map(math.prod, zip(u, v))) == 0:
            (a, b, c), (x, y, z) = u, v
            w = primitive((b * z - c * y, c * x - a * z, a * y - b * x))
            triads.setdefault(frozenset((u, v, w)), (u, v, w))
    blocks = [[name(x) for x in t] for t in triads.values()]
    return P.GreechieDiagram(dict.fromkeys(a for b in blocks for a in b), blocks)


def shuffled(diagram, rng):
    """A copy with the atom names permuted and the blocks reordered."""
    names = list(diagram.atoms)
    rng.shuffle(names)
    rename = dict(zip(diagram.atoms, names))
    blocks = [[rename[a] for a in b] for b in diagram.blocks]
    rng.shuffle(blocks)
    return P.GreechieDiagram(dict.fromkeys(a for b in blocks for a in b), blocks)

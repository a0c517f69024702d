"""Finite quasi-orthoalgebras: partial sum tables, axiom checks, blocks, pasting.

A table is a finite labelled set with designated 0 and 1 and a partial
commutative sum.  Everything here is exhaustive and deterministic: scans run
in element-index order and results are reported in that order.
"""

import functools
import itertools
from collections import defaultdict, namedtuple
from dataclasses import dataclass

from .errors import AxiomViolationError, PastingError, StructureError

QUASI_AXIOMS = ("oai", "oaii", "oaiii", "oaiv", "oav", "oavi")
_Kernel = namedtuple("_Kernel", "rows partners complements up down")


def format_label(label):
    """Human-readable form of an element label (point sets print sorted)."""
    if isinstance(label, frozenset):
        return "{%s}" % ",".join(sorted(map(str, label)))
    return str(label)


def cell_key(cell):
    """Canonical sort key of a point set: its points' labels in order."""
    return tuple(sorted(map(str, cell)))


def label_key(label):
    """Deterministic sort key for element labels."""
    if isinstance(label, frozenset):
        return (1, len(label), cell_key(label))
    return (0, 0, (str(label),))


def bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _in_order(masks):
    """Masks in canonical order: by size, then by descending mask."""
    return sorted(sorted(masks, reverse=True), key=int.bit_count)


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom scan: the established class plus failure witnesses."""

    structure_class: str
    violations: tuple

    @property
    def passed(self):
        return not self.violations

    def failing_axioms(self):
        return tuple(v.axiom for v in self.violations)


class FiniteQuasiOrthoalgebra:
    """A finite set with 0, 1 and a partial commutative sum, given as a table.

    Element labels are opaque hashable values; their order fixes every
    deterministic output (block lists, counterexample scans, serialization).
    The constructor is permissive so that verifiers can diagnose bad tables.
    Instances are treated as immutable once built.  The scans run on the
    integer rows of `rows`; `table`, `value`, `defined`, `pairs` and
    `sums_from` are label views.
    """

    def __init__(self, elements, zero, one, oplus):
        self.elements = tuple(elements)
        self.zero = zero
        self.one = one
        self.table = dict(oplus)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._kern = None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "FiniteQuasiOrthoalgebra(%d elements)" % len(self.elements)

    def index(self, a):
        return self._index[a]

    def defined(self, a, b):
        return (a, b) in self.table

    def value(self, a, b):
        return self.table[(a, b)]

    def sums_from(self, a):
        """Map b -> a + b over all partners b of a."""
        el = self.elements
        return {el[j]: el[k] for j, k in self.rows()[self._index[a]].items()}

    def rows(self):
        """The sum on element indices: rows()[i][j] = k iff e_i + e_j = e_k.

        Each row lists its partners j in ascending order.  Entries naming a
        non-element are left out; `structural_check` reports them.
        """
        return self._kernel().rows

    def _kernel(self):
        """The rows plus four int bitmasks per element, built in one pass.

        Returns a _Kernel (rows, partners, complements, up, down).  Bit j of
        partners[i]: e_i + e_j is defined; of complements[i]: it is 1; of
        up[i], and bit i of down[j]: e_i <= e_j, i.e. e_i + c = e_j for
        some c.
        """
        if self._kern is None:
            index, n = self._index, len(self.elements)
            one = index.get(self.one)
            rows = [{} for _ in range(n)]
            partners, comps, up, down = [0] * n, [0] * n, [0] * n, [0] * n
            for (a, b), c in self.table.items():
                i, j, k = index.get(a), index.get(b), index.get(c)
                if i is None or j is None or k is None:
                    continue
                rows[i][j] = k
                partners[i] |= 1 << j
                if k == one:
                    comps[i] |= 1 << j
                up[i] |= 1 << k
                down[k] |= 1 << i
            rows = [dict(sorted(row.items())) for row in rows]
            self._kern = _Kernel(rows, partners, comps, up, down)
        return self._kern

    def partners(self, a):
        """Partners of a in element-index order."""
        partners = self._kernel().partners[self._index[a]]
        return [self.elements[j] for j in bits(partners)]

    def complements(self, a):
        """All b with a + b = 1, in element-index order."""
        comps = self._kernel().complements[self._index[a]]
        return [self.elements[j] for j in bits(comps)]

    def complement(self, a):
        """The unique orthocomplement; raises when it is not unique."""
        cs = self.complements(a)
        if len(cs) != 1:
            raise AxiomViolationError(
                "oaiii",
                "%s has %d complements" % (format_label(a), len(cs)),
            )
        return cs[0]

    def pairs(self):
        """Defined sum pairs in element-index order."""
        el = self.elements
        for i, j, k in _entries(self.rows()):
            yield el[i], el[j], el[k]


def _entries(rows):
    """Index triples (i, j, k) with e_i + e_j = e_k, in element-index order."""
    for i, row in enumerate(rows):
        for j, k in row.items():
            yield i, j, k


def _only(mask):
    """The index of the single set bit of mask, or None."""
    return mask.bit_length() - 1 if mask and not mask & (mask - 1) else None


def _bounds(table):
    """The indices of 0 and 1; raises StructureError unless both are elements."""
    for name, e in (("zero", table.zero), ("one", table.one)):
        if e not in table._index:
            raise StructureError("%s is not an element" % name)
    return table.index(table.zero), table.index(table.one)


def structural_check(table):
    """Raise StructureError unless the raw table is well-formed."""
    seen = set()
    for e in table.elements:
        if e in seen:
            raise StructureError("duplicate element label %s" % format_label(e))
        seen.add(e)
    _bounds(table)
    if table.zero == table.one:
        raise StructureError("zero and one coincide")
    for (a, b), c in table.table.items():
        if a not in seen or b not in seen or c not in seen:
            raise StructureError(
                "sum entry %s + %s = %s mentions a non-element"
                % (format_label(a), format_label(b), format_label(c))
            )


def _scans(table):
    """Lazy scans for each axiom's counterexamples, as index tuples in scan order."""
    rows, _, comps, _, _ = table._kernel()
    zero, _ = _bounds(table)
    comp = [_only(c) for c in comps]
    return {
        "oai": ((i, j) for i, j, k in _entries(rows) if rows[j].get(i) != k),
        "oaii": ((i,) for i, row in enumerate(rows) if row.get(zero) != i),
        "oaiii": ((i,) for i, c in enumerate(comp) if c is None),
        # oaiv and oav quantify over nested sums; skip pairs whose complement
        # is not unique (already charged to oaiii)
        "oaiv": (
            (i, j)
            for i, c in enumerate(comp)
            if c is not None
            for j, k in rows[c].items()
            if k in rows[i] and j != zero
        ),
        "oav": ((i, j) for i, j, k in _entries(rows) if k in rows[i] and i != zero),
        "oavi": (
            (i, j)
            for i, j, k in _entries(rows)
            if None not in (comp[j], comp[k]) and rows[i].get(comp[k]) != comp[j]
        ),
        # a+b and (a+b)+c defined force b+c and a+(b+c), all equal
        "oavii": (
            (i, j, c)
            for i, j, ab in _entries(rows)
            for c, abc in rows[ab].items()
            if rows[i].get(rows[j].get(c)) != abc
        ),
        "oav*": ((i,) for i, row in enumerate(rows) if i in row and i != zero),
    }


def _violations(table, axioms):
    """The given axioms that fail, each with its first witness, in order."""
    scans = _scans(table)
    el = table.elements
    firsts = ((ax, next(scans[ax], None)) for ax in axioms)
    return tuple(
        Violation(ax, tuple(el[i] for i in w)) for ax, w in firsts if w is not None
    )


def _is_orthoalgebra(table):
    """Whether the table passes the quasi axioms and associativity.

    `blocks` prunes its candidates by compatibility only on tables that
    pass.  The states do not ask: `states._atom_tests` checks the
    decompositions of 1 instead.
    """
    return not _violations(table, QUASI_AXIOMS + ("oavii",))


def verify_quasi_oa(table):
    """Check the six quasi-orthoalgebra axioms exhaustively."""
    structural_check(table)
    violations = _violations(table, QUASI_AXIOMS)
    cls = "quasi_oa" if not violations else "not_quasi_oa"
    return AxiomReport(cls, violations)


def verify_oa(table):
    """Check the quasi-orthoalgebra axioms plus associativity."""
    report = verify_quasi_oa(table)
    if not report.passed:
        return report
    assoc = _violations(table, ("oavii",))
    return AxiomReport("quasi_oa" if assoc else "orthoalgebra", assoc)


def verify_oa_golfin(table):
    """Check the alternative four-axiom characterization of orthoalgebras."""
    structural_check(table)
    found = _violations(table, ("oai", "oaiii", "oavii", "oav*"))
    if not found:
        return AxiomReport("orthoalgebra", ())
    axioms = {v.axiom for v in found}
    # failing only associativity still leaves a possible quasi-orthoalgebra
    cls = "quasi_oa" if axioms == {"oavii"} else "not_quasi_oa"
    return AxiomReport(cls, found)


def orthocomplement(table, a):
    """The unique a' with a + a' = 1."""
    return table.complement(a)


def leq(table, a, b):
    """a <= b iff some c has a + c = b."""
    up = table._kernel().up
    return bool(up[table.index(a)] >> table.index(b) & 1)


def order_transitivity_counterexample(table):
    """First (a, b, c) with a <= b <= c but not a <= c, or None."""
    up = table._kernel().up
    elements = table.elements
    for i, a in enumerate(elements):
        for j in bits(up[i] & ~(1 << i)):
            beyond = up[j] & ~up[i] & ~(1 << i) & ~(1 << j)
            if beyond:
                return (a, elements[j], elements[next(bits(beyond))])
    return None


def join(table, a, b):
    """Least upper bound of a and b under <=, or None."""
    up = table._kernel().up
    common = up[table.index(a)] & up[table.index(b)]
    for x in bits(common):
        if not common & ~up[x]:
            return table.elements[x]
    return None


def _minimal(table, mask):
    """Indices of the <=-minimal nonzero members of an index mask, ascending."""
    down = table._kernel().down
    mask &= ~(1 << table.index(table.zero))
    return [p for p in bits(mask) if not down[p] & mask & ~(1 << p)]


def _decompositions(table):
    """The decompositions of 1 into atoms, and an atom set summing to each element.

    One depth-first search over the atoms in index order adds an atom while
    the running sum is defined, so it meets each summable atom set once.
    Sets are int masks over element indices.  Returns (ones, dec): the sets
    summing to 1, and dec[i], the first set met summing to e_i (else None).
    """
    rows = table.rows()
    atoms = _minimal(table, (1 << len(rows)) - 1)
    one = table.index(table.one)
    ones, dec = [], [None] * len(rows)
    stack = [(table.index(table.zero), 0, 0)]
    while stack:
        total, mask, start = stack.pop()
        if dec[total] is None:
            dec[total] = mask
        if total == one:
            ones.append(mask)
        for k in range(start, len(atoms)):
            s = rows[total].get(atoms[k])
            if s is not None:
                stack.append((s, mask | 1 << atoms[k], k + 1))
    return ones, dec


def hasse_covers(table):
    """Pairs (a, b) with a < b and nothing strictly between, in index order."""
    _, _, _, up, down = table._kernel()
    above = [u & ~d for u, d in zip(up, down)]
    below = [d & ~u for u, d in zip(up, down)]
    return [
        (a, table.elements[j])
        for i, a in enumerate(table.elements)
        for j in bits(above[i])
        if not above[i] & below[j]
    ]


# ---------------------------------------------------------------------------
# blocks


def _closure(table, seed):
    """Close an index set under complements and defined sums; None if uncloseable."""
    rows, _, comps, _, _ = table._kernel()
    out = set(seed) | {table.index(table.zero), table.index(table.one)}
    work = list(out)
    while work:
        x = work.pop()
        c = _only(comps[x])
        if c is None:
            return None
        if c not in out:
            out.add(c)
            work.append(c)
        row = rows[x]
        for y in list(out):
            z = row.get(y)
            if z is not None and z not in out:
                out.add(z)
                work.append(z)
    return frozenset(out)


def _boolean(table, subset):
    """Atom indices and the subset sums when an index set is Boolean, else None.

    The test: the <=-minimal nonzero members p1..pk satisfy |subset| = 2^k
    and every member is the sum of exactly one subset of the p_i (summed in
    a fixed order; all such sums must be defined).  The sums are listed by
    bitmask over the positions in mins, each adding its highest atom last.
    """
    rows = table.rows()
    mins = _minimal(table, sum(1 << i for i in subset))
    if len(subset) != 2 ** len(mins):
        return None
    sums = [table.index(table.zero)]
    for p in mins:
        for m in range(len(sums)):
            s = rows[sums[m]].get(p)
            if s is None:
                return None
            sums.append(s)
    if set(sums) != set(subset):
        return None
    return mins, sums


def boolean_atoms(table, subset):
    """Local atoms and the subset-sum map when `subset` is Boolean, else None."""
    found = _boolean(table, {i for i, e in enumerate(table.elements) if e in subset})
    if found is None:
        return None
    mins, sums = found
    el = table.elements
    atoms = tuple(el[p] for p in mins)
    return atoms, {key: el[v] for key, v in zip(subsets(atoms), sums)}


def _compatible(table, p):
    """Mask of the elements x that pass a necessary test of compatibility with e_p.

    x passes when e_p <= x, when e_p + x is defined, or when nonzero
    elements under e_p lie under x and under x'.  In an orthoalgebra two
    members of one Boolean subalgebra pass: e_p is the sum of its part
    under x and its part under x'.
    """
    _, partners, comps, up, down = table._kernel()
    over = 0
    for d in bits(down[p] & ~(1 << table.index(table.zero))):
        over |= up[d]
    split = sum(1 << x for x in bits(over) if comps[x] & over)
    return up[p] | partners[p] | split


def _blocks(table):
    """All maximal Boolean sub-structures, as index triples (members, atoms, sums).

    Grown depth-first from {0, 1}: each Boolean closed subset popped off a
    stack is extended by one element at a time, the extensions that close
    to Boolean sets not met before are pushed, and the subsets admitting
    none are reported with the atoms and sums `_boolean` proved them by.
    On an orthoalgebra an element is tried only when it is `_compatible`
    with each atom of the subset; the members of a Boolean extension all
    are, so none is lost.  On any other table a subset passing `_boolean`
    need not pass that test, so every element is tried.
    """
    start = _closure(table, ())
    found = None if start is None else _boolean(table, start)
    if found is None:
        return []
    everything = (1 << len(table.elements)) - 1
    pruned = _is_orthoalgebra(table)
    compatible = {}
    # a set is pushed once, with its mask, atoms and sums; one met again is Boolean
    seen = {start}
    maximal = {}
    stack = [(start, sum(1 << i for i in start), found)]
    while stack:
        current, mask, found = stack.pop()
        candidates = everything & ~mask
        if pruned:
            for p in found[0]:
                if p not in compatible:
                    compatible[p] = _compatible(table, p)
                candidates &= compatible[p]
        extended = False
        for x in bits(candidates):
            grown = _closure(table, current | {x})
            if grown is None:
                continue
            if grown not in seen:
                boolean = _boolean(table, grown)
                if boolean is None:
                    continue
                seen.add(grown)
                stack.append((grown, sum(1 << i for i in grown), boolean))
            extended = True
        if not extended:
            maximal[current] = found
    # a set reported maximal on one path may still sit inside another block
    return sorted(
        (tuple(sorted(blk)), *found)
        for blk, found in maximal.items()
        if not any(other != blk and blk < other for other in maximal)
    )


def blocks(table):
    """All maximal Boolean sub-structures, as element tuples in index order."""
    el = table.elements
    return [tuple(el[i] for i in members) for members, _, _ in _blocks(table)]


def is_omp(table):
    """Check whether a table is an orthomodular poset.

    A table failing `verify_oa` gets that report.  In an orthoalgebra <= is
    a partial order, ' is an order-reversing involution with a v a' = 1,
    and a + b is a minimal upper bound of a and b (Foulis, Greechie and
    Ruettimann 1992), so it is an OMP exactly when every sum a + b is the
    join of a and b.  The class is "omp", or else "orthoalgebra" with the
    first pair (a, b), in element-index order, whose sum some common upper
    bound does not lie over.
    """
    report = verify_oa(table)
    if not report.passed:
        return report
    up, el = table._kernel().up, table.elements
    for i, j, k in _entries(table.rows()):
        if up[i] & up[j] & ~up[k]:
            unjoined = Violation("omp-orthogonal-join", (el[i], el[j]))
            return AxiomReport("orthoalgebra", (unjoined,))
    return AxiomReport("omp", ())


def classify(table):
    """Best structure class: not_quasi_oa, quasi_oa, orthoalgebra, omp, boolean."""
    cls = is_omp(table).structure_class
    if cls == "omp" and _boolean(table, range(len(table.elements))) is not None:
        return "boolean"
    return cls


def _sum_of_three_defined(rows, x, y, z):
    for p, q, r in itertools.permutations((x, y, z)):
        pq = rows[p].get(q)
        if pq is not None and r in rows[pq]:
            return True
    return False


def mackey_decompositions(table, a, b):
    """All (a1, b1, c) with a = a1 + c, b = b1 + c, all three jointly summable."""
    rows = table.rows()
    ia, ib = table.index(a), table.index(b)
    into_b = defaultdict(list)
    for y, c, s in _entries(rows):
        if s == ib:
            into_b[c].append(y)
    out = sorted(
        (x, y, c)
        for x, c, s in _entries(rows)
        if s == ia
        for y in into_b.get(c, ())
        if _sum_of_three_defined(rows, x, y, c)
    )
    return [tuple(table.elements[i] for i in t) for t in out]


# ---------------------------------------------------------------------------
# pastings of Boolean blocks


def _perspective_classes(insides):
    """The perspectivity classes of the events of a family of tests.

    Each entry of insides lists one test's events by bitmask, so reversing
    it pairs each event h with t - h.  The events t - h over the tests t
    holding h share the local complement h, so each is united with the first
    one seen.  Returns a dict mapping each event to the root of its class.
    """
    parent = {}

    def find(x):
        # path halving: each step points x at its grandparent
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    first = {}
    for inside in insides:
        for h, rest in zip(inside, reversed(inside)):
            other = first.setdefault(h, rest)
            if other != rest:
                # one root under the other; a no-op when they are one class
                parent[find(rest)] = find(other)
    # every event of a test is some h, so first holds them all
    return {x: find(x) for x in first}


def subset_unions(sets, empty=frozenset()):
    """The unions of all subsets of `sets`, each from `empty`, by bitmask (bit i: sets[i])."""
    unions = [empty]
    for s in sets:
        unions += [u | s for u in unions]
    return unions


def subsets(items):
    """All subsets of `items` as frozensets, listed by bitmask (bit i: items[i])."""
    return subset_unions([frozenset([x]) for x in items])


@functools.cache
def _splits(k):
    """Disjoint mask triples (left, right, left | right) over k atoms.

    Atom i is bit i.  The order is that of product((0, 1, 2), repeat=k),
    with 1 sending the atom left and 2 sending it right.
    """
    out = []
    for split in itertools.product((0, 1, 2), repeat=k):
        left = sum(1 << i for i, s in enumerate(split) if s == 1)
        right = sum(1 << i for i, s in enumerate(split) if s == 2)
        out.append((left, right, left | right))
    return tuple(out)


@functools.cache
def _combination_order(n):
    """The masks below n by size, each size in itertools.combinations order."""
    return sorted(range(n), key=lambda m: (m.bit_count(), list(bits(m))))


def block_sums(pieces):
    """The sum table of a pasting of Boolean blocks.

    Each piece lists one block's 2^k elements by bitmask over its k atoms;
    a + b = c is glued for every pair of disjoint masks, block by block in
    `_splits` order.  Returns (oplus, clash): clash is None, or (i, a, b)
    for the first pair, met in piece i, whose sum differs from the one
    already glued; oplus is then built up to that pair.
    """
    oplus = {}
    for i, elems in enumerate(pieces):
        for left, right, both in _splits(len(elems).bit_length() - 1):
            a, b, c = elems[left], elems[right], elems[both]
            prev = oplus.get((a, b))
            if prev is not None and prev != c:
                return oplus, (i, a, b)
            oplus[(a, b)] = c
    return oplus, None


# ---------------------------------------------------------------------------
# Greechie diagrams and their pasting


def _meeting(blocks):
    """The index pairs (i, j), i < j, of blocks that share an atom."""
    blocks_of = defaultdict(list)
    for i, blk in enumerate(blocks):
        for a in blk:
            blocks_of[a].append(i)
    return {
        pair for held in blocks_of.values() for pair in itertools.combinations(held, 2)
    }


class GreechieDiagram:
    """Atoms plus blocks of mutually orthogonal atoms (the smooth lines)."""

    def __init__(self, atoms, blocks):
        self.atoms = tuple(atoms)
        self.blocks = tuple(tuple(b) for b in blocks)
        atom_set = set(self.atoms)
        if len(atom_set) != len(self.atoms):
            raise StructureError("duplicate atom label")
        if not self.blocks:
            raise StructureError("diagram needs at least one block")
        covered = set()
        sets = []
        for blk in self.blocks:
            if len(blk) < 2:
                raise StructureError("block %r has fewer than 2 atoms" % (blk,))
            if len(set(blk)) != len(blk):
                raise StructureError("block %r repeats an atom" % (blk,))
            for x in blk:
                if x not in atom_set:
                    raise StructureError("block atom %r not declared" % (x,))
            covered.update(blk)
            sets.append(frozenset(blk))
        missing = atom_set - covered
        if missing:
            raise StructureError(
                "atoms %s occur in no block" % sorted(map(str, missing))
            )
        # blocks have two atoms or more, so nested blocks share an atom;
        # the first nested pair in index order is reported, inner block first
        for i, j in sorted(_meeting(self.blocks)):
            if sets[j] < sets[i]:
                i, j = j, i
            if sets[i] <= sets[j]:
                raise StructureError(
                    "block %r is contained in block %r"
                    % (self.blocks[i], self.blocks[j])
                )

    def __repr__(self):
        return "GreechieDiagram(%d atoms, %d blocks)" % (
            len(self.atoms),
            len(self.blocks),
        )


def from_greechie(diagram):
    """Paste a diagram's block algebras into one quasi-orthoalgebra.

    The diagram is read as a test space whose tests are its blocks, and the
    pasting is its logic: events, the atom sets inside a block, are
    identified up to perspectivity (t - h ~ t' - h when blocks t and t' both
    hold h), the classes of `_perspective_classes`.  Events are int masks,
    atom a at bit n-1-rank(a) over the atoms ranked by str, as `pasting_to_oa`
    ranks points.  A class is named by its atom when it holds one, else
    through its complement or by its smallest event; a name that an earlier
    class took gets "~" appended until it is free.  The sum glues within
    each block.
    """
    # the atom at bit b is down[b]; each block lists its events by bitmask over its atoms
    down = sorted(diagram.atoms, key=str)[::-1]
    bit = {a: 1 << b for b, a in enumerate(down)}
    insides = [subset_unions([bit[a] for a in blk], 0) for blk in diagram.blocks]
    class_of = _perspective_classes(insides)
    # 0 is {empty event}: that is t - h only for h = t, and no block holds another
    zero, one = class_of[0], class_of[insides[0][-1]]
    comp = {
        class_of[h]: class_of[rest]
        for inside in insides
        for h, rest in zip(inside, reversed(inside))
    }
    if any(root == c for root, c in comp.items()):
        raise PastingError("pasting identifies a class with its own complement")

    # in canonical order events ascend by size and atom names, so each class
    # meets its representative, the smallest event, first; a single atom names it
    rep = {}
    for e in _in_order(class_of):
        rep.setdefault(class_of[e], e)
    # an atom is never renamed; a derived label already taken gets "~"s
    labels = {root: str(down[e.bit_length() - 1]) for root, e in rep.items() if e.bit_count() == 1}
    taken = set(labels.values())
    if len(taken) != len(labels):
        raise PastingError("pasting produced colliding element labels")

    def name(root, label):
        while label in taken:
            label += "~"
        taken.add(label)
        labels[root] = label

    name(zero, "0")
    name(one, "1")
    # classes are met in (block, subset size, atom order); of two
    # complementary unnamed classes the first met gets the plain label
    for root in dict.fromkeys(
        class_of[inside[m]]
        for inside in insides
        for m in _combination_order(len(inside))
    ):
        if root not in labels:
            c = comp[root]
            if c in labels and c not in (zero, one) and "'" not in labels[c]:
                name(root, labels[c] + "'")
            else:
                name(root, "+".join(sorted(str(down[b]) for b in bits(rep[root]))))

    # 0 is the only class of empty sets and 1 holds only full blocks, so
    # this sorts 0, the atoms, the larger classes, then 1
    roots = sorted(
        rep,
        key=lambda root: (root == one, rep[root].bit_count(), labels[root]),
    )
    oplus, clash = block_sums(
        [[labels[class_of[e]] for e in inside] for inside in insides]
    )
    if clash is not None:
        _, a, b = clash
        raise PastingError(
            "inconsistent sums %s + %s" % (format_label(a), format_label(b))
        )
    return FiniteQuasiOrthoalgebra(
        [labels[root] for root in roots], labels[zero], labels[one], oplus
    )

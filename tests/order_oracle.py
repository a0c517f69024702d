"""The label-based table code that the per-element bitmasks and the integer
sum rows replaced.

Verbatim copies of the old `FiniteQuasiOrthoalgebra` order methods
(`partners`, `complements`, `complement`, `le_pairs`, `pairs`, and the
label `sums_from`) on `LabelTable`, and of the old functions that read
them: the axiom scans, `leq`, `join`, the transitivity scan, `is_omp`,
`classify`, the blocks search, `states.atoms_of` and the Hasse covers of
`dot`, which serve as the oracle in `test_order_oracle.py`; and
`states._sum_entries`, `mackey_decompositions`, `is_prime_ideal`, the
pairwise `is_prime` scan, the `isomorphic` search with `_signatures` and
`_verify_mapping`, and the events-squared `is_algebraic` scan of test
spaces, which serve as the oracle in `test_rows_oracle.py`.
"""

import itertools
from collections import defaultdict

from partlogic.atlas import PropertyCheck
from partlogic.errors import AxiomViolationError
from partlogic.oa import (
    QUASI_AXIOMS,
    AxiomReport,
    Violation,
    format_label,
    structural_check,
)
from partlogic.partition import Isomorphism
from partlogic.states import PrimenessResult, enumerate_two_valued_states


class LabelTable:
    """The same sum table behind the old, label-scanning methods."""

    def __init__(self, table):
        self.elements = table.elements
        self.zero = table.zero
        self.one = table.one
        self.table = table.table
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._sums_from = None
        self._comp = None
        self._le = None

    def index(self, a):
        return self._index[a]

    def sums_from(self, a):
        """Map b -> a + b over all partners b of a."""
        if self._sums_from is None:
            by_first = defaultdict(dict)
            for (x, y), z in self.table.items():
                by_first[x][y] = z
            self._sums_from = dict(by_first)
        return self._sums_from.get(a, {})

    def partners(self, a):
        """Partners of a in element-index order."""
        row = self.sums_from(a)
        return [b for b in self.elements if b in row]

    def complements(self, a):
        """All b with a + b = 1, in element-index order."""
        row = self.sums_from(a)
        return [b for b in self.elements if row.get(b) == self.one]

    def complement(self, a):
        """The unique orthocomplement; raises when it is not unique."""
        if self._comp is None:
            self._comp = {}
        if a not in self._comp:
            cs = self.complements(a)
            if len(cs) != 1:
                raise AxiomViolationError(
                    "oaiii",
                    "%s has %d complements" % (format_label(a), len(cs)),
                )
            self._comp[a] = cs[0]
        return self._comp[a]

    def le_pairs(self):
        """The relation a <= b (some c with a + c = b), as a set of pairs."""
        if self._le is None:
            le = set()
            for (a, _c), b in self.table.items():
                le.add((a, b))
            self._le = frozenset(le)
        return self._le

    def pairs(self):
        """Defined sum pairs in element-index order."""
        for a in self.elements:
            row = self.sums_from(a)
            for b in self.elements:
                if b in row:
                    yield a, b, row[b]


def _unique_complement(table, a):
    cs = table.complements(a)
    return cs[0] if len(cs) == 1 else None


def _quasi_violations(table):
    found = {}

    def record(axiom, witness):
        if axiom not in found:
            found[axiom] = Violation(axiom, witness)

    zero, one = table.zero, table.one
    for a, b, c in table.pairs():
        if table.sums_from(b).get(a) != c and "oai" not in found:
            record("oai", (a, b))
    for a in table.elements:
        if table.sums_from(a).get(zero) != a:
            record("oaii", (a,))
            break
    for a in table.elements:
        if len(table.complements(a)) != 1:
            record("oaiii", (a,))
            break
    # oaiv and oav quantify over nested sums; skip pairs whose complement
    # is not unique (already charged to oaiii)
    for a in table.elements:
        if "oaiv" in found:
            break
        ac = _unique_complement(table, a)
        if ac is None:
            continue
        row_ac = table.sums_from(ac)
        row_a = table.sums_from(a)
        for b in table.elements:
            if b in row_ac and row_ac[b] in row_a and b != zero:
                record("oaiv", (a, b))
                break
    for a, b, c in table.pairs():
        if "oav" in found:
            break
        if c in table.sums_from(a) and a != zero:
            record("oav", (a, b))
    for a, b, c in table.pairs():
        if "oavi" in found:
            break
        cc = _unique_complement(table, c)
        bc = _unique_complement(table, b)
        if cc is None or bc is None:
            continue
        if table.sums_from(a).get(cc) != bc:
            record("oavi", (a, b))
    return tuple(found[ax] for ax in QUASI_AXIOMS if ax in found)


def _assoc_violation(table):
    # oavii: a+b and (a+b)+c defined force b+c and a+(b+c), all equal
    for a in table.elements:
        row_a = table.sums_from(a)
        for b in table.elements:
            if b not in row_a:
                continue
            ab = row_a[b]
            row_ab = table.sums_from(ab)
            row_b = table.sums_from(b)
            for c in table.elements:
                if c not in row_ab:
                    continue
                if c not in row_b or row_a.get(row_b[c]) != row_ab[c]:
                    return Violation("oavii", (a, b, c))
    return None


def verify_quasi_oa(table):
    """Check the six quasi-orthoalgebra axioms exhaustively."""
    structural_check(table)
    violations = _quasi_violations(table)
    cls = "quasi_oa" if not violations else "not_quasi_oa"
    return AxiomReport(cls, violations)


def verify_oa(table):
    """Check the quasi-orthoalgebra axioms plus associativity."""
    report = verify_quasi_oa(table)
    if not report.passed:
        return report
    v = _assoc_violation(table)
    if v is None:
        return AxiomReport("orthoalgebra", ())
    return AxiomReport("quasi_oa", (v,))


def verify_oa_golfin(table):
    """Check the alternative four-axiom characterization of orthoalgebras."""
    structural_check(table)
    found = []
    for a, b, c in table.pairs():
        if table.sums_from(b).get(a) != c:
            found.append(Violation("oai", (a, b)))
            break
    for a in table.elements:
        if len(table.complements(a)) != 1:
            found.append(Violation("oaiii", (a,)))
            break
    v = _assoc_violation(table)
    if v is not None:
        found.append(v)
    for a in table.elements:
        if a in table.sums_from(a) and a != table.zero:
            found.append(Violation("oav*", (a,)))
            break
    if not found:
        return AxiomReport("orthoalgebra", ())
    axioms = {v.axiom for v in found}
    # failing only associativity still leaves a possible quasi-orthoalgebra
    cls = "quasi_oa" if axioms == {"oavii"} else "not_quasi_oa"
    return AxiomReport(cls, tuple(found))


def leq(table, a, b):
    """a <= b iff some c has a + c = b."""
    return (a, b) in table.le_pairs()


def order_transitivity_counterexample(table):
    """First (a, b, c) with a <= b <= c but not a <= c, or None."""
    le = table.le_pairs()
    for a in table.elements:
        ups_a = [b for b in table.elements if (a, b) in le and b != a]
        for b in ups_a:
            for c in table.elements:
                if c == b or c == a or (b, c) not in le:
                    continue
                if (a, c) not in le:
                    return (a, b, c)
    return None


def join(table, a, b):
    """Least upper bound of a and b under <=, or None."""
    ups = [x for x in table.elements if leq(table, a, x) and leq(table, b, x)]
    for x in ups:
        if all(leq(table, x, y) for y in ups):
            return x
    return None


# ---------------------------------------------------------------------------
# blocks


def _closure(table, seed):
    """Close a set under complements and defined sums; None if uncloseable."""
    out = set(seed)
    out.add(table.zero)
    out.add(table.one)
    work = list(out)
    while work:
        x = work.pop()
        cs = table.complements(x)
        if len(cs) != 1:
            return None
        if cs[0] not in out:
            out.add(cs[0])
            work.append(cs[0])
        row = table.sums_from(x)
        for y in list(out):
            if y in row and row[y] not in out:
                out.add(row[y])
                work.append(row[y])
    return frozenset(out)


def boolean_atoms(table, subset):
    """Local atoms and the subset-sum map when `subset` is Boolean, else None.

    The test: the <=-minimal nonzero members p1..pk satisfy |subset| = 2^k
    and every member is the sum of exactly one subset of the p_i (summed in
    a fixed order; all such sums must be defined).
    """
    members = [e for e in table.elements if e in subset]
    nonzero = [e for e in members if e != table.zero]
    mins = [
        p
        for p in nonzero
        if not any(q != p and leq(table, q, p) for q in nonzero)
    ]
    k = len(mins)
    if len(members) != 2 ** k:
        return None
    sums = {frozenset(): table.zero}
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            prev = frozenset(combo[:-1])
            if prev not in sums:
                return None
            base = sums[prev]
            last = mins[combo[-1]]
            row = table.sums_from(base)
            if last not in row:
                return None
            sums[frozenset(combo)] = row[last]
    values = set(sums.values())
    if len(values) != 2 ** k or values != set(members):
        return None
    atom_sets = {frozenset(mins[i] for i in key): v for key, v in sums.items()}
    return tuple(mins), atom_sets


def blocks(table):
    """All maximal Boolean sub-structures, as element tuples in index order.

    Grown breadth-first: extend each Boolean closed subset by one element,
    keep the extensions that close to Boolean sets, and report the subsets
    admitting none.
    """
    start = _closure(table, ())
    if start is None or boolean_atoms(table, start) is None:
        return []
    seen = set()
    maximal = set()
    stack = [start]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        extensions = []
        for x in table.elements:
            if x in current:
                continue
            grown = _closure(table, current | {x})
            if grown is not None and boolean_atoms(table, grown) is not None:
                extensions.append(grown)
        if extensions:
            stack.extend(extensions)
        else:
            maximal.add(current)
    # a set reported maximal on one path may still sit inside another block
    maximal = [
        blk
        for blk in maximal
        if not any(other != blk and blk < other for other in maximal)
    ]
    as_tuples = [
        tuple(e for e in table.elements if e in blk) for blk in maximal
    ]
    return sorted(as_tuples, key=lambda blk: tuple(table.index(e) for e in blk))


def is_omp(table):
    """Check the orthomodular-poset axioms on an orthoalgebra table.

    Returns an AxiomReport whose class is "omp" on success and
    "orthoalgebra" with the first failing axiom otherwise.
    """
    le = table.le_pairs()

    def fail(axiom, witness):
        return AxiomReport("orthoalgebra", (Violation(axiom, witness),))

    # partial order (reflexivity comes from a + 0 = a)
    for a in table.elements:
        if (a, a) not in le:
            return fail("omp-partial-order", (a,))
    for a, b in itertools.product(table.elements, repeat=2):
        if a != b and (a, b) in le and (b, a) in le:
            return fail("omp-partial-order", (a, b))
    tr = order_transitivity_counterexample(table)
    if tr is not None:
        return fail("omp-partial-order", tr)
    for a in table.elements:
        if table.complement(table.complement(a)) != a:
            return fail("omp-involution", (a,))
    for a, b in itertools.product(table.elements, repeat=2):
        if (a, b) in le:
            if not leq(table, table.complement(b), table.complement(a)):
                return fail("omp-order-reversing", (a, b))
    for a in table.elements:
        if join(table, a, table.complement(a)) != table.one:
            return fail("omp-complement-join", (a,))
    for a in table.elements:
        for b in table.partners(a):
            if join(table, a, b) is None:
                return fail("omp-orthogonal-join", (a, b))
    for a, b in itertools.product(table.elements, repeat=2):
        if not leq(table, a, b):
            continue
        step = join(table, a, table.complement(b))
        if step is None:
            return fail("omp-orthomodular", (a, b))
        if join(table, a, table.complement(step)) != b:
            return fail("omp-orthomodular", (a, b))
    return AxiomReport("omp", ())


def classify(table):
    """Best structure class: not_quasi_oa, quasi_oa, orthoalgebra, omp, boolean."""
    report = verify_oa(table)
    if report.structure_class != "orthoalgebra":
        return report.structure_class
    omp = is_omp(table)
    if not omp.passed:
        return "orthoalgebra"
    full = frozenset(table.elements)
    if boolean_atoms(table, full) is not None:
        return "boolean"
    return "omp"


def atoms_of(table):
    """<=-minimal nonzero elements of a table, in index order."""
    nz = [e for e in table.elements if e != table.zero]
    return [
        p for p in nz if not any(q != p and leq(table, q, p) for q in nz)
    ]


def _quote(label):
    return '"%s"' % format_label(label).replace('"', '\\"')


def _covers(table):
    le = table.le_pairs()
    strict = {(a, b) for (a, b) in le if a != b and (b, a) not in le}
    out = []
    for a in table.elements:
        for b in table.elements:
            if (a, b) not in strict:
                continue
            if any(
                (a, c) in strict and (c, b) in strict
                for c in table.elements
                if c != a and c != b
            ):
                continue
            out.append((a, b))
    return out


def _hasse_dot(table):
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for e in table.elements:
        lines.append("  %s;" % _quote(e))
    for a, b in _covers(table):
        lines.append("  %s -> %s;" % (_quote(a), _quote(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"



# ---------------------------------------------------------------------------
# the label-based sum scans that the integer rows replaced


def _sum_entries(table):
    """Index triples (a, b, a + b), one per unordered sum pair, in pair order."""
    idx = table.index
    entries = []
    seen = set()
    for a, b, c in table.pairs():
        key = tuple(sorted((idx(a), idx(b)))) + (idx(c),)
        if key not in seen:
            seen.add(key)
            entries.append((idx(a), idx(b), idx(c)))
    return entries


def _sum_of_three_defined(table, x, y, z):
    for p, q, r in itertools.permutations((x, y, z)):
        pq = table.sums_from(p).get(q)
        if pq is not None and r in table.sums_from(pq):
            return True
    return False


def mackey_decompositions(table, a, b):
    """All (a1, b1, c) with a = a1 + c, b = b1 + c, all three jointly summable."""
    into_a = [(x, c) for x, c, s in table.pairs() if s == a]
    into_b = defaultdict(list)
    for y, c, s in table.pairs():
        if s == b:
            into_b[c].append(y)
    out = []
    for a1, c in into_a:
        for b1 in into_b.get(c, ()):
            if _sum_of_three_defined(table, a1, b1, c):
                out.append((a1, b1, c))
    idx = table.index
    return sorted(out, key=lambda t: (idx(t[0]), idx(t[1]), idx(t[2])))


def is_prime_ideal(table, ideal):
    """True iff the member set is a prime ideal of the table."""
    members = ideal.members
    if not members <= set(table.elements):
        return False
    if table.zero not in members:
        return False
    for a in members:
        for b in table.elements:
            if leq(table, b, a) and b not in members:
                return False
    for a, b, c in table.pairs():
        if a in members and b in members and c not in members:
            return False
    for a in table.elements:
        if (a in members) == (table.complement(a) in members):
            return False
    return True


def is_prime(table):
    """Whether the two-valued states separate every pair of elements."""
    sts = enumerate_two_valued_states(table)
    for a, b in itertools.combinations(table.elements, 2):
        if all(s(a) == s(b) for s in sts):
            return PrimenessResult(False, None, (a, b))
    return PrimenessResult(True, tuple(sts), None)


def _signatures(table):
    """Per-element invariants preserved by any isomorphism."""
    base = {}
    for a in table.elements:
        partners = table.partners(a)
        base[a] = (
            a == table.zero,
            a == table.one,
            len(partners),
            len(table.complements(a)),
        )
    # one refinement round: multiset of partner base signatures
    sig = {}
    for a in table.elements:
        partner_sigs = sorted(base[b] for b in table.partners(a))
        sig[a] = (base[a], tuple(partner_sigs))
    return sig


def _verify_mapping(t1, t2, mapping):
    fwd = {(mapping[a], mapping[b]) for (a, b) in t1.table}
    if fwd != set(t2.table):
        return False
    for (a, b), c in t1.table.items():
        if t2.table[(mapping[a], mapping[b])] != mapping[c]:
            return False
    return True


def isomorphic(t1, t2):
    """Search for a sum-preserving bijection; None when there is none.

    Backtracking over elements with invariant pruning; 0 and 1 are pinned.
    """
    if len(t1.elements) != len(t2.elements):
        return None
    sig1 = _signatures(t1)
    sig2 = _signatures(t2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    by_sig2 = defaultdict(list)
    for b in t2.elements:
        by_sig2[sig2[b]].append(b)

    mapping = {t1.zero: t2.zero, t1.one: t2.one}
    used = {t2.zero, t2.one}
    if sig1[t1.zero] != sig2[t2.zero] or sig1[t1.one] != sig2[t2.one]:
        return None
    # most-constrained-first: fewest candidates, then index order
    todo = sorted(
        (e for e in t1.elements if e not in mapping),
        key=lambda e: (len(by_sig2[sig1[e]]), t1.index(e)),
    )

    def consistent(a, b):
        row1 = t1.sums_from(a)
        row2 = t2.sums_from(b)
        for x, fx in mapping.items():
            d1 = x in row1
            d2 = fx in row2
            if d1 != d2:
                return False
            if d1:
                s1 = row1[x]
                if s1 in mapping and mapping[s1] != row2[fx]:
                    return False
        return True

    def extend(k):
        if k == len(todo):
            return _verify_mapping(t1, t2, mapping)
        a = todo[k]
        for b in by_sig2[sig1[a]]:
            if b in used or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if extend(k + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    if extend(0):
        return Isomorphism(mapping)
    return None


# ---------------------------------------------------------------------------
# the events-squared algebraicity scan of test spaces


def is_algebraic(ts):
    """Perspectivity must respect local complementation.

    Returns a PropertyCheck; the witness is the first (F, G, H) with
    F ~ G, F loc H but not G loc H, scanning events in canonical order.
    """
    events = ts.events()
    locs = {e: ts.local_complements(e) for e in events}
    for f in events:
        for g in events:
            common = locs[f] & locs[g]
            if not common:
                continue
            for h in sorted(locs[f], key=ts.event_key):
                if h not in locs[g]:
                    return PropertyCheck(False, (f, g, h))
    return PropertyCheck(True)

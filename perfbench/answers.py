"""Independent answers for every job, and the check of a job's result.

No answer comes from the layer under test.  The facts about an instance
(its two-valued states, element count, class, blocks, partitions) come from
gen.py and from theorems about the generated families; a check compares the
library's result with them.  Checks run outside the timed region.
"""

import itertools
from collections import Counter, defaultdict
from fractions import Fraction

import gen

# Transcriptions of the bundled Greechie corpus entries (see README.md) with
# their documented class; the CLI workload checks these as well.
CORPUS_DIAGRAMS = {
    "firefly": ("l r n; f b n", "omp"),
    "wright": ("a b c; c d e; e f a", "orthoalgebra"),
    "fano": ("a b c; a d e; c f e; a g f; c g d; e g b; b d f", "orthoalgebra"),
    "fig12": ("a b c; c d e; a e f; e g h; h i c", "orthoalgebra"),
}
CORPUS_IDS = (
    "firefly", "wright", "fano", "fig12", "fig15", "fig16", "urn-firefly", "urn-wright",
    "pl-wright", "pl-fig12", "mealy-wright", "mealy-fig12", "nontransitive", "pts-firefly",
)


def corpus_instance(entry_id):
    spec, _cls = CORPUS_DIAGRAMS[entry_id]
    blocks = [b.split() for b in spec.split(";")]
    return gen.Instance("corpus:" + entry_id, "corpus", {"id": entry_id}, gen.greechie_text(blocks), blocks=blocks)


class Facts:
    """What the answer key knows about one instance, computed on first use."""

    def __init__(self, inst):
        self.inst = inst
        self.blocks = inst.blocks
        self._states = None

    @property
    def states(self):
        if self._states is None:
            self._states = gen.exact_one_states(self.blocks)
        return self._states

    @property
    def atoms(self):
        return {a for blk in self.blocks for a in blk}

    def elements(self):
        """Element count of the pasting: blocks share at most one atom, so
        only an atom and its complement are glued across blocks."""
        degree = Counter(a for blk in self.blocks for a in blk)
        return 2 + sum(2 ** len(b) - 2 for b in self.blocks) - 2 * sum(d - 1 for d in degree.values())

    def structure_class(self):
        """Greechie's loop-order theorem: a 3-loop gives an orthoalgebra that
        is not an OMP, no loops below order 4 gives an OMP, one block is Boolean."""
        fam, p = self.inst.params.get("of", self.inst.family), self.inst.params
        if len(self.blocks) == 1:
            return "boolean"
        if fam == "loop":
            return "orthoalgebra" if p["k"] == 3 else "omp"
        if fam == "chain":
            return "omp"
        if fam == "fano":
            return "orthoalgebra"
        return CORPUS_DIAGRAMS[p["id"]][1]

    def prime(self):
        # the Fano lines admit no two-valued state; the other families'
        # states separate all elements
        fam = self.inst.params.get("of", self.inst.family)
        return not (fam == "fano" or self.inst.params.get("id") == "fano")

    def hasse(self):
        """(nodes, edges) of the order diagram: the union of the blocks'
        Boolean covers, with an atom and its complement shared across blocks."""

        def key(blk, subset):
            if not subset:
                return "0"
            if len(subset) == len(blk):
                return "1"
            if len(subset) == 1:
                return next(iter(subset))
            if len(subset) == len(blk) - 1:
                return ("not", next(iter(frozenset(blk) - subset)))
            return (frozenset(blk), subset)

        nodes, edges = set(), set()
        for blk in self.blocks:
            for r in range(len(blk) + 1):
                for sub in itertools.combinations(blk, r):
                    s = frozenset(sub)
                    nodes.add(key(blk, s))
                    for x in blk:
                        if x not in s:
                            edges.add((key(blk, s), key(blk, s | {x})))
        return len(nodes), len(edges)

    def point_partitions(self):
        """The instance's partitions as sets of point names."""
        pts = self.inst.points
        return {frozenset(frozenset(pts[i] for i in c) for c in part) for part in self.inst.partitions}

    def exact_covers(self):
        """Number of partitions of the points made of the declared cells."""
        cells = {sum(1 << i for i in c) for part in self.inst.partitions for c in part}
        by_low = defaultdict(list)
        for c in cells:
            by_low[c & -c].append(c)
        memo = {}

        def count(rest):
            if not rest:
                return 1
            if rest not in memo:
                memo[rest] = sum(count(rest ^ c) for c in by_low[rest & -rest] if c & rest == c)
            return memo[rest]

        return count((1 << len(self.inst.points)) - 1)


def _partition_set(parts):
    return {frozenset(frozenset(cell) for cell in part) for part in parts}


def machine_partitions(text):
    """One-symbol experiment partitions of a serialized Mealy machine."""
    outs = defaultdict(lambda: defaultdict(set))
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key.strip() == "lambda":
            left, right = rest.split("->")
            q, sym = left.split()
            outs[sym][right.strip()].add(q)
    return {frozenset(frozenset(g) for g in groups.values()) for groups in outs.values()}


def _dot_counts(text):
    lines = [ln.strip() for ln in text.splitlines()]
    edges = sum(1 for ln in lines if " -> " in ln)
    nodes = sum(1 for ln in lines if ln.startswith('"') and " -> " not in ln)
    return nodes, edges


def _check_state(table, sample):
    """Exact check of a rational state over the table's sums and bounds."""
    if sample is None or Fraction(sample[table.one]) != 1:
        return False
    if any(not 0 <= Fraction(v) <= 1 for v in sample.values()):
        return False
    return all(sample[a] + sample[b] == sample[c] for a, b, c in table.pairs())


def _check_iso(result):
    if not result.get("isomorphic"):
        return False
    mapping = result["mapping"]
    if len(set(mapping.values())) != len(mapping) or mapping.get("0") != "{}":
        return False
    if "_map" not in result:
        return True
    t1, t2 = result["_tables"]
    m = result["_map"]
    if set(m) != set(t1.elements) or set(m.values()) != set(t2.elements):
        return False
    if len(t1.table) != len(t2.table):
        return False
    return all(t2.table.get((m[a], m[b])) == m[c] for (a, b), c in t1.table.items())


def check(command, inst, result, facts):
    """True when the result agrees with the instance's independent answer."""
    f = facts
    if command == "verify":
        return result["class"] == f.structure_class() and result["elements"] == f.elements() and not result["violations"]
    if command == "states":
        atoms = result["atoms"]
        want = sorted([int(a in s) for a in atoms] for s in f.states)
        return set(atoms) == f.atoms and result["count"] == len(f.states) and sorted(result["rows"]) == want
    if command == "prime":
        if f.prime():
            return result["prime"] is True and result["states"] == len(f.states)
        return result["prime"] is False and len(set(result["inseparable"])) == 2
    if command == "state-space":
        return result["feasible"] is True and _check_state(result["_table"], result["_sample"])
    if command == "blocks":
        sizes = sorted(len(b) for b in result["blocks"])
        return (
            result["count"] == len(f.blocks)
            and {frozenset(a) for a in result["atoms"]} == {frozenset(b) for b in f.blocks}
            and sizes == sorted(2 ** len(b) for b in f.blocks)
        )
    if command == "atlas":
        return sorted(map(sorted, result["charts"])) == sorted(map(sorted, f.blocks))
    if command == "dot":
        return _dot_counts(result["dot"]) == f.hasse()
    if command == "iso":
        return _check_iso(result)
    if command == "to-pl":
        shape = lambda parts: Counter(tuple(sorted(len(c) for c in p)) for p in parts)
        want = shape(gen.support_partitions(f.blocks, f.states))
        return result["points"] == len(f.states) and shape(result["partitions"]) == want
    if command == "to-automaton":
        return machine_partitions(result["text"]) == f.point_partitions()
    if command == "from-automaton":
        return _partition_set(result["partitions"]) == f.point_partitions()
    if command == "testspace":
        if inst.family == "pts":
            return (
                result["class"] == "test_space"
                and result["algebraic"] is True
                and result["two_valued_weights"] == len(inst.points)
                and result["complete"] is (f.exact_covers() == len(inst.partitions))
            )
        return result["class"] == "test_space" and result["algebraic"] is True and result["two_valued_weights"] == len(f.states)
    if command == "complete":
        covers = f.exact_covers()
        return result["tests"] == covers and result["added"] == covers - len(inst.partitions)
    if command == "pi-logic":
        return result["elements"] == f.elements()
    if command == "omp-conditions":
        # on the PTS of a loop or chain both conditions hold exactly when its
        # logic is an OMP; cross-checked against a reference in the tests
        want = f.structure_class() == "omp"
        return result["triple"] is want and result["concrete"] is want
    if command == "ts-to-pts":
        if inst.family == "pts":
            cells = {c for part in inst.partitions for c in part}
            return (
                result["base"] == len(inst.points)
                and result["tests"] == len(inst.partitions)
                and result["cell_sizes"] == sorted(len(c) for c in cells)
            )
        sizes = sorted(sum(1 for s in f.states if a in s) for a in f.atoms)
        return result["base"] == len(f.states) and result["tests"] == len(f.blocks) and result["cell_sizes"] == sizes
    if command == "corpus":
        return sorted(e["id"] for e in result["entries"]) == sorted(CORPUS_IDS)
    raise ValueError("no answer for command %r" % command)

"""Seeded instance generators that emit text in the library's input formats.

Nothing here imports partlogic: the instances, and the facts the answer key
needs about them, come from the benchmark alone.  The seed fixes the atom and
point names; the sizes are fixed per family by the workload tables.
"""

import itertools
import random
import string
from dataclasses import dataclass

# The lines of the Fano plane on its conventional points 1..7.
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


class Names:
    """Distinct three-letter names drawn from a seeded generator.

    A batch comes back sorted.  The library orders elements, and so its
    searches, by label; handing out each instance's names in one sorted batch
    in structural order keeps that order, and the search cost, the same for
    every seed.  Equal-length names keep joined labels such as "abc+def" in
    the same order too.
    """

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def take(self, n):
        out = []
        while len(out) < n:
            name = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(3))
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return sorted(out)


@dataclass
class Instance:
    """One generated input: its text plus the facts the answer key uses.

    `blocks` is the Greechie diagram the instance comes from (a list of atom
    lists); `partitions` holds the point-set partitions for partition
    logics, partition test spaces and realization machines.
    """

    name: str
    family: str
    params: dict
    text: str
    blocks: list = None
    points: list = None
    partitions: list = None


def loop_blocks(k, r, names):
    """k blocks in a cycle; neighbours share one atom, each has r middle atoms.

    Atoms are named in order around the loop.
    """
    a = names.take(k * (r + 1))
    step = r + 1
    return [a[i * step : (i + 1) * step] + [a[(i + 1) * step % len(a)]] for i in range(k)]


def chain_blocks(k, r, names):
    """k blocks in an open chain; the two end blocks carry a private end atom."""
    a = names.take(k * (r + 1) + 1)
    step = r + 1
    return [a[i * step : (i + 1) * step + 1] for i in range(k)]


def fano_blocks(j, digits, names):
    """The Fano lines plus j 4-atom blocks, block t attached at point t+1."""
    if digits:
        point = {p: str(p) for p in range(1, 8)}
        fresh = iter(str(x) for x in itertools.count(8))
        extra = lambda: [next(fresh) for _ in range(3)]
    else:
        batch = iter(names.take(7 + 3 * j))
        point = {p: next(batch) for p in range(1, 8)}
        extra = lambda: [next(batch) for _ in range(3)]
    blocks = [[point[p] for p in line] for line in FANO_LINES]
    for t in range(j):
        blocks.append([point[t + 1]] + extra())
    return blocks


def greechie_text(blocks):
    atoms = []
    for blk in blocks:
        atoms.extend(a for a in blk if a not in atoms)
    lines = ["atoms: " + " ".join(atoms)]
    lines += ["block: " + " ".join(blk) for blk in blocks]
    return "\n".join(lines) + "\n"


def exact_one_states(blocks):
    """Two-valued states of a Greechie logic: one atom valued 1 per block.

    Returned as frozensets of the atoms valued 1, in no particular order.
    Shared atoms make this a search; in a loop of 3-atom blocks the shared
    atoms form a cyclic 0/1 string with no two adjacent ones (Lucas numbers).
    """
    out = []
    chosen = {}

    def search(b):
        if b == len(blocks):
            out.append(frozenset(a for a, v in chosen.items() if v))
            return
        blk = blocks[b]
        ones = [a for a in blk if chosen.get(a) == 1]
        if len(ones) > 1:
            return
        if ones:
            fresh = [a for a in blk if a not in chosen]
            for a in fresh:
                chosen[a] = 0
            search(b + 1)
            for a in fresh:
                del chosen[a]
            return
        for pick in blk:
            if chosen.get(pick) == 0:
                continue
            fresh = [a for a in blk if a not in chosen]
            for a in fresh:
                chosen[a] = int(a == pick)
            search(b + 1)
            for a in fresh:
                del chosen[a]

    search(0)
    return out


def support_partitions(blocks, states):
    """The partition logic of a Greechie logic over its two-valued states.

    Each pair of disjoint atom sets x, y of one block yields the partition
    {supp x, supp y, supp rest}, empty cells dropped, where supp is the set
    of state indices valuing the atom set at 1.  Duplicates are dropped.
    """
    seen = {}
    for blk in blocks:
        supp = {a: frozenset(i for i, s in enumerate(states) if a in s) for a in blk}
        for split in itertools.product((0, 1, 2), repeat=len(blk)):
            cells = []
            for part in (1, 2, 0):
                cell = frozenset().union(*(supp[a] for a, s in zip(blk, split) if s == part))
                if cell:
                    cells.append(cell)
            seen.setdefault(frozenset(cells), cells)
    return list(seen.values())


def _cell_text(cell, points):
    return " ".join(points[i] for i in sorted(cell))


def pl_text(points, partitions):
    lines = ["points: " + " ".join(points)]
    for part in partitions:
        lines.append("partition: " + " | ".join(_cell_text(c, points) for c in part))
    return "\n".join(lines) + "\n"


def pts_text(points, partitions):
    lines = ["base: " + " ".join(points)]
    for part in partitions:
        lines.append("test: " + " | ".join(_cell_text(c, points) for c in part))
    return "\n".join(lines) + "\n"


def machine_text(points, partitions):
    """A Mealy machine whose one-symbol experiments are the given partitions.

    Symbol m<i> outputs, from state q, the 1-based index of q's cell in
    partition i, and every transition enters the first state.
    """
    inputs = ["m%d" % i for i in range(len(partitions))]
    width = max(len(p) for p in partitions)
    lines = [
        "states: " + " ".join(points),
        "inputs: " + " ".join(inputs),
        "outputs: " + " ".join(str(i) for i in range(1, width + 1)),
    ]
    for q in points:
        for sym in inputs:
            lines.append("delta: %s %s -> %s" % (q, sym, points[0]))
    for qi, q in enumerate(points):
        for sym, part in zip(inputs, partitions):
            out = next(i for i, c in enumerate(part, start=1) if qi in c)
            lines.append("lambda: %s %s -> %d" % (q, sym, out))
    return "\n".join(lines) + "\n"


class Generator:
    """Builds named instances from one seed; equal seeds give equal text."""

    def __init__(self, seed):
        self.names = Names(random.Random(seed))

    def greechie(self, family, params, blocks):
        name = "%s(%s)" % (family, ",".join("%s=%s" % kv for kv in params.items()))
        return Instance(name, family, dict(params), greechie_text(blocks), blocks=blocks)

    def loop(self, k, r=1):
        return self.greechie("loop", {"k": k, "r": r}, loop_blocks(k, r, self.names))

    def chain(self, k, r=1):
        return self.greechie("chain", {"k": k, "r": r}, chain_blocks(k, r, self.names))

    def block(self, n):
        return self.greechie("block", {"n": n}, [self.names.take(n)])

    def fano(self, j, digits):
        params = {"j": j, "names": "digits" if digits else "letters"}
        return self.greechie("fano", params, fano_blocks(j, digits, self.names))

    def over_points(self, kind, base):
        """The partition logic, PTS or realization machine of a Greechie instance."""
        states = exact_one_states(base.blocks)
        points = self.names.take(len(states))
        parts = support_partitions(base.blocks, states)
        text = {"pl": pl_text, "pts": pts_text, "machine": machine_text}[kind](points, parts)
        return Instance(
            "%s[%s]" % (kind, base.name),
            kind,
            dict(base.params, of=base.family),
            text,
            blocks=base.blocks,
            points=points,
            partitions=parts,
        )

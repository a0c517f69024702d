import itertools

import pytest

import partlogic as P


def corpus_entry(eid):
    return next(e for e in P.corpus() if e.id == eid)


def corpus_table(eid):
    return P.as_table(corpus_entry(eid))


def boolean_table(n):
    """The power set of n points as a single-partition pasting."""
    points = [str(i + 1) for i in range(n)]
    return P.pasting_to_oa(P.PartitionLogic(points, [[{p} for p in points]]))


def brute_force_states(table):
    """Independent state oracle: try every {0,1} atom assignment per block.

    Extends each assignment to all elements through the blocks' subset-sum
    decompositions and keeps the globally additive ones.
    """
    structures = [
        P.boolean_atoms(table, frozenset(blk)) for blk in P.blocks(table)
    ]
    atom_list = []
    for atoms, _ in structures:
        for a in atoms:
            if a not in atom_list:
                atom_list.append(a)
    found = set()
    for bits in itertools.product((0, 1), repeat=len(atom_list)):
        val = dict(zip(atom_list, bits))
        full = {table.zero: 0, table.one: 1}
        ok = True
        for atoms, submap in structures:
            if sum(val[a] for a in atoms) != 1:
                ok = False
                break
            for subset, elem in submap.items():
                v = sum(val[a] for a in subset)
                if v > 1 or full.get(elem, v) != v:
                    ok = False
                    break
                full[elem] = v
            if not ok:
                break
        if not ok or len(full) != len(table.elements):
            continue
        if all(full[a] + full[b] == full[c] for a, b, c in table.pairs()):
            found.add(tuple(full[e] for e in table.elements))
    return sorted(found)


def exhaustive_states(table):
    """Second oracle: filter every {0,1} assignment over all elements."""
    n = len(table.elements)
    idx = table.index
    entries = [(idx(a), idx(b), idx(c)) for a, b, c in table.pairs()]
    i_one = idx(table.one)
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if bits[i_one] != 1:
            continue
        if all(bits[ia] + bits[ib] == bits[ic] for ia, ib, ic in entries):
            out.append(bits)
    return out


def sums_preserved(t1, t2, mapping):
    """The map is a bijection onto t2's elements carrying t1's sums to t2's."""
    # sets, not sorted lists: `<` on point-set labels is only a partial order
    values = set(mapping.values())
    if len(values) != len(mapping) or values != set(t2.elements):
        return False
    moved = {(mapping[a], mapping[b]): mapping[c] for (a, b), c in t1.table.items()}
    return moved == t2.table


TABLE_IDS = (
    "firefly",
    "wright",
    "fano",
    "fig12",
    "fig15",
    "fig16",
    "urn-firefly",
    "urn-wright",
    "pl-wright",
    "pl-fig12",
    "nontransitive",
)


@pytest.fixture(scope="session")
def tables():
    return {eid: corpus_table(eid) for eid in TABLE_IDS}


@pytest.fixture(scope="session")
def firefly(tables):
    return tables["firefly"]


@pytest.fixture(scope="session")
def wright(tables):
    return tables["wright"]


@pytest.fixture(scope="session")
def fano(tables):
    return tables["fano"]


@pytest.fixture(scope="session")
def fig12(tables):
    return tables["fig12"]


@pytest.fixture(scope="session")
def nontransitive(tables):
    return tables["nontransitive"]

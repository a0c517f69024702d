"""Property tests: text round trips, isomorphism under relabelling, states.

Hypothesis draws Greechie diagrams, partition logics and partition test
spaces.  Serializing what parsing the canonical text gives back must
reproduce the text, and every table of at most about 30 elements must be
found isomorphic to a copy with fresh names listed in a shuffled order,
through a map that an independent check of the sums accepts.  On drawn
orthoalgebra pastings, whose atom names are random, so their order says
nothing of the structure, the two-valued states must match the brute-force
oracle, and a prime pasting must come back, prime and isomorphic through a
sum-preserving map, from the pasting of its partition logic.  A drawn
diagram that pastes and whose test space is algebraic must paste into a
table isomorphic, through a sum-preserving map, to the logic of that test
space.  `cover._transpose`, which builds the rows of every exact-cover
instance, must set bit j of row r exactly when column j holds bit r, and
undo itself, on empty, zero-width and wider-than-64-bit columns alike.  The
runs are derandomized and bounded, so they repeat exactly.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import partlogic as P  # noqa: E402
from conftest import brute_force_states, sums_preserved  # noqa: E402
from partlogic.cover import _transpose  # noqa: E402
from partlogic.formats import parse_any, serialize  # noqa: E402

bounded = settings(derandomize=True, max_examples=60, deadline=None)
names = st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True)


@st.composite
def diagrams(draw, max_block=4):
    """A diagram whose blocks are the maximal sets among the drawn ones."""
    atoms = draw(st.lists(names, min_size=2, max_size=8, unique=True))
    block = st.lists(
        st.sampled_from(atoms), min_size=2, max_size=max_block, unique=True
    )
    drawn = {frozenset(b) for b in draw(st.lists(block, min_size=1, max_size=5))}
    blocks = sorted(
        sorted(b) for b in drawn if not any(b < other for other in drawn)
    )
    used = [a for a in atoms if any(a in b for b in blocks)]
    return P.GreechieDiagram(used, blocks)


@st.composite
def partition_logics(draw):
    """Up to four partitions of a small ground set, cells drawn per point."""
    ground = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    cell_of = st.lists(
        st.integers(0, 3), min_size=len(ground), max_size=len(ground)
    )
    partitions = []
    for labels in draw(st.lists(cell_of, min_size=1, max_size=4)):
        cells = {}
        for point, label in zip(ground, labels):
            cells.setdefault(label, set()).add(point)
        partitions.append(list(cells.values()))
    return P.PartitionLogic(ground, partitions)


def round_trips(structure, kind):
    text = serialize(structure)
    parsed_kind, parsed = parse_any(text)
    assert parsed_kind == kind
    assert serialize(parsed) == text


@bounded
@given(diagrams())
def test_diagram_text_round_trips(diagram):
    round_trips(diagram, "greechie")


@bounded
@given(partition_logics())
def test_partition_logic_text_round_trips(pl):
    round_trips(pl, "partition_logic")


@bounded
@given(partition_logics())
def test_partition_test_space_text_round_trips(pl):
    round_trips(P.partition_logic_to_pts(pl), "pts")


def relabelled(t, order):
    """A copy of t with fresh names, its elements listed in the given order."""
    name = {t.elements[i]: "r%d" % k for k, i in enumerate(order)}
    oplus = {(name[a], name[b]): name[c] for (a, b), c in t.table.items()}
    return P.FiniteQuasiOrthoalgebra(
        [name[t.elements[i]] for i in order], name[t.zero], name[t.one], oplus
    )


def isomorphic_to_relabelled(t, data):
    assume(len(t.elements) <= 30)
    order = data.draw(st.permutations(range(len(t.elements))))
    u = relabelled(t, order)
    iso = P.isomorphic(t, u)
    assert iso is not None
    assert sums_preserved(t, u, iso.mapping)


@bounded
@given(diagrams(max_block=3), st.data())
def test_pasting_is_isomorphic_to_relabelled_copy(diagram, data):
    try:
        t = P.from_greechie(diagram)
    except P.PastingError:
        assume(False)
    isomorphic_to_relabelled(t, data)


@bounded
@given(partition_logics(), st.data())
def test_partition_logic_is_isomorphic_to_relabelled_copy(pl, data):
    isomorphic_to_relabelled(P.pasting_to_oa(pl), data)


def orthoalgebra_pasting(diagram):
    """The pasting of the diagram, if it pastes into an orthoalgebra."""
    try:
        t = P.from_greechie(diagram)
    except P.PastingError:
        assume(False)
    assume(P.verify_oa(t).passed)
    return t


@bounded
@given(diagrams())
def test_fast_states_match_brute_force(diagram):
    t = orthoalgebra_pasting(diagram)
    got = sorted(s.bits for s in P.enumerate_two_valued_states(t))
    assert got == brute_force_states(t)


@bounded
@given(diagrams())
def test_partition_logic_of_a_prime_pasting_pastes_back(diagram):
    t = orthoalgebra_pasting(diagram)
    assume(P.is_prime(t))
    u = P.pasting_to_oa(P.oa_to_partition_logic(t))
    assert P.is_prime(u)
    iso = P.isomorphic(t, u)
    assert iso is not None
    assert sums_preserved(t, u, iso.mapping)


@bounded
@given(diagrams())
def test_pasting_is_the_logic_of_the_diagram_test_space(diagram):
    try:
        t = P.from_greechie(diagram)
    except P.PastingError:
        assume(False)
    ts = P.TestSpace.from_greechie(diagram)
    assume(P.is_algebraic(ts))
    u = P.pi_logic(ts)
    iso = P.isomorphic(t, u)
    assert iso is not None
    assert sums_preserved(t, u, iso.mapping)


@st.composite
def columns(draw):
    """Up to 70 column masks over n rows, n from 0 to 130."""
    n = draw(st.integers(0, 130))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=70))


@bounded
@given(columns())
@example((0, []))
@example((0, [0, 0, 0]))
@example((3, []))
@example((130, [(1 << 130) - 1, 0, 1 << 129]))
def test_transpose_swaps_rows_and_columns(family):
    n, masks = family
    rows = _transpose(masks, n)
    assert len(rows) == n
    for r, row in enumerate(rows):
        assert row < 1 << len(masks)
        for j, mask in enumerate(masks):
            assert row >> j & 1 == mask >> r & 1
    assert _transpose(rows, len(masks)) == masks

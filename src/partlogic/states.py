"""Probability measures on tables: two-valued states, prime ideals, exact solving.

All arithmetic is exact (ints and fractions.Fraction).  Two-valued states
are exact covers, found by `cover.py` and made rows in bulk by `_matrix`.
An orthoalgebra's states pick one atom from each decomposition of 1 into
atoms; any other table's states pick one member, valued 1, per sum test.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cover import _columns, _exact_covers, _matrix
from .errors import StructureError
from .oa import (
    _bounds,
    _decompositions,
    _is_orthoalgebra,
    bits,
    format_label,
    minimal_nonzero,
)


class TwoValuedState:
    """Total {0,1} assignment on a table, additive over defined sums."""

    __slots__ = ("table", "bits")

    def __init__(self, table, values):
        self.table = table
        if isinstance(values, dict):
            self.bits = tuple(int(values[e]) for e in table.elements)
        else:
            self.bits = tuple(int(v) for v in values)
        if len(self.bits) != len(table.elements):
            raise StructureError("state is not total on the element set")
        if any(b not in (0, 1) for b in self.bits):
            raise StructureError("state takes a value outside {0,1}")

    @classmethod
    def _of_bits(cls, table, bits):
        """A state from a 0/1 tuple over the elements, known to be one."""
        state = cls.__new__(cls)
        state.table = table
        state.bits = bits
        return state

    def __call__(self, a):
        return self.bits[self.table.index(a)]

    def __eq__(self, other):
        return (
            isinstance(other, TwoValuedState)
            and self.table is other.table
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((id(self.table), self.bits))

    def __repr__(self):
        ones = [format_label(e) for e, b in zip(self.table.elements, self.bits) if b]
        return "TwoValuedState(1 on %s)" % ",".join(ones)

    def row(self, elements):
        """Value tuple over the given elements (table display order)."""
        return tuple(map(self.bits.__getitem__, map(self.table.index, elements)))


class RationalState:
    """Total map element -> Fraction in [0,1]."""

    __slots__ = ("table", "values")

    def __init__(self, table, values):
        self.table = table
        vals = {}
        for e in table.elements:
            if e not in values:
                raise StructureError(
                    "state missing value for %s" % format_label(e)
                )
            vals[e] = Fraction(values[e])
        self.values = vals

    def __call__(self, a):
        return self.values[a]

    def row(self, elements):
        return tuple(self(e) for e in elements)


@dataclass(frozen=True)
class PrimeIdeal:
    """Downward-closed, sum-closed subset holding exactly one of a, a'."""

    members: frozenset


@dataclass(frozen=True)
class PrimenessResult:
    prime: bool
    separating: tuple | None
    inseparable: tuple | None

    def __bool__(self):
        return self.prime


@dataclass(frozen=True)
class StateSpaceSolution:
    """Affine dimension of the exact equality system plus one sample point.

    dimension is -1 when the equalities are inconsistent.  feasible is
    decided exactly: it is True when some solution of the equalities lies
    within the [0,1] bounds, and then sample is such a point (a state).
    Otherwise sample is the solution with every free element at 0.
    """

    dimension: int
    sample: RationalState | None
    feasible: bool


def atoms_of(table):
    """<=-minimal nonzero elements of a table, in index order."""
    return minimal_nonzero(table, table.elements)


def _sum_entries(table):
    """Index triples (a, b, a + b), one per unordered sum pair, in pair order."""
    rows = table.rows()
    return [
        (i, j, k)
        for i, row in enumerate(rows)
        for j, k in row.items()
        if not (j < i and rows[j].get(i) == k)
    ]


def _atom_tests(table):
    """Exact-cover rows of an orthoalgebra's states: its atoms.

    The columns are the decompositions of 1 into atoms, so a cover picks one
    atom of each, and it values e_i at 1 iff it meets dec[i], which sums to e_i.
    That is a state: for a + b = c, dec[a] | dec[b] | dec[c'] and
    dec[c] | dec[c'] are both decompositions of 1.
    """
    ones, dec = _decompositions(table)
    rows = [0] * len(dec)
    for j, mask in enumerate(ones):
        for i in bits(mask):
            rows[i] |= 1 << j
    return len(ones), rows, dec


def _sum_tests(table):
    """Exact-cover rows of any table's states: e_i is row i, 1 - s(e_i) row n + i.

    The columns are the tests {1}, {e_i, 1 - s(e_i)} and {a, b, 1 - s(a + b)};
    each holds exactly one 1 iff s(1) = 1 and s(a) + s(b) = s(a + b).  0 and
    any element met twice in one test can only be 0, so their rows are empty.
    """
    n = len(table.elements)
    entries = _sum_entries(table)
    tests = [(table.index(table.one),)] + [(i, n + i) for i in range(n)]
    tests += [(a, b, n + c) for a, b, c in entries]
    rows = [0] * (2 * n)
    for j, test in enumerate(tests):
        for r in test:
            rows[r] |= 1 << j
    for r in [table.index(table.zero)] + [a for a, b, _ in entries if a == b]:
        rows[r] = 0
    return len(tests), rows, [1 << i for i in range(n)]


def _state_rows(table):
    """The two-valued states' 0/1 bytes over the elements, in value-vector order."""
    build = _atom_tests if _is_orthoalgebra(table) else _sum_tests
    width, rows, values = build(table)
    w = len(rows)
    m = _matrix(_exact_covers(width, rows), w)
    count = len(m) // w
    # row r's 0/1 column over the covers, read as an int in base 256; a
    # cover holds at most one row of values[i], so their sum is e_i's column
    by_row = [int.from_bytes(m[w - 1 - r::w], "big") for r in range(w)]
    columns = b"".join(
        sum(map(by_row.__getitem__, bits(v))).to_bytes(count, "big") for v in values
    )
    return sorted(columns[k::count] for k in range(count))


def enumerate_two_valued_states(table):
    """The complete list of two-valued states, in value-vector order."""
    return [TwoValuedState._of_bits(table, tuple(row)) for row in _state_rows(table)]


def _state_fault(table, s, valued):
    """The first way s fails to be a state with values passing `valued`, or None."""
    if s(table.one) != 1:
        return "state does not map 1 to 1"
    for e in table.elements:
        if not valued(s(e)):
            return "state is not two-valued at %s" % format_label(e)
    for a, b, c in table.pairs():
        if s(a) + s(b) != s(c):
            return "state not additive on %s + %s" % (format_label(a), format_label(b))
    return None


def is_state(table, s):
    """Exact check of normalization and additivity for a rational state."""
    return _state_fault(table, s, lambda v: 0 <= v <= 1) is None


def _check_two_valued(table, s):
    fault = _state_fault(table, s, lambda v: v in (0, 1))
    if fault is not None:
        raise StructureError(fault)


def is_prime_ideal(table, ideal):
    """True iff the member set is a prime ideal of the table."""
    members = ideal.members
    if not members <= set(table.elements):
        return False
    if table.zero not in members:
        return False
    inside = [e in members for e in table.elements]
    # a + b = c: c inside forces a inside (a <= c), a and b inside force c
    for i, row in enumerate(table.rows()):
        for j, k in row.items():
            if inside[k] and not inside[i] or inside[i] and inside[j] and not inside[k]:
                return False
    for a in table.elements:
        if (a in members) == (table.complement(a) in members):
            return False
    return True


def state_to_prime_ideal(table, s):
    """The elements valued 0 by a two-valued state."""
    _check_two_valued(table, s)
    return PrimeIdeal(frozenset(e for e in table.elements if s(e) == 0))


def prime_ideal_to_state(table, ideal):
    """The indicator of the ideal's complement."""
    if not is_prime_ideal(table, ideal):
        raise StructureError("not a prime ideal")
    return TwoValuedState(
        table, {e: 0 if e in ideal.members else 1 for e in table.elements}
    )


def _primeness(table):
    """The states' 0/1 rows, each element's column, and `cover._columns`' pair."""
    rows = _state_rows(table)
    return (rows, *_columns(table.elements, b"".join(rows)))


def is_prime(table):
    """Whether the two-valued states separate every pair of elements."""
    rows, _, twins = _primeness(table)
    if twins is not None:
        return PrimenessResult(False, None, twins)
    sts = tuple(TwoValuedState._of_bits(table, tuple(row)) for row in rows)
    return PrimenessResult(True, sts, None)


def _subtract(row, coef, other):
    """row -= coef * other over sparse rows {column: coefficient}."""
    for j, v in other.items():
        w = row.get(j, 0) - coef * v
        if w:
            row[j] = w
        else:
            row.pop(j, None)


def _eliminate(equations):
    """Incremental sparse Gauss-Jordan over rows {column: coefficient}.

    Each row pivots on its highest remaining column, and every pivot row
    holds only non-pivot columns.  Returns {pivot: (row without the pivot,
    right-hand side)}, so x[pivot] = rhs - sum(coef * x[col]), or None when
    the equations are inconsistent.
    """
    pivots = {}
    for eq, rhs in equations:
        row = {}
        for col, coef in eq:
            _subtract(row, -coef, {col: 1})
        for col in [c for c in row if c in pivots]:
            coef = row.pop(col)
            prow, prhs = pivots[col]
            _subtract(row, coef, prow)
            rhs -= coef * prhs
        if not row:
            if rhs:
                return None
            continue
        p = max(row)
        lead = row.pop(p)
        # a unit lead keeps int coefficients int, which is much cheaper
        inv = lead if lead in (1, -1) else 1 / Fraction(lead)
        row = {j: v * inv for j, v in row.items()}
        rhs = rhs * inv
        for q, (qrow, qrhs) in pivots.items():
            coef = qrow.pop(p, 0)
            if coef:
                _subtract(qrow, coef, row)
                pivots[q] = (qrow, qrhs - coef * rhs)
        pivots[p] = (row, rhs)
    return pivots


def _phase_one(rows, nvars):
    """Some x >= 0 with a.x <= b on every row (a, b), or None if there is none.

    A phase-1 simplex in exact arithmetic under Bland's rule (smallest-label
    entering and leaving variables, so it cannot cycle).  The auxiliary
    variable, label nvars, is subtracted from every row and minimized; the
    slack of row i has label nvars + 1 + i.  Tableau row i reads
    sum(t[j] * x[nonbasic[j]]) + x[basic[i]] = t[-1].
    """
    if all(b >= 0 for _, b in rows):
        return [Fraction(0)] * nvars
    aux = nvars
    nonbasic = list(range(nvars + 1))
    basic = [nvars + 1 + i for i in range(len(rows))]
    tab = [
        [Fraction(a.get(j, 0)) for j in range(nvars)] + [Fraction(-1), Fraction(b)]
        for a, b in rows
    ]
    # objective: maximize -x[aux]; cost[-1] holds minus its current value
    cost = [Fraction(0)] * nvars + [Fraction(-1), Fraction(0)]

    def pivot(r, e):
        row = tab[r]
        inv = 1 / row[e]
        row[e] = Fraction(1)
        row = tab[r] = [x * inv for x in row]
        for other in tab + [cost]:
            f = other[e]
            if f and other is not row:
                other[e] = 0
                for j, x in enumerate(row):
                    if x:
                        other[j] -= f * x
        nonbasic[e], basic[r] = basic[r], nonbasic[e]

    pivot(min(range(len(rows)), key=lambda i: tab[i][-1]), aux)
    while True:
        entering = [j for j in range(nvars + 1) if cost[j] > 0]
        if not entering:
            break
        e = min(entering, key=nonbasic.__getitem__)
        r = min(
            (i for i in range(len(tab)) if tab[i][e] > 0),
            key=lambda i: (tab[i][-1] / tab[i][e], basic[i]),
        )
        pivot(r, e)
    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * nvars
    for i, v in enumerate(basic):
        if v < nvars:
            x[v] = tab[i][-1]
    return x


def state_space_solve(table):
    """Solve the exact state equations {s(0)=0, s(1)=1, s(a)+s(b)=s(a+b)}.

    The dimension is that of the equality system's affine solution set;
    feasibility within the [0,1] bounds is decided by a phase-1 simplex,
    so no state is ever enumerated.
    """
    n = len(table.elements)
    zero, one = _bounds(table)
    equations = [(((zero, 1),), 0), (((one, 1),), 1)]
    equations += [
        (((ia, 1), (ib, 1), (ic, -1)), 0) for ia, ib, ic in _sum_entries(table)
    ]
    pivots = _eliminate(equations)
    if pivots is None:
        return StateSpaceSolution(-1, None, False)
    free = [i for i in range(n) if i not in pivots]
    local = {col: k for k, col in enumerate(free)}

    # 0 <= rhs - a.f <= 1 over the free values f, as rows a.f <= b; rows
    # that hold on the whole box [0,1]^d are dropped
    rows = []
    for prow, rhs in pivots.values():
        a = {local[j]: v for j, v in prow.items()}
        for coef, b in ((a, rhs), ({j: -v for j, v in a.items()}, 1 - rhs)):
            if sum(v for v in coef.values() if v > 0) > b:
                rows.append((coef, b))
    used = sorted({j for a, _ in rows for j in a})
    rows += [({j: 1}, 1) for j in used]
    point = _phase_one(rows, len(free))
    feasible = point is not None
    f = point if feasible else [Fraction(0)] * len(free)
    values = dict(zip(free, f))
    for p, (prow, rhs) in pivots.items():
        values[p] = rhs - sum(v * f[local[j]] for j, v in prow.items())
    sample = RationalState(
        table, {e: values[i] for i, e in enumerate(table.elements)}
    )
    return StateSpaceSolution(n - len(pivots), sample, feasible)

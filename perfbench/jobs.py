"""One function per command, calling the library as the matching cli.py handler does.

Every call into a library layer goes through `call(span, fn, *args)`, which
runs `fn(*args)` and, in a traced run, records a span named
`<module>.<function>`.  A command returns its JSON-able result; keys that
start with "_" carry objects the answer check needs and are not part of it.
"""

from partlogic import atlas, automata, dot, formats, oa, partition, states, testspace
from partlogic.errors import StructureError

_KIND = {"mealy": "automaton", "moore": "automaton", "pts": "test_space"}


def _load(call, text):
    kind, payload = call("formats.parse_any", formats.parse_any, text)
    return _KIND.get(kind, kind), payload


def _table(call, text):
    kind, payload = _load(call, text)
    if kind == "greechie":
        return call("oa.from_greechie", oa.from_greechie, payload)
    if kind == "partition_logic":
        return call("partition.pasting_to_oa", partition.pasting_to_oa, payload)
    raise StructureError("%s does not define a logic table" % kind)


def _test_space(call, text):
    kind, payload = _load(call, text)
    if kind == "greechie":
        return call("testspace.TestSpace.from_greechie", testspace.TestSpace.from_greechie, payload), None
    return payload.as_test_space(), payload


def _labels(items):
    return [oa.format_label(x) for x in items]


def _cells(cells):
    return [sorted(map(str, c)) for c in cells]


def cmd_verify(call, text):
    table = _table(call, text)
    cls = call("oa.classify", oa.classify, table)
    report = call("oa.verify_quasi_oa", oa.verify_quasi_oa, table)
    violations = [{"axiom": v.axiom, "witness": _labels(v.witness)} for v in report.violations]
    return {"class": cls, "elements": len(table.elements), "violations": violations}


def cmd_states(call, text):
    table = _table(call, text)
    sts = call("states.enumerate_two_valued_states", states.enumerate_two_valued_states, table)
    atoms = call("states.atoms_of", states.atoms_of, table)
    rows = [list(s.row(atoms)) for s in sts]
    return {"atoms": _labels(atoms), "count": len(sts), "rows": rows}


def cmd_prime(call, text):
    table = _table(call, text)
    res = call("states.is_prime", states.is_prime, table)
    if res.prime:
        return {"prime": True, "states": len(res.separating)}
    return {"prime": False, "inseparable": _labels(res.inseparable)}


def cmd_state_space(call, text):
    table = _table(call, text)
    sol = call("states.state_space_solve", states.state_space_solve, table)
    sample = None if sol.sample is None else dict(sol.sample.values)
    return {"dimension": sol.dimension, "feasible": sol.feasible, "_sample": sample, "_table": table}


def cmd_blocks(call, text):
    table = _table(call, text)
    blks = call("oa.blocks", oa.blocks, table)
    atoms = [call("oa.boolean_atoms", oa.boolean_atoms, table, frozenset(b))[0] for b in blks]
    return {"count": len(blks), "blocks": [_labels(b) for b in blks], "atoms": [_labels(a) for a in atoms]}


def cmd_iso(call, text, other):
    t1 = _table(call, text)
    t2 = _table(call, other)
    iso = call("partition.isomorphic", partition.isomorphic, t1, t2)
    if iso is None:
        return {"isomorphic": False}
    mapping = {oa.format_label(a): oa.format_label(b) for a, b in iso.mapping.items()}
    return {"isomorphic": True, "mapping": mapping, "_map": iso.mapping, "_tables": (t1, t2)}


def _pl_result(pl, text):
    return {"points": len(pl.ground), "partitions": [_cells(p) for p in pl.partitions], "text": text}


def cmd_to_pl(call, text):
    table = _table(call, text)
    pl = call("partition.oa_to_partition_logic", partition.oa_to_partition_logic, table)
    return _pl_result(pl, call("formats.serialize", formats.serialize, pl))


def cmd_to_automaton(call, text):
    _kind, pl = _load(call, text)
    machine = call("automata.partition_logic_to_mealy", automata.partition_logic_to_mealy, pl)
    return {"text": call("formats.serialize", formats.serialize, machine)}


def cmd_from_automaton(call, text):
    _kind, machine = _load(call, text)
    pl = call("automata.propositional_calculus", automata.propositional_calculus, machine, 1)
    return _pl_result(pl, call("formats.serialize", formats.serialize, pl))


def cmd_atlas(call, text):
    table = _table(call, text)
    chart_set = call("atlas.quasi_oa_to_atlas", atlas.quasi_oa_to_atlas, table)
    return {"charts": [_labels(c.atoms) for c in chart_set.charts]}


def cmd_dot(call, text):
    _kind, diagram = _load(call, text)
    return {"dot": call("dot.render_dot", dot.render_dot, diagram, "hasse")}


def cmd_testspace(call, text):
    ts, pts = _test_space(call, text)
    report = call("testspace.verify_test_space", testspace.verify_test_space, ts)
    alg = call("testspace.is_algebraic", testspace.is_algebraic, ts)
    weights = call("testspace.enumerate_two_valued_weights", testspace.enumerate_two_valued_weights, ts)
    result = {"class": report.structure_class, "algebraic": bool(alg), "two_valued_weights": len(weights)}
    if pts is not None:
        result["complete"] = bool(call("testspace.is_complete", testspace.is_complete, pts))
    return result


def cmd_complete(call, text):
    _kind, pts = _load(call, text)
    done = call("testspace.completion", testspace.completion, pts)
    return {"added": len(done.tests) - len(pts.tests), "tests": len(done.tests), "text": call("formats.serialize", formats.serialize, done)}


def cmd_pi_logic(call, text):
    ts, _pts = _test_space(call, text)
    table = call("testspace.pi_logic", testspace.pi_logic, ts)
    return {"elements": len(table.elements)}


def cmd_omp_conditions(call, text):
    _kind, pts = _load(call, text)
    cond = call("testspace.omp_conditions", testspace.omp_conditions, pts)
    return {"triple": cond.triple_condition, "concrete": cond.concrete_condition}


def cmd_ts_to_pts(call, text):
    ts, _pts = _test_space(call, text)
    rep = call("testspace.ts_to_partition_test_space", testspace.ts_to_partition_test_space, ts)
    return {
        "base": len(rep.base),
        "cell_sizes": sorted(len(c) for c in rep.cells),
        "tests": len(rep.tests),
        "text": call("formats.serialize", formats.serialize, rep),
    }


COMMANDS = {
    "verify": cmd_verify,
    "states": cmd_states,
    "prime": cmd_prime,
    "state-space": cmd_state_space,
    "blocks": cmd_blocks,
    "iso": cmd_iso,
    "to-pl": cmd_to_pl,
    "to-automaton": cmd_to_automaton,
    "from-automaton": cmd_from_automaton,
    "atlas": cmd_atlas,
    "dot": cmd_dot,
    "testspace": cmd_testspace,
    "complete": cmd_complete,
    "pi-logic": cmd_pi_logic,
    "omp-conditions": cmd_omp_conditions,
    "ts-to-pts": cmd_ts_to_pts,
}

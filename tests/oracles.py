"""Definitional oracles and mutant carriers shared by the tests.

Each carrier oracle loops over the elements one at a time, straight from
the definition, with no table or memo of the carrier's.  flat_run runs a
law case by case, evaluating every repeated draw again.  MUTANTS
holds the commutative single-cell mutants of q4, l3 and m3: broken tables
are where a shortcut would drift from the definition.
"""

from pathlib import Path

from qk.generators import m3_quantale
from qk.quantfile import load_quant
from qk.verify import single_cell_mutants

DATA = Path(__file__).parent / "data"


def members(q, m):
    return [x for x in range(q.n) if m >> x & 1]


def annihilator_scan(q, s):
    return sum(
        1 << x for x in range(q.n) if all(q.mul[x][t] == q.bottom for t in members(q, s))
    )


def generated_scan(q, s):
    prods = 0
    for t in members(q, s):
        for l in range(q.n):
            prods |= 1 << q.mul[l][t]
    return q.down[q.join_of(members(q, prods))]


def flat_run(law):
    """verify._run without replay: every case of domain.cases() in turn."""
    checked = 0
    try:
        for case in law.domain.cases():
            ok = law.holds(*case)
            if ok is None:
                continue
            if not ok:
                wit = (law.witness or law.domain.witness)(*case)
                return "fail", checked + 1, tuple(str(w) for w in wit), ""
            checked += 1
    except Exception as exc:
        return "fail", checked, (), f"error: {type(exc).__name__}: {exc}"
    return "pass", checked, None, ""


MUTANTS = [
    m
    for q in (load_quant(DATA / "q4.quant"), load_quant(DATA / "l3.quant"), m3_quantale())
    for _, _, m in single_cell_mutants(q)
    if m.commutative
]

"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Each test prints its verdict to the real terminal (bypassing capture) so a
plain pytest run shows the seven lines, then asserts, so a failed criterion
is also a failed test.
"""

import time
from dataclasses import replace
from pathlib import Path

from qk import classify as cl
from qk import decompose as dc
from qk import ideals as il
from qk.cli import main
from qk.core import check_axioms
from qk.errors import NotDecomposable
from qk.generators import (
    chain_poset,
    antichain_poset,
    lowersets_quantale,
    lukasiewicz_quantale,
    m3_quantale,
    opens_quantale,
    powerset_quantale,
)
from qk.quantfile import load_hom, load_quant, parse_quant, write_quant
from qk.verify import run_suite, single_cell_mutants

from oracles import all_posets, all_topologies, mc_radical_scan

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def _verdict(capsys, num, title, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"criterion {num} {title}: {'pass' if ok else 'FAIL'}{tail}")


def _bundled_generators():
    base = []
    for k in range(5):
        base.append(powerset_quantale(k))
    for pts, rel in all_posets(4):
        base.append(lowersets_quantale(pts, rel, name=f"low{pts}_{len(base)}"))
    for pts, fam in all_topologies(3):
        base.append(opens_quantale(pts, fam, name=f"op{pts}_{len(base)}"))
    for n in range(1, 9):
        base.append(lukasiewicz_quantale(n))
    base.append(m3_quantale())
    return base


def _small_corpus(max_n):
    """Named instances with at most max_n elements, files included."""
    out = [load_quant(DATA / f) for f in ("q4.quant", "l3.quant", "c2.quant", "nondec.quant")]
    out.append(m3_quantale())
    out.extend(powerset_quantale(k) for k in range(4))
    out.extend(lukasiewicz_quantale(n) for n in range(1, 13))
    for n in range(1, 5):
        out.append(lowersets_quantale(*chain_poset(n), name=f"lowchain{n}"))
    for n in range(2, 4):
        out.append(lowersets_quantale(*antichain_poset(n), name=f"lowanti{n}"))
    out.append(opens_quantale(2, (0b00, 0b01, 0b11), name="sierp"))
    return [q for q in out if q.n <= max_n]


def test_criterion_1_axioms_on_every_generator(capsys):
    t0 = time.monotonic()
    base = _bundled_generators()
    corpus = base + [il.ideal_quantale(q).quantale for q in base]
    bad = []
    for q in corpus:
        rep = check_axioms(q)
        flags = (rep.lattice_ok, rep.assoc_ok, rep.comm_ok, rep.distrib_ok, rep.identity_ok)
        if not (rep.ok and all(flags)):
            bad.append(q.name)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 5.0
    _verdict(capsys, 1, "axiom suite over bundled generators", ok,
             f"{len(corpus)} instances, {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 5.0, elapsed


def test_criterion_2_oracle_equivalence(capsys):
    t0 = time.monotonic()
    corpus = _small_corpus(12)
    bad = []
    seen_laws = set()
    for q in corpus:
        rep = run_suite(q, "collapse")
        seen_laws.update(r.law for r in rep.results)
        if rep.failed or rep.skipped:
            bad.append((q.name, [r.law for r in rep.failures()]))
    elapsed = time.monotonic() - t0
    # the four cross-checks the criterion names must all have run
    required = {
        "ideals_match_brute_force",
        "radical_algorithms_agree",
        "product_matches_closure",
        "ideal_carrier_iso",
    }
    ok = not bad and required <= seen_laws and elapsed < 30.0
    _verdict(capsys, 2, "exact agreement with definitional oracles", ok,
             f"{len(corpus)} instances, {elapsed:.2f}s")
    assert not bad, bad
    assert required <= seen_laws, seen_laws
    assert elapsed < 30.0, elapsed


def test_criterion_3_full_law_catalogue(capsys):
    t0 = time.monotonic()
    instances = [
        load_quant(DATA / "q4.quant"),
        load_quant(DATA / "l3.quant"),
        powerset_quantale(3),
        lowersets_quantale(*chain_poset(3), name="lowchain3"),
        lukasiewicz_quantale(5),
        m3_quantale(),
    ]
    bad = []
    for q in instances:
        rep = run_suite(q, "all")
        if rep.failed or rep.skipped or len(rep.results) != 112:
            bad.append((q.name, rep.failed, rep.skipped, len(rep.results)))
    # two nontrivial file homs drive the extension/contraction suite again
    for hom_file in ("q4_to_c2.hom", "l3_to_c2.hom"):
        h = load_hom(DATA / hom_file)
        rep = run_suite(h.source, "cep", hom=h)
        if rep.failed or rep.skipped:
            bad.append((hom_file, rep.failed, rep.skipped, len(rep.results)))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    _verdict(capsys, 3, "every law suite green, no skips", ok,
             f"6 instances + 2 homs, {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 60.0, elapsed


def test_criterion_4_first_uniqueness(capsys):
    decomposable = 0
    not_decomposable = []
    for q in _small_corpus(10):
        for i in il.enumerate_ideals(q):
            if not i.proper:
                continue
            try:
                rep = dc.uniqueness_report(i)
            except NotDecomposable:
                not_decomposable.append((q.name, i.name))
                continue
            decomposable += 1
            assert set(rep.associated_primes) == set(rep.colon_primes), (q.name, i.name)
            ps = cl.primes_over(i)
            minimal = {p for p in ps if not any(o < p for o in ps)}
            assert set(rep.isolated) == minimal, (q.name, i.name)
            assert rep.isolated_components_match, (q.name, i.name)
            assoc = set(rep.associated_primes)
            for comps in dc.all_minimal_decompositions(i):
                assert {cl.radical(c) for c in comps} == assoc, (q.name, i.name)
    # the only proper ideal without a decomposition in this corpus
    ok = decomposable >= 80 and not_decomposable == [("nondec", "↓0")]
    _verdict(capsys, 4, "uniqueness of associated primes and isolated parts", ok,
             f"{decomposable} decomposable ideals")
    assert decomposable >= 80, decomposable
    assert not_decomposable == [("nondec", "↓0")], not_decomposable


def test_criterion_5_golden_facts(capsys):
    q4 = load_quant(DATA / "q4.quant")
    l3 = load_quant(DATA / "l3.quant")
    m3 = m3_quantale()

    assert {p.name for p in cl.spectrum(q4)} == {"↓a", "↓b"}

    zero = il.principal(l3, l3.index("0"))
    for alg in ("powers", "primes"):
        assert cl.radical(zero, alg).name == "↓1", alg
    assert l3.labels(mc_radical_scan(zero)) == "0 1"
    assert cl.is_primary(zero)
    assert not cl.is_prime(zero)

    assert dc.is_arithmetic(q4)
    assert not dc.is_arithmetic(m3)
    for q, irr_names, strong_names in (
        (q4, {"↓a", "↓b", "↓top"}, {"↓a", "↓b", "↓top"}),
        (m3, {"↓p", "↓q", "↓r", "↓m", "↓top"}, {"↓m", "↓top"}),
    ):
        ideals = il.enumerate_ideals(q)
        irr = {i.name for i in ideals if dc.is_irreducible(i)}
        strong = {i.name for i in ideals if dc.is_strongly_irreducible(i)}
        assert irr == irr_names, (q.name, irr)
        assert strong == strong_names, (q.name, strong)
        # the gap between the two notions closes exactly on arithmetic carriers
        assert (irr == strong) == dc.is_arithmetic(q), q.name

    _verdict(capsys, 5, "frozen facts about the bundled instances", True)


def test_criterion_6_mutation_sensitivity(capsys):
    q4 = load_quant(DATA / "q4.quant")
    l3 = load_quant(DATA / "l3.quant")

    # library scheme: one top/bottom rewrite per cell, all must be flagged
    missed = []
    for q in (q4, l3):
        for i, j, mutant in single_cell_mutants(q):
            if run_suite(mutant, "all").failed == 0:
                missed.append(mutant.name)
    assert missed == [], missed

    # full sweep: every other value in every cell; a mutant may only escape
    # by being a lawful carrier in its own right, which the laws cannot see
    lawful_escapes = []
    total = 0
    for q in (q4, l3):
        for i in range(q.n):
            for j in range(q.n):
                for v in range(q.n):
                    if v == q.mul[i][j]:
                        continue
                    total += 1
                    rows = [list(r) for r in q.mul]
                    rows[i][j] = v
                    mutant = replace(
                        q, name=f"{q.name}~{i},{j}={v}", mul=tuple(tuple(r) for r in rows)
                    )
                    if run_suite(mutant, "all").failed > 0:
                        continue
                    assert check_axioms(mutant).ok, mutant.name
                    lawful_escapes.append(mutant.name)
    # rewriting 1&1 from 0 to 1 turns the 3-step chain into the min chain,
    # a perfectly valid carrier, so no law-based suite can flag it
    ok = lawful_escapes == ["l3~1,1=1"]
    _verdict(capsys, 6, "every broken single-cell mutant flagged", ok,
             f"{total} mutants, {len(lawful_escapes)} lawful rewrite")
    assert lawful_escapes == ["l3~1,1=1"], lawful_escapes


def test_criterion_7_cli_contract(capsys):
    q4 = str(DATA / "q4.quant")
    l3 = str(DATA / "l3.quant")
    goldens = [
        ("check_q4.txt", ["check", q4]),
        ("ideals_l3.txt", ["ideals", l3]),
        ("classify_l3_0.txt", ["classify", l3, "--below", "0"]),
        ("spectrum_q4.txt", ["spectrum", q4]),
        ("radical_l3_0.txt", ["radical", l3, "--below", "0", "--algorithm", "all"]),
        ("decompose_q4_bot.txt", ["decompose", q4, "--below", "bot"]),
        ("verify_q4_axioms.txt", ["verify", q4, "--suite", "axioms"]),
        ("hom_check_q4.txt", ["hom", "check", str(DATA / "q4_to_c2.hom")]),
        ("gen_powerset2.txt", ["gen", "powerset:2"]),
    ]
    for name, argv in goldens:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, name
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name

    # parse/write round trip is byte-stable on canonical text
    for f in ("q4.quant", "l3.quant"):
        text = write_quant(load_quant(DATA / f))
        assert write_quant(parse_quant(text)) == text, f

    # exit codes: 0 success, 1 domain failure, 2 usage failure
    assert main(["check", q4]) == 0
    assert main(["decompose", str(DATA / "nondec.quant"), "--below", "0"]) == 1
    assert main(["hom", "check", str(DATA / "q4_to_c2_bad.hom")]) == 1
    assert main(["check", str(DATA / "does_not_exist.quant")]) == 2
    assert main(["classify", q4, "--below", "zzz"]) == 2
    capsys.readouterr()

    _verdict(capsys, 7, "command line golden files and exit codes", True)

"""Byte-for-byte verify reports at --seed 7.

Covers the CLI on the bundled carriers, the sampled path (lukasiewicz:9
samples every sampled law; lowersets:antichain3 at n=8 samples only
proposition_bpi.generated_meet_lower), the two carriers of the verify-large
benchmark workload (lukasiewicz:12, powerset:4) and three q4 mutants: one
whose laws crash, one with many failing witnesses, one noncommutative.  The
first two are also pinned in the law table of --format table, whose detail
column holds the witnesses and the crash notes.  The laws over the product
domains of primaries or ideals by elements (pqx, and two saturation laws)
are pinned at seed 0 on every mutant of the mutation benchmark, where most
of them fail with a witness.  The laws over masks (annihilator, and
proposition_bpi.generated_meet_lower) are pinned at seeds 0 and 7 on those
carriers and their mutants.
"""

import re
from pathlib import Path

import pytest

from qk.cli import main
from qk.generators import generate_from_spec
from qk.quantfile import load_quant
from qk.verify import SUITE_ORDER, VerificationReport, run_suite, single_cell_mutants

from oracles import MUTATION_BASES, MUTATION_MUTANTS

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SEED = "7"


def _cli(*argv):
    def render(capsys):
        code = main(["verify", *argv, "--seed", SEED])
        out = capsys.readouterr()
        assert out.err == ""
        return code, out.out

    return render


def _spec(spec):
    def render(capsys):
        rep = run_suite(generate_from_spec(spec), "all", seed=int(SEED))
        return int(not rep.ok), rep.format()

    return render


def _mutant(i, j, fmt="records"):
    def render(capsys):
        mutants = {(a, b): m for a, b, m in single_cell_mutants(load_quant(DATA / "q4.quant"))}
        rep = run_suite(mutants[(i, j)], "all", seed=int(SEED))
        return int(not rep.ok), rep.format(fmt)

    return render


def _product_domains(capsys):
    """The pqx rows and two saturation rows of each mutant, one report each."""
    reports = []
    for q in MUTATION_MUTANTS:
        rows = run_suite(q, "pqx", seed=0).results + tuple(
            r
            for r in run_suite(q, "saturation", seed=0).results
            if r.law in ("saturated_iff_union_of_primes", "mc_radical_decider")
        )
        reports.append(VerificationReport(q.name, "pqx saturation", 0, rows, {}))
    return int(not all(r.ok for r in reports)), "\n".join(r.format() for r in reports)


def _mask_laws(capsys):
    """The annihilator rows and proposition_bpi.generated_meet_lower of each
    mutation carrier and each of its mutants, at seeds 0 and 7."""
    reports = []
    for q in (*MUTATION_BASES, *MUTATION_MUTANTS):
        for seed in (0, 7):
            rows = run_suite(q, "annihilator", seed=seed).results + tuple(
                r
                for r in run_suite(q, "proposition_bpi", seed=seed).results
                if r.law == "generated_meet_lower"
            )
            reports.append(VerificationReport(q.name, "annihilator bpi", seed, rows, {}))
    return int(not all(r.ok for r in reports)), "\n".join(r.format() for r in reports)


CASES = {
    "verify_q4_seed7.txt": (0, _cli(str(DATA / "q4.quant"))),
    "verify_l3_seed7.txt": (0, _cli(str(DATA / "l3.quant"))),
    "verify_c2_seed7.txt": (0, _cli(str(DATA / "c2.quant"))),
    "verify_nondec_seed7.txt": (0, _cli(str(DATA / "nondec.quant"))),
    "verify_l3_seed7_table.txt": (0, _cli(str(DATA / "l3.quant"), "--format", "table")),
    "verify_q4_cep_hom_seed7.txt": (
        0,
        _cli(str(DATA / "q4.quant"), "--suite", "cep", "--hom", str(DATA / "q4_to_c2.hom")),
    ),
    "run_suite_m3_seed7.txt": (0, _spec("m3")),
    "run_suite_antichain3_seed7.txt": (0, _spec("lowersets:antichain3")),
    "run_suite_lukasiewicz9_seed7.txt": (0, _spec("lukasiewicz:9")),
    "run_suite_lukasiewicz12_seed7.txt": (0, _spec("lukasiewicz:12")),
    "run_suite_powerset4_seed7.txt": (0, _spec("powerset:4")),
    "run_suite_q4_mutant_0_0_seed7.txt": (1, _mutant(0, 0)),
    "run_suite_q4_mutant_1_1_seed7.txt": (1, _mutant(1, 1)),
    "run_suite_q4_mutant_0_1_seed7.txt": (1, _mutant(0, 1)),
    "run_suite_q4_mutant_0_0_seed7_table.txt": (1, _mutant(0, 0, "table")),
    "run_suite_q4_mutant_1_1_seed7_table.txt": (1, _mutant(1, 1, "table")),
    "run_suite_mutation_mutants_product_domains_seed0.txt": (1, _product_domains),
    "run_suite_mutation_mask_laws_seed0_seed7.txt": (1, _mask_laws),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_golden(capsys, name):
    want_code, render = CASES[name]
    code, out = render(capsys)
    assert code == want_code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["records", "table"])
def test_timing_rows_follow_skipped(fmt):
    rep = run_suite(load_quant(DATA / "l3.quant"), "all", seed=int(SEED))
    lines = rep.format(fmt, timing=True).splitlines()
    at = lines.index(f"skipped\t{rep.skipped}") + 1
    rows = [line.split("\t") for line in lines[at : at + len(SUITE_ORDER)]]
    assert [key for key, _ in rows] == [f"elapsed.{s}" for s in SUITE_ORDER]
    assert all(re.fullmatch(r"\d+\.\d{3}", value) for _, value in rows)
    # the rest of the report is the untimed one
    del lines[at : at + len(SUITE_ORDER)]
    assert "\n".join(lines) + "\n" == rep.format(fmt)

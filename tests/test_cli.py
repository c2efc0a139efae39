import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qk.cli
from qk.cli import main
from qk.core import ELEMENT_CAP
from qk.errors import QuantaleError, QuantFileError
from qk.quantfile import load_quant, parse_quant, write_quant
from qk.verify import single_cell_mutants

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

Q4 = str(DATA / "q4.quant")
L3 = str(DATA / "l3.quant")
NONDEC = str(DATA / "nondec.quant")
NC = str(DATA / "nc.quant")
HOM = str(DATA / "q4_to_c2.hom")
BAD_HOM = str(DATA / "q4_to_c2_bad.hom")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name,argv",
    [
        ("check_q4.txt", ["check", Q4]),
        ("ideals_l3.txt", ["ideals", L3]),
        ("classify_l3_0.txt", ["classify", L3, "--below", "0"]),
        ("spectrum_q4.txt", ["spectrum", Q4]),
        ("radical_l3_0.txt", ["radical", L3, "--below", "0", "--algorithm", "all"]),
        ("decompose_q4_bot.txt", ["decompose", Q4, "--below", "bot"]),
        ("verify_q4_axioms.txt", ["verify", Q4, "--suite", "axioms"]),
        ("hom_check_q4.txt", ["hom", "check", HOM]),
        ("gen_powerset2.txt", ["gen", "powerset:2"]),
        (
            "decompose_q4_bot_irreducible.txt",
            ["decompose", Q4, "--below", "bot", "--kind", "irreducible"],
        ),
        ("spectrum_l3.txt", ["spectrum", L3]),
    ],
)
def test_golden_outputs(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == golden(name)


@pytest.mark.parametrize(
    "stem,spec",
    [
        ("powerset3", "powerset:3"),
        ("lukasiewicz5", "lukasiewicz:5"),
        ("m3", "m3"),
        ("lowersets_chain4", "lowersets:chain4"),
        ("lowersets_antichain3", "lowersets:antichain3"),
        ("lowersets_4_matching", "lowersets:4:0<1,2<3"),
        ("opens_sierpinski", "opens:sierpinski"),
        ("opens_3_nested", "opens:3:-,0,01,012"),
        ("ideal_quantale_q4", f"ideal_quantale:{Q4}"),
    ],
)
def test_gen_and_check_golden_outputs(capsys, tmp_path, stem, spec):
    code, out, err = run(capsys, "gen", spec)
    assert (code, err) == (0, "")
    assert out == golden(f"gen_{stem}.txt")
    path = tmp_path / f"{stem}.quant"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert out == golden(f"check_{stem}.txt")


@pytest.mark.parametrize(
    "stem,spec,code",
    [("nope", "nope", 2), ("powerset", "powerset", 2), ("powerset10", "powerset:10", 1)],
)
def test_gen_error_golden_outputs(capsys, stem, spec, code):
    assert run(capsys, "gen", spec) == (code, "", golden(f"gen_error_{stem}.txt"))


@pytest.mark.parametrize(
    "spec,message",
    [
        ("lukasiewicz:0", "lukasiewicz needs at least one element, got 0"),
        ("powerset:-1", "a poset has 0 or more points, got -1"),
    ],
)
def test_gen_below_one_element_is_a_usage_error(capsys, spec, message):
    assert run(capsys, "gen", spec) == (2, "", f"qk: {message}\n")


def test_python_dash_m_qk(capsys):
    root = DATA.parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}

    def qk(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qk", *argv], cwd=root, env=env, capture_output=True, text=True
        )

    done = qk("check", Q4)
    assert (done.returncode, done.stdout) == run(capsys, "check", Q4)[:2]
    assert qk("--help").returncode == 0


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main parses with one parser per process: no option of a call may
    # reach the next, and a usage error leaves the calls after it as they
    # are; each call gives the bytes of its own qk process
    assert qk.cli.build_parser() is qk.cli.build_parser()
    monkeypatch.setenv("QK_SEED", "271")
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["verify", L3, "--suite", "axioms", "--seed", "3"],
        ["verify", L3, "--suite", "axioms"],
        ["check", Q4, "--format", "table"],
        ["spectrum", Q4, "--bogus"],
        ["check", Q4],
        ["verify", L3, "--suite", "lemma_bip", "--seed", "x"],
        ["radical", L3, "--below", "0", "--algorithm", "all"],
        ["radical", L3, "--ideal", "0"],
    ]
    got = [run(capsys, *argv) for argv in calls]
    assert "seed\t3\n" in got[0][1] and "seed\t271\n" in got[1][1]
    assert "\t" not in got[2][1] and got[4][1] == golden("check_q4.txt")
    assert [code for code, _, _ in got] == [0, 0, 0, 2, 0, 2, 0, 0]
    assert "radical.primes" in got[6][1] and "radical.primes" not in got[7][1]
    env = {**os.environ, "PYTHONPATH": "src"}
    for argv, result in zip(calls, got):
        done = subprocess.run(
            [sys.executable, "-m", "qk", *argv],
            cwd=DATA.parent.parent, env=env, capture_output=True, text=True,
        )
        assert result == (done.returncode, done.stdout, done.stderr), argv


def test_outputs_are_reproducible(capsys):
    first = run(capsys, "verify", Q4, "--suite", "lemma_bip")
    second = run(capsys, "verify", Q4, "--suite", "lemma_bip")
    assert first == second


def test_gen_roundtrip_bytes(capsys, tmp_path):
    out_file = tmp_path / "x.quant"
    for spec in ("powerset:3", "lukasiewicz:4", "m3", "lowersets:chain3"):
        code, out, _ = run(capsys, "gen", spec)
        assert code == 0
        q = parse_quant(out)
        assert write_quant(q) == out
        code, _, _ = run(capsys, "gen", spec, "-o", str(out_file))
        assert code == 0
        assert out_file.read_text(encoding="utf-8") == out


def test_gen_ideal_quantale_of_file(capsys):
    code, out, _ = run(capsys, "gen", f"ideal_quantale:{Q4}")
    assert code == 0
    assert "↓a" in out


def test_classify_by_generator_list(capsys):
    code, out, _ = run(capsys, "classify", Q4, "--ideal", "a,b")
    assert code == 0
    assert "ideal\t↓top" in out
    assert "proper\tfalse" in out


def test_table_format(capsys):
    code, out, _ = run(capsys, "check", Q4, "--format", "table")
    assert code == 0
    assert "\t" not in out
    assert "status" in out


@pytest.mark.parametrize(
    "argv",
    [["gen", "--format", "table", "m3"], ["hom", "--format", "table", "check", HOM]],
)
def test_format_is_refused_where_it_does_nothing(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


def test_hom_check_table_format(capsys):
    code, out, err = run(capsys, "hom", "check", "--format", "table", HOM)
    assert (code, err) == (0, "")
    assert out == "hom     q4_collapse\nsource  q4\ntarget  c2\nvalid   true\n"


def test_verify_seed_flag(capsys):
    code, out, _ = run(capsys, "verify", L3, "--suite", "axioms", "--seed", "9")
    assert code == 0
    assert "seed\t9" in out


def test_verify_timing_flag(capsys):
    code, out, _ = run(capsys, "verify", L3, "--suite", "axioms", "--timing")
    assert code == 0
    assert "elapsed.axioms" in out


def test_qk_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("QK_SEED", "271")
    code, out, _ = run(capsys, "verify", L3, "--suite", "axioms")
    assert code == 0
    assert "seed\t271" in out


def test_non_integer_qk_seed_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("QK_SEED", "abc")
    code, out, err = run(capsys, "verify", L3)
    assert (code, out) == (2, "")
    assert err == "qk: QK_SEED must be an integer, got 'abc'\n"


def test_verify_all_green(capsys):
    code, out, _ = run(capsys, "verify", L3)
    assert code == 0
    assert "failed\t0" in out
    assert "skipped\t0" in out


def test_verify_with_hom(capsys):
    code, out, _ = run(capsys, "verify", Q4, "--suite", "cep", "--hom", HOM)
    assert code == 0
    assert "failed\t0" in out


def test_verify_hom_source_mismatch(capsys):
    code, _, err = run(capsys, "verify", L3, "--suite", "cep", "--hom", HOM)
    assert code == 1
    assert "does not match" in err


def test_exit_code_failed_axioms(capsys, tmp_path):
    bad = tmp_path / "bad.quant"
    bad.write_text(
        "quantale y\nelements: 0 1 2\norder:\n  0 <= 1\n  1 <= 2\n"
        "mul:\n  0: 0 0 0\n  1: 0 0 1\n  2: 0 2 2\nend\n"
    )
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "status\tfail" in out
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "failed\t0" not in out


def test_exit_code_invalid_hom(capsys):
    code, out, _ = run(capsys, "hom", "check", BAD_HOM)
    assert code == 1
    assert "valid\tfalse" in out
    assert "violates\tmeet" in out
    assert "witness\ta b" in out


def test_exit_code_domain_errors(capsys):
    # no primary decomposition exists for this ideal
    code, _, err = run(capsys, "decompose", NONDEC, "--below", "0")
    assert code == 1
    assert err != ""
    # the whole ideal cannot be decomposed either: properness fails
    code, _, err = run(capsys, "decompose", L3, "--below", "2")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["ideals", NC],
        ["classify", NC, "--below", "0"],
        ["classify", NC, "--ideal", "1"],
        ["spectrum", NC],
        ["radical", NC, "--below", "0", "--algorithm", "all"],
        ["decompose", NC, "--below", "0"],
        ["decompose", NC, "--below", "0", "--kind", "irreducible"],
        ["gen", f"ideal_quantale:{NC}"],
    ],
)
def test_noncommutative_file_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "qk: nc has a noncommutative multiplication\n"


def test_check_reports_a_noncommutative_file(capsys):
    code, out, _ = run(capsys, "check", NC)
    assert code == 1
    assert "commutative\tfalse" in out


def test_exit_code_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.quant"))
    assert code == 2
    broken = tmp_path / "broken.quant"
    broken.write_text("quantale x\nelements: a\norder:\nmul:\n  a: b\nend\n")
    code, _, err = run(capsys, "check", str(broken))
    assert code == 2
    assert "line 5" in err
    code, _, _ = run(capsys, "classify", Q4, "--below", "zzz")
    assert code == 2
    code, _, _ = run(capsys, "gen", "nope:1")
    assert code == 2
    code, _, _ = run(capsys, "radical", L3)  # neither --below nor --ideal
    assert code == 2
    # the mc-set form of the radical is a verify law, not a route
    code, _, err = run(capsys, "radical", L3, "--below", "0", "--algorithm", "mcsets")
    assert code == 2
    assert "invalid choice: 'mcsets'" in err
    code, _, _ = run(capsys)  # no subcommand
    assert code == 2


def test_too_many_elements_is_a_domain_error(capsys, tmp_path):
    big = tmp_path / "big.quant"
    labels = " ".join(f"e{k}" for k in range(ELEMENT_CAP + 1))
    big.write_text(f"quantale big\nelements: {labels}\norder:\n  <= <= <=\nmul:\n  :\n")
    code, out, err = run(capsys, "check", str(big))
    assert (code, out) == (1, "")
    assert err.startswith("qk: ") and err.count("\n") == 1
    assert f"more than {ELEMENT_CAP} elements" in err


def test_ideal_carrier_of_a_broken_file_is_a_domain_error(capsys, tmp_path):
    mutant = next(m for i, j, m in single_cell_mutants(load_quant(Q4)) if (i, j) == (0, 0))
    path = tmp_path / "q4_0_0.quant"
    path.write_text(write_quant(mutant), encoding="utf-8")
    code, out, err = run(capsys, "gen", f"ideal_quantale:{path}")
    assert (code, out) == (1, "")
    assert err == "qk: q4~0,0_ideals is not a quantale: assoc fails at ↓bot ↓bot ↓a\n"


@pytest.mark.parametrize(
    "spec",
    [
        "lowersets:antichain40",
        "lowersets:chain100000000",
        "lowersets:antichain4095",
        "lowersets:antichain12",
    ],
)
def test_oversized_lowersets_exit_at_once(capsys, spec):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", spec)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("qk: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec,code",
    [
        # the discrete topology on 10 points: 1,024 open sets, over the cap
        ("opens:10:" + ",".join("".join(str(p) for p in range(10) if s >> p & 1) or "-"
                                for s in range(1 << 10)), 1),
        ("opens:800000000:-", 2),
        ("opens:-1:-", 2),
        ("opens:2:-,5,01", 2),
    ],
    ids=["discrete10", "huge", "negative", "stray"],
)
def test_bad_opens_exit_at_once(capsys, spec, code):
    start = time.perf_counter()
    got, out, err = run(capsys, "gen", spec)
    assert time.perf_counter() - start < 1.0
    assert (got, out) == (code, "")
    assert err.startswith("qk: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{dir}"],
        ["gen", "ideal_quantale:"],
        ["gen", "ideal_quantale:{dir}"],
        ["gen", "ideal_quantale:{dir}/missing.quant"],
    ],
)
def test_unreadable_paths_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("qk: ") and err.count("\n") == 1


def test_gen_output_matches_generator(capsys):
    code, out, _ = run(capsys, "gen", "lukasiewicz:3")
    assert code == 0
    from qk.generators import lukasiewicz_quantale

    assert parse_quant(out).same_structure(lukasiewicz_quantale(3))


def test_spectrum_of_a_one_element_carrier(capsys, tmp_path):
    path = tmp_path / "one.quant"
    assert run(capsys, "gen", "lukasiewicz:1", "-o", str(path))[0] == 0
    code, out, err = run(capsys, "spectrum", str(path))
    assert (code, err) == (0, "")
    rows = dict(line.split("\t") for line in out.splitlines() if line)
    assert rows["count"] == "0"
    assert rows["nilradical"] == "↓0"
    assert not {"maximal_ideals", "jacobson", "local"} & rows.keys()


def _error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize(
    "error",
    [QuantaleError, *_error_classes(QuantaleError), OSError, ValueError],
    ids=lambda cls: cls.__name__,
)
def test_every_error_maps_to_its_exit_code(capsys, monkeypatch, error):
    """QuantFileError, OSError and ValueError exit 2, any other QuantaleError
    exits 1, and each prints one line on stderr and nothing on stdout."""

    def fail(path):
        raise error("cannot go on")

    monkeypatch.setattr(qk.cli, "load_quant", fail)
    code, out, err = run(capsys, "check", Q4)
    assert code == (2 if issubclass(error, (QuantFileError, OSError, ValueError)) else 1)
    assert out == ""
    assert err.startswith("qk: ") and err.count("\n") == 1


def test_a_closed_pipe_is_a_usage_error(capsys, monkeypatch):
    def closed(text):
        raise BrokenPipeError("closed pipe")

    monkeypatch.setattr(sys.stdout, "write", closed)
    code, _, err = run(capsys, "check", Q4)
    assert code == 2
    assert err == "qk: closed pipe\n"


def _workflow_rows(text):
    """(command, carrier) -> (timeout, exit status) of each row of the
    table-driven CI step: the file $f dropped, the --below label read as
    BOTTOM, and a gen row without a file named by the spec it makes."""
    body = text.split("<<'ROWS'\n", 1)[1].split("\n          ROWS\n", 1)[0]
    rows = {}
    for line in body.splitlines():
        limit, want, spec, args = line.split(None, 3)
        words = args.replace("$f", "").split()
        if "--below" in words:
            words[words.index("--below") + 1] = "BOTTOM"
        if spec == "-" and words[0] == "gen":
            spec = words.pop(1)
        assert (" ".join(words), spec) not in rows, line
        rows[" ".join(words), spec] = (int(limit), int(want))
    return rows


def test_readme_limits_match_the_ci_rows():
    # every README "Limits" row with a CI timeout is run by CI with that
    # timeout and exit status: a row of the table-driven step or, for a
    # file its own step edits, a step that makes, times and tests it
    root = Path(__file__).parent.parent
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    rows = _workflow_rows(workflow)
    steps = workflow.split("- name: ")
    limits = (root / "README.md").read_text(encoding="utf-8").split("## Limits\n", 1)[1]
    checked = 0
    for line in limits.split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not line.startswith("| `") or not cells[4]:
            continue
        command, carrier = cells[0].strip("`"), cells[1].split("`")[1]
        timeout, status = int(cells[4].removesuffix(" s")), int(cells[6].split()[0])
        if cells[1] == f"`{carrier}`":
            assert rows.get((command, carrier)) == (timeout, status), line
        else:
            runs = (f"qk gen {carrier} ", f"timeout {timeout} python -m qk {command} ", f"-eq {status}\n")
            assert any(all(r in step for r in runs) for step in steps), line
        checked += 1
    assert checked == 27

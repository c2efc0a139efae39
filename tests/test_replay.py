"""_check evaluates each repeated draw, and each repeated pair of a tally,
once and counts its repeats.

The report must be the flat loop's: every law of run_suite on carriers where
the rule applies, at three seeds, equals the report with verify._run replaced
by oracles.flat_run, which evaluates every case again; synthetic domains pin
the edge cases.
"""

import pytest

from oracles import MUTANTS, MUTATION_MUTANTS, flat_run
from qk import classify, verify
from qk.decompose import MINIMAL_PICKS_MAX, all_minimal_decompositions, uniqueness_report
from qk.errors import TooLarge
from qk.generators import generate_from_spec
from qk.ideals import zero_ideal
from qk.verify import EXHAUST_MAX_N, SUITE_ORDER, _Ctx, _Domain, _Law, _check, _drawn, run_suite

SEEDS = (0, 1, 7)
# sampled subsets repeat at 9 <= n <= 13 and families at 9 ideals
# (lukasiewicz:9 and lowersets:4:0<1,2<3, whose 9 lower sets are its ideals),
# and run case by case; annihilator.antitone's pairs (n <= 8) are tallied
# per t and avoidance's masks are run draw by draw
SPECS = (
    "lukasiewicz:9",
    "lukasiewicz:12",
    "lukasiewicz:13",
    "powerset:3",
    "lowersets:antichain3",
    "lowersets:4:0<1,2<3",
)


def _both(q, seed, monkeypatch, suite="all"):
    replayed = run_suite(q, suite, seed=seed).results
    with monkeypatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        flat = run_suite(q, suite, seed=seed).results
    return replayed, flat


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS)
def test_replay_matches_the_flat_loop(spec, seed, monkeypatch):
    replayed, flat = _both(generate_from_spec(spec), seed, monkeypatch)
    assert replayed == flat


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_matches_the_flat_loop_on_mutants(seed, monkeypatch):
    for q in MUTANTS:
        replayed, flat = _both(q, seed, monkeypatch)
        assert replayed == flat, q.name


def test_antitone_tallies_match_the_flat_loop_on_mutation_mutants(monkeypatch):
    # every mutant of the mutation benchmark's carriers, up to n=8, where
    # annihilator.antitone's exhaustive pairs are tallied per t
    for q in MUTATION_MUTANTS:
        replayed, flat = _both(q, 0, monkeypatch, "annihilator")
        assert replayed == flat, q.name


@pytest.mark.parametrize(
    "spec",
    ["lukasiewicz:8", "lukasiewicz:9", "lukasiewicz:13", "lukasiewicz:14", "lowersets:4:0<1,2<3"],
)
def test_only_antitone_pairs_and_avoidance_masks_are_drawn(spec):
    # no _over domain skips a repeated case, sampled subsets and families
    # included: of every table, only annihilator.antitone's exhaustive pairs
    # (n <= 8) are tallied and only avoidance's masks (at every n) are run
    # draw by draw
    ctx = _Ctx(generate_from_spec(spec), 0)
    domains = {
        f"{s}.{law.name}": law.domain
        for s in SUITE_ORDER[1:]
        for law in getattr(verify, "_suite_" + s)(ctx)
        if law.domain is not None
    }
    drawn = {name for name, d in domains.items() if d.draws is not None}
    tallied = {name for name, d in domains.items() if d.tallies is not None}
    assert drawn == {"avoidance.witness_outside_union"}
    assert tallied == ({"annihilator.antitone"} if ctx.q.n <= EXHAUST_MAX_N else set())


def test_chain8_avoidance_count():
    rep = run_suite(generate_from_spec("lowersets:chain8"), "avoidance", seed=0)
    [row] = rep.results
    assert (row.status, row.checked, row.note) == ("pass", 2_499_385, "sampled")


def _synthetic(keys, holds):
    """A law over draws keys, each of the cases (key, 0), (key, 1), (key, 2)."""
    draws = lambda: [(k, [(k, j) for j in range(3)]) for k in keys]
    return _Law("law", _drawn(draws, lambda k, j: (str(k), str(j)), ""), holds)


def _compare(keys, verdict):
    """_check with and without replay on one synthetic law; the cases _check
    evaluated with it."""
    seen = []

    def holds(k, j):
        seen.append((k, j))
        return verdict(k, j)

    law = _synthetic(keys, holds)
    [replayed] = _check("s", [law])
    evaluated = list(seen)
    with pytest.MonkeyPatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        [flat] = _check("s", [law])
    assert replayed == flat
    return replayed, evaluated


def test_consecutive_repeats_are_separate_draws():
    row, seen = _compare([1, 1, 2, 2, 2, 1], lambda k, j: True)
    assert (row.status, row.checked) == ("pass", 18)
    assert seen == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_a_draw_outside_the_hypothesis_counts_nothing():
    row, seen = _compare([5, 1, 5, 1, 5], lambda k, j: None if k == 5 else True)
    assert (row.status, row.checked) == ("pass", 6)
    assert len(seen) == 6


def test_a_failure_after_repeats_reports_the_flat_witness():
    row, _ = _compare([1, 2, 1, 2, 3, 1], lambda k, j: None if j == 0 else not (k == 3 and j == 2))
    assert (row.status, row.checked, row.witness) == ("fail", 10, ("3", "2"))


def test_a_crash_on_a_first_occurrence_keeps_the_count():
    def verdict(k, j):
        if k == 3 and j == 1:
            raise ZeroDivisionError("boom")
        return True

    row, _ = _compare([1, 1, 2, 3, 1], verdict)
    assert (row.status, row.checked, row.witness) == ("fail", 10, ())
    assert row.note == "error: ZeroDivisionError: boom"


# The pair (2, t) at t = 0b10011 first occurs at m = 2, and the smaller pair
# (1, t) recurs after it, at m = 5: the flat count before the failure is one
# case of t, not the tally of (1, t).
_PAIR = (2, 0b10011)


def _tallied_law(verdict):
    """A law over subset_pairs' exhaustive pairs on lukasiewicz:5, its
    predicate verdict; the pairs it evaluated."""
    ctx, seen = _Ctx(generate_from_spec("lukasiewicz:5"), 0), []
    law = _Law("law", ctx.subset_pairs("t"), lambda s, t: seen.append((s, t)) or verdict(s, t))
    assert law.domain.tallies is not None
    return law, seen


def _flat_count_before(pair):
    """The cases of the flat loop before the first occurrence of pair, at
    m = s."""
    s, t = pair
    return sum(1 for u in range(1, t) for m in range(1, u + 1) if u & m) + sum(
        1 for m in range(1, s) if t & m
    )


def test_a_tallied_failure_reports_the_flat_count():
    law, seen = _tallied_law(lambda s, t: (s, t) != _PAIR)
    [row] = _check("s", [law])
    assert len(seen) < _flat_count_before(_PAIR)  # repeated pairs were not evaluated
    with pytest.MonkeyPatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        [flat] = _check("s", [law])
    assert row == flat
    assert (row.status, row.checked) == ("fail", _flat_count_before(_PAIR) + 1)
    assert row.witness == ("1", "/", "0 1 4")


def test_a_tallied_crash_reports_the_flat_count():
    def verdict(s, t):
        if (s, t) == _PAIR:
            raise ZeroDivisionError("boom")
        return True

    law, _ = _tallied_law(verdict)
    [row] = _check("s", [law])
    with pytest.MonkeyPatch.context() as m:
        m.setattr("qk.verify._run", flat_run)
        [flat] = _check("s", [law])
    assert row == flat
    assert (row.status, row.checked, row.witness) == ("fail", _flat_count_before(_PAIR), ())
    assert row.note == "error: ZeroDivisionError: boom"


def test_a_flat_domain_is_not_replayed():
    seen = []
    domain = _Domain(lambda: [(1,), (1,), (2,)], lambda x: (str(x),))
    law = _Law("law", domain, lambda x: seen.append(x) or True)
    [row] = _check("s", [law])
    assert (row.status, row.checked, seen) == ("pass", 3, [1, 1, 2])


def test_minimal_decompositions_refuse_too_many_picks(monkeypatch):
    # the zero ideal of the Goedel chain has one radical group per proper ideal
    chain16, chain17 = (generate_from_spec(f"lowersets:chain{k}") for k in (16, 17))
    assert MINIMAL_PICKS_MAX == 1 << 16
    with pytest.raises(TooLarge, match="needs 131072"):
        all_minimal_decompositions(zero_ideal(chain17))
    # the uniqueness report refuses before it scans for a prime or primary witness
    scans = []
    for name in ("_prime_witness", "_primary_witness"):
        scan = getattr(classify, name)
        monkeypatch.setattr(classify, name, lambda i, scan=scan: scans.append(i) or scan(i))
    with pytest.raises(TooLarge, match="needs 131072"):
        uniqueness_report(zero_ideal(chain17))
    assert scans == []
    rep = run_suite(chain17, "uniqueness", seed=0)
    row = next(r for r in rep.results if r.law == "isolated_components_unique")
    assert row.status == "fail" and "TooLarge" in row.note
    assert len(all_minimal_decompositions(zero_ideal(chain16))) == 1

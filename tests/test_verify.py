from collections import Counter
from functools import partial

import pytest

from qk import classify, decompose, ideals, verify
from qk.core import FiniteQuantale, QuantaleHom, build_quantale, check_axioms
from qk.errors import HomRequired
from qk.generators import generate_from_spec, lukasiewicz_quantale, powerset_quantale
from qk.quantfile import load_hom
from qk.verify import (
    SAMPLE_COUNT,
    SUITE_ORDER,
    _Ctx,
    _Routes,
    default_homs,
    resolve_seed,
    run_suite,
    single_cell_mutants,
)

from oracles import DATA, MUTANTS

# into the two-element chain, so neither is a bijection; the bad one breaks
# meet, so every extension and contraction along it raises HomInvalid
FILE_HOMS = [load_hom(DATA / f) for f in ("q4_to_c2.hom", "l3_to_c2.hom", "q4_to_c2_bad.hom")]


def test_all_suites_green_on_sound_instances(q4, l3, m3):
    for q in (q4, l3, m3):
        rep = run_suite(q, "all")
        assert rep.failed == 0, rep.failures()
        assert rep.skipped == 0
        assert rep.passed == len(rep.results)
        assert set(r.suite for r in rep.results) == set(SUITE_ORDER)


def test_nondecomposable_instance_still_lawful(nondec):
    rep = run_suite(nondec, "all")
    assert rep.failed == 0, rep.failures()
    notes = [r.note for r in rep.results if r.suite == "uniqueness"]
    assert any("not decomposable" in n for n in notes)


def test_single_suite_selection(q4):
    rep = run_suite(q4, "axioms")
    assert {r.suite for r in rep.results} == {"axioms"}
    assert rep.ok
    with pytest.raises(ValueError):
        run_suite(q4, "nope")


def test_axiom_law_case_counts(q4):
    rep = run_suite(q4, "axioms")
    by_law = {r.law: r.checked for r in rep.results}
    n = q4.n
    assert by_law["partial_order"] == n * n
    assert by_law["assoc"] == n**3
    assert by_law["comm"] == n * (n - 1) // 2
    assert by_law["identity"] == n


def test_every_mutant_is_flagged(q4, l3):
    for q in (q4, l3):
        count = 0
        for i, j, mut in single_cell_mutants(q):
            count += 1
            rep = run_suite(mut, "axioms")
            assert rep.failed > 0, f"{q.name} cell ({i},{j}) escaped"
        assert count == q.n * q.n


def test_mutants_flagged_by_full_run(q4):
    for _, _, mut in single_cell_mutants(q4):
        rep = run_suite(mut, "all")
        assert rep.failed > 0


def test_value_swap_can_be_lawful():
    # replacing 1 & 1 = 0 by 1 & 1 = 1 in the three-step chain gives the
    # meet multiplication: a different but perfectly lawful algebra.  No
    # law-based check can flag it, which is why the mutant generator
    # rewrites cells to top or bottom instead of to neighbouring values.
    swapped = build_quantale(
        ["0", "1", "2"],
        [("0", "1"), ("1", "2")],
        [["0", "0", "0"], ["0", "1", "1"], ["0", "1", "2"]],
        name="goedel3",
    )
    assert check_axioms(swapped).ok
    rep = run_suite(swapped, "all")
    assert rep.failed == 0


def test_noncommutative_skips_everything_but_axioms(q4, l3, m3):
    nc = build_quantale(
        ["0", "1", "2"],
        [("0", "1"), ("1", "2")],
        [["0", "0", "0"], ["0", "0", "0"], ["0", "2", "2"]],
        name="nc",
    )
    mutants = [m for q in (q4, l3, m3) for _, _, m in single_cell_mutants(q)]
    noncommutative = [nc, *(m for m in mutants if not m.commutative)]
    assert len(noncommutative) > 1
    for m in noncommutative:
        rep = run_suite(m, "all")
        ax = [r for r in rep.results if r.suite == "axioms"]
        rest = [r for r in rep.results if r.suite != "axioms"]
        assert any(r.status == "fail" for r in ax), m.name
        assert all(r.status == "skipped" for r in rest)
        assert len(rest) == len(SUITE_ORDER) - 1
        assert all("noncommutative" in r.note for r in rest)
        # no suite makes an ideal of a noncommutative carrier
        assert "interned" not in vars(m), m.name


def test_cep_requires_hom_when_explicit(q4):
    with pytest.raises(HomRequired):
        run_suite(q4, "cep")
    rep = run_suite(q4, "cep", hom=QuantaleHom.identity(q4))
    assert rep.ok and len(rep.results) > 0


def test_cep_accepts_file_homs(q4_to_c2, l3_to_c2):
    for h in (q4_to_c2, l3_to_c2):
        rep = run_suite(h.source, "cep", hom=h)
        assert rep.failed == 0, rep.failures()


def test_default_homs_include_identity_and_embedding(q4):
    homs = default_homs(q4)
    assert len(homs) == 2
    assert homs[0].name == "id"
    assert all(h.check().ok for h in homs)
    assert homs[1].target.n == q4.n


def test_broken_instance_reports_fail_not_crash(q4):
    # the (top, top) cell rewritten to bottom wrecks the unit; theorem
    # code may raise deep inside, which must surface as failed laws
    mutants = {(i, j): m for i, j, m in single_cell_mutants(q4)}
    wrecked = mutants[(q4.top, q4.top)]
    rep = run_suite(wrecked, "all")
    assert rep.failed > 0
    assert len(rep.results) >= len(SUITE_ORDER)


def test_seed_determinism(q4):
    l9 = lukasiewicz_quantale(9)  # above the exhaustive cutoff: sampling
    a = run_suite(l9, "annihilator", seed=7).format()
    b = run_suite(l9, "annihilator", seed=7).format()
    assert a == b
    c = run_suite(l9, "annihilator", seed=8).format()
    assert "seed\t8" in c
    assert any(
        "sampled" in r.note for r in run_suite(l9, "annihilator", seed=7).results
    )


def test_seed_resolution(monkeypatch):
    monkeypatch.delenv("QK_SEED", raising=False)
    assert resolve_seed(42) == 42
    default = resolve_seed(None)
    monkeypatch.setenv("QK_SEED", "314")
    assert resolve_seed(None) == 314
    assert resolve_seed(5) == 5
    monkeypatch.setenv("QK_SEED", "abc")
    with pytest.raises(ValueError, match="^QK_SEED must be an integer, got 'abc'$"):
        resolve_seed(None)
    monkeypatch.delenv("QK_SEED")
    assert resolve_seed(None) == default


def test_cross_oracle(q4, l3, m3):
    for q in (q4, l3, m3):
        rep = run_suite(q, "collapse")
        assert rep.ok
        laws = {r.law for r in rep.results}
        assert "ideals_match_brute_force" in laws
        assert "radical_algorithms_agree" in laws


def test_collapse_suite_skips_above_cutoff():
    p4 = powerset_quantale(4)
    rep = run_suite(p4, "collapse")
    assert rep.skipped == len(rep.results) == 1
    assert "16" in rep.results[0].note


def test_one_element_carrier_skips_only_the_maximal_laws():
    rep = run_suite(lukasiewicz_quantale(1), "all", seed=0)
    assert rep.ok and rep.passed == 109
    skipped = {r.law: r.note for r in rep.results if r.status == "skipped"}
    note = "degenerate carrier (bottom == top)"
    assert skipped == dict.fromkeys(
        ("maximal_exists", "proper_below_maximal", "nilradical_below_jacobson"), note
    )


def test_report_formats(l3):
    rep = run_suite(l3, "axioms")
    rec = rep.format()
    assert rec.startswith("instance\tl3\n")
    assert "law\taxioms.assoc" in rec
    assert "elapsed" not in rec
    timed = rep.format(timing=True)
    assert "elapsed.axioms" in timed
    tab = rep.format("table")
    assert "axioms.assoc" in tab
    assert "status" in tab


def test_failure_rows_carry_witnesses(l3):
    mutants = dict()
    for i, j, m in single_cell_mutants(l3):
        mutants[(i, j)] = m
    rep = run_suite(mutants[(1, 1)], "axioms")
    bad = rep.failures()
    assert bad
    for r in bad:
        assert r.witness is not None
    out = rep.format()
    assert "status\tfail" in out
    assert "witness\t" in out


@pytest.mark.parametrize("n,checked,note", [(13, 4095, ""), (14, 1000, "sampled")])
def test_p_primary_families_exhaust_up_to_twelve_members(n, checked, note):
    # the chain's n - 1 proper ideals are primary with one radical
    rep = run_suite(lukasiewicz_quantale(n), "primary", seed=0)
    row = next(r for r in rep.results if r.law == "p_primary_meet_closed")
    assert (row.status, row.checked, row.note) == ("pass", checked, note)


def test_primary_and_uniqueness_case_counts_stay_bounded_on_a_long_chain():
    q = lukasiewicz_quantale(20)
    for suite in ("primary", "uniqueness"):
        rep = run_suite(q, suite, seed=0)
        assert rep.ok and rep.results
        for r in rep.results:
            assert r.checked <= SAMPLE_COUNT // 10, (r.law, r.checked)


def test_avoidance_tests_each_drawn_mask_once(monkeypatch):
    # lukasiewicz:12 has 4,095 nonempty subsets, so the 10,000 draws repeat
    from qk import classify
    from qk.verify import _Ctx

    q = lukasiewicz_quantale(12)
    drawn = list(_Ctx(q, 0).subsets("avoidance.stable").values())
    assert len(drawn) == SAMPLE_COUNT > len(set(drawn))
    calls = []
    instability = classify._instability
    monkeypatch.setattr(classify, "_instability", lambda q, m: calls.append(m) or instability(q, m))
    rep = run_suite(q, "avoidance", seed=0)
    assert rep.ok
    assert sorted(calls) == sorted(set(drawn))


def _plain_routes(ctx):
    """_Ctx.routes with every memo forced off: the library calls."""
    q = ctx.q
    return _Routes(
        gen=partial(ideals.generated, q),
        ann=partial(ideals.annihilator, q),
        res=ideals.residual,
        ext=ideals.extension,
        con=ideals.contraction,
        rad=classify.radical,
        is_ideal=ideals.is_ideal,
    )


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper; the Counter it returns counts each
    argument tuple the wrapper is called with."""
    calls, route = Counter(), getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.update([args]) or route(*args))
    return calls


def _subset_calls(q):
    """For each suite that reads the subset routes, the masks that reached
    ideals.generated and ideals.annihilator, with their counts."""
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("generated", "annihilator"):
            route = getattr(ideals, name)

            def counted(q, m, name=name, route=route):
                calls[suite][name, m] += 1
                return route(q, m)

            mp.setattr(ideals, name, counted)
        for suite in ("annihilator", "proposition_bpi"):
            calls[suite] = Counter()
            assert run_suite(q, suite, seed=0).ok
    return calls


def test_subset_routes_reach_the_library_once_per_mask_where_subsets_repeat():
    # lukasiewicz:13 has 8,191 nonempty subsets, fewer than SAMPLE_COUNT draws
    q = lukasiewicz_quantale(13)
    assert q.full < SAMPLE_COUNT
    for suite, counts in _subset_calls(q).items():
        assert counts and max(counts.values()) == 1, suite


def test_subset_routes_are_the_library_calls_where_subsets_do_not_repeat(monkeypatch):
    # lukasiewicz:14 has 16,383 nonempty subsets: no memo
    q = lukasiewicz_quantale(14)
    assert q.full >= SAMPLE_COUNT
    with_routes = _subset_calls(q)
    monkeypatch.setattr(_Ctx, "routes", property(_plain_routes))
    assert _subset_calls(q) == with_routes
    assert max(with_routes["proposition_bpi"].values()) > 1


@pytest.mark.parametrize(
    "q,hom",
    [
        *(
            pytest.param(q, None, id=q.name)
            for q in (
                *MUTANTS,
                lukasiewicz_quantale(12),
                powerset_quantale(4),
                generate_from_spec("lowersets:antichain3"),
            )
        ),
        *(pytest.param(h.source, h, id=h.name) for h in FILE_HOMS),
    ],
)
def test_subset_memo_leaves_every_law_result_unchanged(q, hom, monkeypatch):
    # the second run has neither the run's memos nor the residuation table,
    # so every residual and primary test there is the library's scan
    memoized = run_suite(q, "all", hom=hom, seed=7).results
    monkeypatch.setattr(_Ctx, "routes", property(_plain_routes))
    monkeypatch.setattr(FiniteQuantale, "residuals", property(lambda q: None))
    assert run_suite(q, "all", hom=hom, seed=7).results == memoized
    if hom is not None and not hom.check().ok:  # a memo stores no call that raises
        cep = [r for r in memoized if r.suite == "cep" and r.law != "maps_are_homs"]
        assert cep and all("HomInvalid" in r.note for r in cep)


@pytest.mark.parametrize("q", [lukasiewicz_quantale(12), powerset_quantale(4)], ids=lambda q: q.name)
def test_proposition_bpi_reaches_the_library_once_per_pair_and_family(q, monkeypatch):
    # each residual of two ideals is computed once, and the join and the meet
    # of a drawn family (a tuple; the per-case folds take lists) once per draw:
    # 10^3 calls per sampled law, not 10^3 for each ideal a family meets
    tags = ("bpi.product_join_distrib", "bpi.residual_meet_family", "bpi.residual_join_family")
    drawn = Counter(f.ideals for tag in tags for f in _Ctx(q, 0).families(tag).values())
    assert sum(drawn.values()) == len(tags) * SAMPLE_COUNT // 10
    calls = Counter()
    residual, join_all, meet_all = ideals.residual, ideals.join_all, ideals.meet_all

    def counted_residual(i, j):
        calls["residual", i, j] += 1
        return residual(i, j)

    def fold(name, route):
        def counted(q, family):
            if isinstance(family, tuple):
                calls[name, family] += 1
            return route(q, family)

        return counted

    monkeypatch.setattr(ideals, "residual", counted_residual)
    monkeypatch.setattr(ideals, "join_all", fold("join_all", join_all))
    monkeypatch.setattr(ideals, "meet_all", fold("meet_all", meet_all))
    assert run_suite(q, "proposition_bpi", seed=0).ok
    assert max(n for key, n in calls.items() if key[0] == "residual") == 1
    for name in ("join_all", "meet_all"):
        assert Counter({key[1]: n for key, n in calls.items() if key[0] == name}) == drawn


@pytest.mark.parametrize("spec", ["lukasiewicz:12", "powerset:4", "lowersets:chain8"])
def test_uniqueness_lists_the_primary_candidates_once_per_proper_ideal(spec, monkeypatch):
    # the decomposition and every minimal decomposition of an ideal read one list
    q = generate_from_spec(spec)
    calls = Counter()
    candidates = decompose.primary_candidates
    monkeypatch.setattr(decompose, "primary_candidates", lambda i: calls.update([i]) or candidates(i))
    assert run_suite(q, "uniqueness", seed=0).ok
    assert calls == Counter(i for i in ideals.enumerate_ideals(q) if i.proper)


@pytest.mark.parametrize("q", [lukasiewicz_quantale(12), powerset_quantale(4)], ids=lambda q: q.name)
def test_cep_reaches_extension_and_contraction_once_per_hom_and_ideal(q, monkeypatch):
    # two default homs, into q and into its ideal carrier, n ideals on each side
    ext = _counted(monkeypatch, ideals, "extension")
    con = _counted(monkeypatch, ideals, "contraction")
    assert run_suite(q, "all", seed=0).ok
    assert len(ext) == len(con) == 2 * q.n
    assert max(ext.values()) == max(con.values()) == 1


@pytest.mark.parametrize("hom", FILE_HOMS[:2], ids=lambda h: h.name)
def test_cep_reaches_extension_and_contraction_once_on_a_file_hom(hom, monkeypatch):
    ext = _counted(monkeypatch, ideals, "extension")
    con = _counted(monkeypatch, ideals, "contraction")
    assert run_suite(hom.source, "cep", hom=hom, seed=0).ok
    assert set(ext) == {(hom, i) for i in ideals.enumerate_ideals(hom.source)}
    assert set(con) == {(hom, j) for j in ideals.enumerate_ideals(hom.target)}
    assert max(ext.values()) == max(con.values()) == 1


@pytest.mark.parametrize(
    "name,suite",
    [
        ("radical", "radical_lemma"),
        ("radical", "primary"),
    ],
)
@pytest.mark.parametrize("spec", ["lukasiewicz:12", "powerset:4", "lowersets:chain8"])
def test_radical_suites_reach_the_library_once_per_ideal(spec, name, suite, monkeypatch):
    q = generate_from_spec(spec)
    calls = _counted(monkeypatch, classify, name)
    assert run_suite(q, suite, seed=0).ok
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("suite", ["primary", "pqx"])
@pytest.mark.parametrize(
    "q",
    [
        *map(generate_from_spec, ["lukasiewicz:12", "powerset:4", "lowersets:chain8"]),
        next(m for m in MUTANTS if m.residuals is None),
    ],
    ids=lambda q: q.name,
)
def test_primary_tests_scan_only_without_the_residuation_table(q, suite, monkeypatch):
    # with the table every primary test is a row lookup; a mutant whose
    # rows have no right adjoints scans for a witness instead
    calls = _counted(monkeypatch, classify, "_primary_witness")
    run_suite(q, suite, seed=0)
    assert bool(calls) == (q.residuals is None)


@pytest.mark.parametrize(
    "q,hom",
    [
        pytest.param(lukasiewicz_quantale(12), None, id="lukasiewicz12"),
        pytest.param(powerset_quantale(4), None, id="powerset4"),
        pytest.param(FILE_HOMS[0].source, FILE_HOMS[0], id=FILE_HOMS[0].name),
    ],
)
def test_one_run_reaches_each_ideal_operation_once_per_argument_tuple(q, hom, monkeypatch):
    # every suite reads one set of routes; collapse calls the library on
    # purpose, once per case, to compare it with brute force, so its calls
    # are not counted
    calls = {
        name: _counted(monkeypatch, module, name)
        for module, name in (
            (ideals, "residual"),
            (classify, "radical"),
            (ideals, "extension"),
            (ideals, "contraction"),
            (ideals, "is_ideal"),
        )
    }
    collapse = verify._suite_collapse

    def uncounted(ctx):
        before = {name: counts.copy() for name, counts in calls.items()}
        rows = collapse(ctx)
        for name, counts in calls.items():
            counts.clear()
            counts.update(before[name])
        return rows

    monkeypatch.setattr(verify, "_suite_collapse", uncounted)
    assert run_suite(q, "all", hom=hom, seed=0).ok
    for name, counts in calls.items():
        assert counts and max(counts.values()) == 1, name


@pytest.mark.parametrize(
    "q",
    [
        lukasiewicz_quantale(12),
        powerset_quantale(4),
        next(m for m in MUTANTS if m.name == "q4~3,3"),  # the unit wrecked
    ],
    ids=lambda q: q.name,
)
def test_one_run_builds_and_checks_one_ideal_carrier(q, monkeypatch):
    built = _counted(monkeypatch, ideals, "ideal_quantale")
    checked = _counted(monkeypatch, verify, "check_axioms")
    run_suite(q, "all", seed=0)
    assert built == Counter([(q,)])
    assert sum(n for (c,), n in checked.items() if c is not q) == 1

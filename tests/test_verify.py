import inspect
from collections import Counter
from functools import cache, partial

import pytest

from qk import classify, decompose, ideals, verify
from qk.core import FiniteQuantale, QuantaleHom, bits, build_quantale, check_axioms
from qk.errors import HomRequired, QuantaleError
from qk.generators import generate_from_spec, lukasiewicz_quantale, powerset_quantale
from qk.quantfile import load_hom, load_quant
from qk.verify import (
    DEFAULT_SEED,
    SAMPLE_COUNT,
    SUITE_ORDER,
    _Ctx,
    _Law,
    _Routes,
    resolve_seed,
    run_suite,
    single_cell_mutants,
)

from oracles import DATA, MUTANTS, MUTATION_MUTANTS

# into the two-element chain, so neither is a bijection; the bad one breaks
# meet, so every extension and contraction along it raises HomInvalid
FILE_HOMS = [load_hom(DATA / f) for f in ("q4_to_c2.hom", "l3_to_c2.hom", "q4_to_c2_bad.hom")]

FAMILY_TAGS = (
    "bpi.product_join_distrib",
    "bpi.residual_meet_family",
    "bpi.residual_join_family",
    "radical.join_family",
    "primary.radical_meet_family",
)


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
    homs = _Ctx(q4, DEFAULT_SEED).homs
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
    # lukasiewicz:12 has 4,095 nonempty subsets, so the 10,000 draws repeat;
    # the evidence hands each distinct draw to one sweep, in draw order, and
    # tests none of them one at a time
    from qk import classify
    from qk.verify import _Ctx

    q = lukasiewicz_quantale(12)
    drawn = list(_Ctx(q, 0).subsets("avoidance.stable").values())
    assert len(drawn) == SAMPLE_COUNT > len(set(drawn))
    calls, swept = [], []
    instability, stable = classify._instability, classify._stable_masks
    monkeypatch.setattr(classify, "_instability", lambda q, m: calls.append(m) or instability(q, m))
    monkeypatch.setattr(classify, "_stable_masks", lambda q, ms: swept.append(ms) or stable(q, ms))
    rep = run_suite(q, "avoidance", seed=0)
    assert rep.ok
    assert swept == [list(dict.fromkeys(drawn))] and calls == []


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
        ann_of=lambda i: ideals.annihilator(q, i.members),
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
    # lukasiewicz:14 has 16,383 nonempty subsets: gen and ann hold no memo
    # (ann_of, the annihilator of an ideal, keeps its memo at every size)
    q = lukasiewicz_quantale(14)
    assert q.full >= SAMPLE_COUNT
    with_routes = _subset_calls(q)
    routes = _Ctx.routes.func

    def plain(ctx):
        gen, ann = partial(ideals.generated, q), partial(ideals.annihilator, q)
        return routes(ctx)._replace(gen=gen, ann=ann)

    monkeypatch.setattr(_Ctx, "routes", property(plain))
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
    # the second run has neither the run's memos nor the residuation table:
    # every residual and primary test there is the library's scan
    memoized = run_suite(q, "all", hom=hom, seed=7).results
    monkeypatch.setattr(_Ctx, "routes", property(_plain_routes))
    monkeypatch.setattr(FiniteQuantale, "residuals", property(lambda q: None))
    assert run_suite(q, "all", hom=hom, seed=7).results == memoized
    if hom is not None and not hom.check().ok:  # a memo stores no call that raises
        cep = [r for r in memoized if r.suite == "cep" and r.law != "maps_are_homs"]
        assert cep and all("HomInvalid" in r.note for r in cep)


@pytest.mark.parametrize("q", [lukasiewicz_quantale(12), powerset_quantale(4)], ids=lambda q: q.name)
def test_proposition_bpi_reaches_the_library_once_per_pair_and_family(q, monkeypatch):
    # each residual of two ideals is computed once, with transport deciding
    # the family laws and without it, where they read the small families
    residuals = _counted(monkeypatch, ideals, "residual")
    ctx = _Ctx(q, 0)
    rows = verify._check("proposition_bpi", verify._suite_proposition_bpi(ctx))
    assert ctx.transport and all(r.status == "pass" for r in rows)
    assert max(residuals.values()) == 1

    residuals.clear()
    monkeypatch.setattr(_Ctx, "transport", False)
    ctx = _Ctx(q, 0)
    rows = verify._check("proposition_bpi", verify._suite_proposition_bpi(ctx))
    assert all(r.status == "pass" for r in rows)
    assert max(residuals.values()) == 1

    # product_join_distrib takes the product of each ideal a with the join
    # of each of the small families that decide it, and with each member of
    # each of them
    ctx = _Ctx(q, 0)
    products = _counted(monkeypatch, ideals, "product_ideals")
    laws = verify._suite_proposition_bpi(ctx)
    [law] = [law for law in laws if law.name == "product_join_distrib"]
    assert verify._run(law)[0] == "pass"
    small = ctx.small_families
    joins = Counter((a, f.join) for a in ctx.ideals for f in small)
    members = Counter((a, j) for a in ctx.ideals for f in small for j in f.members)
    assert products == joins + members


@pytest.mark.parametrize(
    "q", [lukasiewicz_quantale(12), powerset_quantale(4), *MUTATION_MUTANTS], ids=lambda q: q.name
)
def test_rows_and_family_picks_are_the_library_calls(q):
    ctx = _Ctx(q, 0)
    routes, every = ctx.routes, ctx.ideals
    for a in every:
        assert routes.ann_of(a) == ideals.annihilator(q, a.members)
    for tag in FAMILY_TAGS:
        families = ctx.families(tag).values()
        for f in families:
            assert f.join is ideals.join_all(q, f.members), f
            assert f.meet is ideals.meet_all(q, f.members), f
        # up to EXHAUST_MAX_N ideals the axis yields every pick, in order
        if len(every) <= verify.EXHAUST_MAX_N:
            picks = [[every[k] for k in bits(p)] for p in range(1 << len(every))]
            assert [f.members for f in families] == picks


# mul_monotone and mul_monotone_pairs as the element-tuple domains, with the
# order hypotheses inside the predicate, reported them on every mutant of the
# mutation carriers where either fails: both fail on each, with these
# checked counts and witnesses
LEMMA_BIP_FAILURES = {
    "q4~0,0": (5, "bot a bot", 2, "bot bot bot a"),
    "q4~1,1": (22, "a top a", 42, "a a a top"),
    "q4~2,2": (31, "b top b", 62, "b b b top"),
    "q4~3,3": (24, "a top top", 51, "a top a top"),
    "l3~0,0": (4, "0 1 0", 2, "0 0 0 1"),
    "l3~1,1": (14, "1 2 1", 23, "1 1 1 2"),
    "l3~2,2": (15, "1 2 2", 30, "1 2 2 2"),
    "m3~0,0": (7, "bot p bot", 2, "bot bot bot p"),
    "m3~1,1": (44, "p m p", 116, "p p p m"),
    "m3~2,2": (63, "q m q", 173, "q q q m"),
    "m3~3,3": (82, "r m r", 230, "r r r m"),
    "m3~4,4": (101, "m top m", 287, "m m m top"),
    "m3~5,5": (54, "p top top", 162, "p top top top"),
    "lukasiewicz6~0,0": (7, "0 1 0", 2, "0 0 0 1"),
    "lukasiewicz6~1,1": (44, "1 2 1", 134, "1 1 1 2"),
    "lukasiewicz6~2,2": (75, "2 3 2", 244, "2 2 2 3"),
    "lukasiewicz6~3,3": (100, "3 4 3", 332, "3 3 3 4"),
    "lukasiewicz6~4,4": (119, "4 5 4", 398, "4 4 4 5"),
    "lukasiewicz6~5,5": (66, "1 5 5", 231, "1 5 5 5"),
    "lowersets4~0,0": (6, "bot 1 bot", 2, "bot bot bot 1"),
    "lowersets4~1,1": (32, "1 12 1", 82, "1 1 1 12"),
    "lowersets4~2,2": (53, "12 123 12", 146, "12 12 12 123"),
    "lowersets4~3,3": (69, "123 top 123", 194, "123 123 123 top"),
    "lowersets4~4,4": (45, "1 top top", 129, "1 top 1 top"),
    "powerset3~0,0": (9, "bot 1 bot", 2, "bot bot bot 1"),
    "powerset3~1,1": (74, "1 12 1", 226, "1 1 1 12"),
    "powerset3~2,2": (107, "2 12 2", 338, "2 2 2 12"),
    "powerset3~3,3": (140, "3 13 3", 450, "3 3 3 13"),
    "powerset3~4,4": (173, "12 top 12", 562, "12 12 12 top"),
    "powerset3~5,5": (190, "13 top 13", 618, "13 13 13 top"),
    "powerset3~6,6": (207, "23 top 23", 674, "23 23 23 top"),
    "powerset3~7,7": (96, "1 top top", 309, "1 top 1 top"),
}


def _monotone_rows(q):
    rows = {r.law: r for r in run_suite(q, "lemma_bip", seed=0).results}
    return rows["mul_monotone"], rows["mul_monotone_pairs"]


def test_monotonicity_domains_keep_their_counts_and_witnesses():
    failing = {}
    for q in MUTATION_MUTANTS:
        rows = _monotone_rows(q)
        if any(r.status == "fail" for r in rows):
            assert all(r.status == "fail" for r in rows), q.name
            failing[q.name] = tuple(x for r in rows for x in (r.checked, " ".join(r.witness)))
    assert failing == LEMMA_BIP_FAILURES
    # powerset:4 has 3^4 = 81 pairs x <= y: 81 * 16 and 81^2 cases
    rows = _monotone_rows(powerset_quantale(4))
    assert [(r.status, r.checked) for r in rows] == [("pass", 1296), ("pass", 6561)]
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
    check = verify._check

    def uncounted(suite, laws):
        if suite != "collapse":
            return check(suite, laws)
        before = {name: counts.copy() for name, counts in calls.items()}
        rows = check(suite, laws)
        for name, counts in calls.items():
            counts.clear()
            counts.update(before[name])
        return rows

    monkeypatch.setattr(verify, "_check", uncounted)
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
    # q itself once too, for the axioms suite and the family and transport gates
    assert checked[(q,)] == 1
    assert sum(n for (c,), n in checked.items() if c is not q) == 1


def _raising(*args, **kwargs):
    raise AssertionError("called while a table was built")


@pytest.mark.parametrize(
    "q",
    [
        lukasiewicz_quantale(12),
        powerset_quantale(4),
        load_quant(DATA / "nondec.quant"),
        next(m for m in MUTATION_MUTANTS if m.name == "q4~3,3"),  # the unit wrecked
    ],
    ids=lambda q: q.name,
)
def test_building_a_table_runs_no_law(q, monkeypatch):
    # from a fresh context a suite only builds its table: no law case, no
    # check_axioms, no ideal carrier, no classify or decompose routine, and
    # none of the run's scans
    ctx = _Ctx(q, 0)
    monkeypatch.setattr(verify, "_run", _raising)
    monkeypatch.setattr(verify, "_check", _raising)
    monkeypatch.setattr(verify, "check_axioms", _raising)
    monkeypatch.setattr(ideals, "ideal_quantale", _raising)
    for module in (classify, decompose):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                monkeypatch.setattr(module, name, _raising)
    for s in SUITE_ORDER[1:]:
        table = getattr(verify, "_suite_" + s)(ctx)
        assert isinstance(table, list) and table, s
        assert all(isinstance(law, _Law) for law in table), s
    scans = {"primes", "mcsets", "homs", "primaries", "ideal_carrier", "axioms"}
    assert not scans & vars(ctx).keys()


@pytest.mark.parametrize("name,calls", [("q4.quant", 15), ("nc.quant", 0)])
def test_run_suite_runs_each_table_through_one_check(name, calls, monkeypatch):
    suites, check = [], verify._check
    monkeypatch.setattr(verify, "_check", lambda s, laws: suites.append(s) or check(s, laws))
    run_suite(load_quant(DATA / name), "all", seed=0)
    assert suites == list(SUITE_ORDER[1 : calls + 1])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["q4", "l3", "m3", "nondec", "lukasiewicz:12"])
def test_each_suite_alone_gives_its_rows_of_the_full_run(name, seed, request):
    q = generate_from_spec(name) if ":" in name else request.getfixturevalue(name)
    every = run_suite(q, "all", seed=seed).results
    for s in SUITE_ORDER:
        if s != "cep":
            alone = run_suite(q, s, seed=seed).results
            assert alone == tuple(r for r in every if r.suite == s), s


def test_a_raising_scan_fails_the_laws_that_read_it(q4, monkeypatch):
    # the arithmetic report is made on the first read by a law, so an
    # exception there is a finding of each law that reads it, not a crash
    # of the run
    def broken(q):
        raise QuantaleError("no report")

    monkeypatch.setattr(decompose, "arithmetic_equivalence_check", broken)
    rep = run_suite(q4, "all", seed=0)
    arithmetic = [r for r in rep.results if r.suite == "arithmetic"]
    assert [r.status for r in arithmetic] == ["fail"] * 3
    note = "distributive-ideal-lattice definition; error: QuantaleError: no report"
    assert all(r.note == note for r in arithmetic)
    assert {r.suite for r in rep.results} == set(SUITE_ORDER)
    assert all(r.status == "pass" for r in rep.results if r.suite != "arithmetic")


def test_uniqueness_note_names_the_undecomposable_ideals_before_an_error(nondec, monkeypatch):
    # the count is the domain's note, read after the decomposition pass
    # ran, so it comes first even where the law's predicate raises
    def broken(i):
        raise QuantaleError("no colon primes")

    monkeypatch.setattr(decompose, "colon_primes", broken)
    rows = {r.law: r for r in run_suite(nondec, "uniqueness", seed=0).results}
    row = rows["associated_eq_colon_primes"]
    assert row.status == "fail"
    assert row.note == "1 proper ideals not decomposable; error: QuantaleError: no colon primes"
    assert rows["isolated_eq_minimal_primes"].note == "1 proper ideals not decomposable"


# the rows of lukasiewicz:6 that read each scan, by the module it is read
# from: a scan that raises fails exactly these, with the error in their note,
# and every other row is the unpatched run's
SCAN_READERS = {
    "spectrum": (classify, {
        "lpsp.prime_descent",
        "lpsp.nilradical_is_prime_meet",
        "avoidance.witness_outside_union",
        "saturation.saturated_iff_union_of_primes",
        "primary.prime_implies_primary",
        "primary.p_primary_meet_closed",
    }),
    "all_mc_sets": (classify, {
        "saturation.saturation_smallest",
        "saturation.saturated_iff_union_of_primes",
        "saturation.avoiding_maximal_prime",
        "saturation.mc_radical_decider",
    }),
    # the ideal carrier: its two laws, and every cep law through the
    # principal embedding in ctx.homs
    "ideal_quantale": (ideals, {
        "proposition_bpi.ideal_carrier_axioms",
        "collapse.ideal_carrier_iso",
        *(f"cep.{law}" for law in (
            "maps_are_homs", "images_are_ideals", "extend_contract_expands",
            "contract_extend_reduces", "contraction_stable", "extension_stable",
            "extension_meet_below", "extension_product", "extension_residual_below",
            "contraction_meet", "contraction_product_below", "contraction_residual_below",
            "restricted_bijection",
        )),
    }),
}


@pytest.mark.parametrize("scan", sorted(SCAN_READERS))
def test_a_raising_scan_fails_only_its_readers(scan, monkeypatch):
    q = generate_from_spec("lukasiewicz:6")
    before = run_suite(q, "all", seed=0).results

    def broken(*args, **kwargs):
        raise QuantaleError(f"no {scan}")

    module, readers = SCAN_READERS[scan]
    monkeypatch.setattr(module, scan, broken)
    after = run_suite(q, "all", seed=0).results
    assert [(r.suite, r.law) for r in after] == [(r.suite, r.law) for r in before]
    changed = {f"{r.suite}.{r.law}": r for r, old in zip(after, before) if r != old}
    assert changed.keys() == readers
    for r in changed.values():
        assert r.status == "fail"
        assert f"error: QuantaleError: no {scan}" in r.note


# the carriers of the verify goldens, which run the irreducible suite, and
# every commutative single-cell mutant of q4, l3 and m3
IRREDUCIBLE_GOLDEN_SPECS = (
    "m3", "lowersets:antichain3", "lukasiewicz:9", "lukasiewicz:12", "powerset:4"
)


@pytest.mark.parametrize("wrong", [False, True])
def test_irreducible_separation_matches_its_definition(wrong, monkeypatch):
    # separating_irreducible and representation read M(i), the meet of the
    # irreducibles over i, once per ideal: the same rows as an irreducible
    # over i without x, and the meet of the irreducibles over i.  Both laws
    # hold on every table, so a wrong irreducibility test (the ideals of odd
    # size) makes them fail, with the definitions' counts and witnesses.
    if wrong:
        monkeypatch.setattr(classify, "is_irreducible", lambda j: j.size % 2 == 1)
    carriers = [load_quant(DATA / f"{name}.quant") for name in ("q4", "l3", "c2", "nondec")]
    carriers += [*map(generate_from_spec, IRREDUCIBLE_GOLDEN_SPECS), *MUTANTS]
    failed = 0
    for q in carriers:
        ctx = _Ctx(q, 7)
        irr = cache(lambda: [j for j in ctx.ideals if classify.is_irreducible(j)])
        definitions = {
            "separating_irreducible":
                lambda i, x: None if x in i else any(i <= j and x not in j for j in irr()),
            "representation": lambda i: ideals.meet_all(q, [j for j in irr() if i <= j]) == i,
        }
        for law in verify._suite_irreducible(ctx):
            if law.name in definitions:
                defined = law._replace(holds=definitions[law.name])
                row = verify._run(law)
                assert row == verify._run(defined), (q.name, law.name)
                failed += row[0] == "fail"
    assert (failed > 0) == wrong

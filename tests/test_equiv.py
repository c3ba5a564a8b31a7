"""Generators, the TOP/BOT cross-check, campaign determinism, mutation
sensitivity, and counterexample shrinking."""
import gc
import hashlib
import random

import pytest

from chronos import bot, equiv, top
from chronos.core import (
    CandidatePlan,
    Record,
    UnknownConstant,
    Violation,
    derive_bot_model,
    validate_model,
)
from chronos.equiv import (
    GenParams,
    Verdict,
    check_equivalence,
    gen_case,
    gen_formula,
    gen_model,
    run_campaign,
    shrink_counterexample,
)
from chronos.modelfile import format_model
from chronos.top import parse_top, print_top
from chronos.translate import translate


def test_gen_params_bounds():
    GenParams()  # defaults are legal
    with pytest.raises(ValueError):
        GenParams(timeline_size=11)
    with pytest.raises(ValueError):
        GenParams(max_depth=0)
    with pytest.raises(ValueError):
        GenParams(atom_count=5)


def test_gen_model_is_valid_across_seeds():
    for seed in range(25):
        m = gen_model(GenParams(seed=seed))
        assert validate_model(m) == []
        assert m.cparts and m.gparts
        for (functor, arity), ext in m.preds.items():
            assert any(ps for ps in ext.values())


def test_gen_model_validates_every_model(monkeypatch):
    """validate_model runs on every generated model, and a violation it
    reports stops the case."""
    checked = []

    def validate(m):
        checked.append(m)
        return [] if len(checked) < 40 else [Violation("BadArity", "functor q/0")]

    monkeypatch.setattr(equiv, "validate_model", validate)
    models = [gen_case(GenParams(seed=42), i)[0] for i in range(39)]
    assert checked == models
    with pytest.raises(AssertionError, match="generated invalid model"):
        gen_case(GenParams(seed=42), 39)


def test_gen_model_deterministic_in_seed():
    a = gen_model(GenParams(seed=9))
    b = gen_model(GenParams(seed=9))
    assert a == b


def _depth(f):
    t = type(f)
    if t in (top.Literal, top.Part):
        return 1
    if t is top.And:
        return 1 + max(_depth(f.left), _depth(f.right))
    if t is top.Culm:
        return 1 + _depth(f.body)
    return 1 + _depth(f.body)


def _culm_children_are_literals(f):
    t = type(f)
    if t is top.Culm:
        return isinstance(f.body, top.Literal)
    if t is top.And:
        return _culm_children_are_literals(f.left) and _culm_children_are_literals(f.right)
    if t in (top.Literal, top.Part):
        return True
    return _culm_children_are_literals(f.body)


def test_gen_formula_well_formed():
    params = GenParams(seed=0)
    for seed in range(60):
        rng = random.Random(f"gf/{seed}")
        m = gen_model(params, rng)
        f = gen_formula(params, m, rng)
        assert parse_top(print_top(f)) == f
        assert _depth(f) <= params.max_depth
        assert _culm_children_are_literals(f)
        assert len(top.free_vars(f)) <= params.max_free_vars


def test_check_equivalence_fixture_cases(m0):
    m, st = m0.model, m0.speech
    expectations = {
        "At[d_jan, Past[?e, empty(tank5)]]": True,
        "Pres[empty(tank5)]": False,
        "Past[?e1, Perf[?e2, Culm[building(housecorp, bridge2)]]]": True,
    }
    for text, value in expectations.items():
        v = check_equivalence(m, st, parse_top(text))
        assert v.agree, text
        assert v.top_value is value and v.bot_value is value


def test_verdict_witness_replays(m0):
    m, st = m0.model, m0.speech
    v = check_equivalence(m, st, parse_top("At[d_jan, Past[?e, empty(tank5)]]"))
    g, et = v.witness
    idx = top.EvalIndex(st, et, m.timeline.full())
    assert top.eval_top_at(m, idx, g, parse_top("At[d_jan, Past[?e, empty(tank5)]]"))


def test_verdict_agree_property():
    assert Verdict(True, True).agree and Verdict(False, False).agree
    assert not Verdict(True, False).agree


def test_campaign_clean_and_deterministic():
    params = GenParams(seed=7)
    a = run_campaign(params, 120)
    b = run_campaign(params, 120)
    assert a.ok
    assert a.text() == b.text()
    assert a.lines()[-1] == "cases=120 disagreements=0"


@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_campaign_clean_on_more_seeds(seed):
    """Seed 0 holds the pinned known gap and seed 4 is kept for re-checking
    performance claims; the others must find no disagreement."""
    assert run_campaign(GenParams(seed=seed), 1000).ok


#: sha1 over repr((TOP witness, BOT witness)) of cases 0-999, per seed;
#: each witness is the first in the documented enumeration order, so a
#: change to either search that moves one changes its digest
WITNESS_DIGESTS = {
    0: "bea3b42c4924b508b3b5040fc2ef22b5ed1afae5",
    42: "d27d3b24f07174b6ed5414243fe169ac0bbeb757",
}


def test_witnesses_are_pinned_across_whole_seeds():
    for seed, digest in WITNESS_DIGESTS.items():
        params = GenParams(seed=seed)
        h = hashlib.sha1()
        for i in range(1000):
            m, st, f = gen_case(params, i)
            top_witness = top.denot_top_witness(m, st, f)
            bot_witness = bot.denot_bot_witness(
                derive_bot_model(m), st, translate(f))
            h.update(repr((top_witness, bot_witness)).encode())
        assert h.hexdigest() == digest, seed


#: the same sha1 for seed 42 at timeline 16, depth 6 and 4 variables, above
#: the generator's caps, where narrowing by subper cuts most; recorded before
#: that narrowing existed
WIDE_WITNESS_DIGEST = "c878d632dc2d5f0b1ae72c0400dae0ec5f5351ec"
#: the same sha1 for cases 0-299 of seed 42 at timeline 32, arity 3, depth 6
#: and 5 variables, where joining a literal on the variables bound so far,
#: at each node, would cut most; recorded while the search still did that
T32_WITNESS_DIGEST = "edfa83f50c7d4b7f546c4de41701a6dec6260b8e"


def _wide_digest(cases, **caps):
    """The witness sha1 of cases of seed 42 with GenParams over its caps."""
    params = object.__new__(GenParams)  # over the caps: no __post_init__
    values = dict(zip(GenParams._fields, GenParams._values(GenParams(seed=42))),
                  **caps)
    for name, value in values.items():
        object.__setattr__(params, name, value)
    h = hashlib.sha1()
    for i in range(cases):
        m, st, f = gen_case(params, i)
        top_witness = top.denot_top_witness(m, st, f)
        bot_witness = bot.denot_bot_witness(derive_bot_model(m), st, translate(f))
        h.update(repr((top_witness, bot_witness)).encode())
    return h.hexdigest()


def test_witnesses_are_pinned_on_wide_cases():
    assert _wide_digest(1000, timeline_size=16, max_depth=6,
                        max_free_vars=4) == WIDE_WITNESS_DIGEST


def test_witnesses_are_pinned_at_timeline_32():
    assert _wide_digest(300, timeline_size=32, max_arity=3, max_depth=6,
                        max_free_vars=5) == T32_WITNESS_DIGEST


def test_compilers_restrict_only_names_their_tests_read(monkeypatch):
    """What lets `CandidatePlan.search` stop at an empty name before it
    builds anything: every name a compiler restricts, and both names of
    every `inside` arc, are read by a test of the same search (for TOP,
    the leading test that binds the event time included)."""
    search = CandidatePlan.search
    searches = []

    def checking(plan, tests):
        read = {n for _, names in tests for n in names}
        assert set(plan._static) <= read
        assert {n for arc in plan._inside for n in arc} <= read
        searches.append(plan)
        return search(plan, tests)

    monkeypatch.setattr(CandidatePlan, "search", checking)
    for seed in (42, 4):
        params = GenParams(seed=seed)
        for i in range(300):
            m, st, f = gen_case(params, i)
            top.denot_top_witness(m, st, f)
            bot.denot_bot_witness(derive_bot_model(m), st, translate(f))
    assert len(searches) == 2 * 2 * 300


def test_gen_case_deterministic():
    params = GenParams(seed=5)
    assert gen_case(params, 17) == gen_case(params, 17)


#: sha1 over print_top(f) and format_model(m, st) of cases 0-999, per seed;
#: the witness digests see the generator only through the searches, so a
#: generator change that draws in another order moves this one first
GENERATOR_DIGESTS = {
    0: "db52c4480e080da26e8acb7fbb72f7c166368d8b",
    1: "a88ca8dee23ecd943034aba675fb4c3ffc666f0b",
    2: "c00eac6ba67b8232ca4887f7bf6bf3e603f624ea",
    3: "54dd162c1cc4f9499c9dd200b78c0ddeedc534b6",
    4: "bf8257eab695a1033507c5105aa29ec492a8e943",
    5: "5428efc7b7359ccd84e566be8d37d6472e3b5524",
    42: "6f0e3c2d3ab7cbdc159e8b9267da39bfbd67a66d",
}


def test_generated_cases_are_pinned_across_whole_seeds():
    for seed, digest in GENERATOR_DIGESTS.items():
        params = GenParams(seed=seed)
        h = hashlib.sha1()
        for i in range(1000):
            m, st, f = gen_case(params, i)
            h.update(print_top(f).encode())
            h.update(format_model(m, st).encode())
        assert h.hexdigest() == digest, seed


def test_named_derivation_derives_the_named_relations_only(m0):
    """derive_bot_model(m, names=N) holds exactly the relations of
    derive_bot_model(m) whose functor is in N: for each translation's
    functors over 300 cases of case seeds 42 and 4, and on m0 for no
    functor and for each one alone."""
    def check(m, names):
        full = derive_bot_model(m).bot_preds
        named = derive_bot_model(m, names=names).bot_preds
        assert named == {k: v for k, v in full.items() if k[0] in names}, names
        return len(named) < len(full)

    partial = 0
    for seed in (42, 4):
        for i in range(300):
            m, st, f = gen_case(GenParams(seed=seed), i)
            partial += check(m, bot.functors(translate(f)))
    assert partial > 300
    check(m0.model, set())
    for functor, _ in derive_bot_model(m0.model).bot_preds:
        assert check(m0.model, {functor})


def test_generator_draws_every_operator():
    seen = set()
    params = GenParams(seed=42)
    for i in range(1000):
        todo = [gen_case(params, i)[2]]
        while todo:
            f = todo.pop()
            seen.add(type(f))
            todo += [v for v in type(f)._values(f) if isinstance(v, Record)]
    assert set(top.SHAPES) | {top.Literal, top.And} <= seen


def test_generator_draws_match_random_draw_for_draw():
    """The generator's randrange and choice give random.Random's values and
    leave its stream where random.Random's leave it, over widths 1-70,
    every power of two up to 64 among them."""
    for seed in (0, 42, "42/case/7", "4/case/0"):
        ours, theirs = equiv._Draws(seed), random.Random(seed)
        for width in range(1, 71):
            for start in (0, 5):
                assert (ours.randrange(start, start + width)
                        == theirs.randrange(start, start + width)), (seed, width)
            seq = [f"x{i}" for i in range(width)]
            assert ours.choice(seq) == theirs.choice(seq), (seed, width)
            assert ours.random() == theirs.random(), (seed, width)


def test_generator_draws_refuse_empty_input():
    """getrandbits(0) is always 0, so an empty range or sequence must be
    refused before the draw loop, which would never end."""
    rng = equiv._Draws(0)
    for start, stop in ((3, 3), (3, 2), (0, 0)):
        with pytest.raises(ValueError, match="empty range"):
            rng.randrange(start, stop)
    for seq in ([], (), ""):
        with pytest.raises(IndexError):
            rng.choice(seq)


def test_gen_case_leaves_no_cyclic_garbage():
    # a cycle would hold the case's random.Random until the collector runs
    params = GenParams(seed=42)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cases = [gen_case(params, i) for i in range(100)]
        check_equivalence(*cases[0])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_mutation_detected_and_shrinks_stay_disagreeing():
    params = GenParams(seed=42)
    report = run_campaign(params, 150, mutation="drop-past-narrowing")
    assert not report.ok
    d = report.disagreements[0]
    m, st, f = gen_case(params, d.case)
    verdict = check_equivalence(m, st, f, mutation="drop-past-narrowing")
    assert not verdict.agree
    assert verdict.top_value is d.top_value and verdict.bot_value is d.bot_value
    sm, sst, sf = shrink_counterexample(m, st, f, mutation="drop-past-narrowing")
    assert not check_equivalence(sm, sst, sf, mutation="drop-past-narrowing").agree
    assert validate_model(sm) == []
    assert len(print_top(sf)) <= len(print_top(f))
    assert sm.timeline.size <= m.timeline.size


def test_every_shrunk_mutation_case_compiles_and_disagrees():
    """A shorter timeline drops the period constants that lie past it, and a
    formula naming a dropped one no longer compiles, so the shrinker refuses
    that step: each of the 39 seed-42 cases the mutation is caught on
    shrinks to a triple that still compiles and still disagrees."""
    params, mutation = GenParams(seed=42), "drop-past-narrowing"
    shrunk = []
    for i in range(1000):
        m, st, f = gen_case(params, i)
        if not check_equivalence(m, st, f, mutation=mutation).agree:
            shrunk.append(shrink_counterexample(m, st, f, mutation=mutation))
    assert len(shrunk) == 39
    for sm, sst, sf in shrunk:
        assert validate_model(sm) == []
        assert not check_equivalence(sm, sst, sf, mutation=mutation).agree


def test_shrink_refuses_only_steps_that_fail_to_evaluate(monkeypatch):
    m, st, f = gen_case(GenParams(seed=42), 10)

    def failing(error):
        def check(*args, **kwargs):
            raise error
        return check

    monkeypatch.setattr(equiv, "check_equivalence", failing(UnknownConstant("c")))
    assert shrink_counterexample(m, st, f) == (m, st, f)
    # any other exception is a defect, and surfaces
    monkeypatch.setattr(equiv, "check_equivalence", failing(RuntimeError("defect")))
    with pytest.raises(RuntimeError, match="defect"):
        shrink_counterexample(m, st, f)


def test_known_gap_past_variable_reused_as_entity_argument():
    """Documented corner case: the Past rule ties its variable to the
    event-time variable with eq(β, ε), but when the body replaces the event
    time (either Ntense form) nothing in the output constrains ε to denote
    a period.  TOP's top-level denotation quantifies the event time over
    periods only, so reusing the Past variable as an entity argument makes
    the source false while the translation is satisfiable with an atom.
    The rewrite output shapes are pinned by the golden translations, so the
    gap is pinned here as behavior rather than patched; the campaign can
    surface it on adversarial seeds, which is the harness doing its job.
    """
    from chronos.modelfile import parse_model

    cm = parse_model(
        "timeline 3\nspeech 2\nobject obj0\npred q/1\n"
        "maximal q(obj0) = [2,2]\ncpart cp0 = [0,2]\ngpart gp0 = [0,0]\n"
    )
    f = parse_top("Past[?x, Ntense[now, q(?x)]]")
    v = check_equivalence(cm.model, cm.speech, f)
    assert v.top_value is False
    assert v.bot_value is True
    # constraining the event time anywhere else closes the gap
    guarded = parse_top("Pres[Past[?x, Ntense[now, q(?x)]]]")
    assert check_equivalence(cm.model, cm.speech, guarded).agree


def test_bot_witness_replays_when_only_bot_true():
    """Under the broken Past rule the BOT side can be true alone; its witness
    must still satisfy the translated formula."""
    params = GenParams(seed=42)
    report = run_campaign(params, 150, mutation="drop-past-narrowing")
    d = next(x for x in report.disagreements if x.bot_value)
    m, st, f = gen_case(params, d.case)
    translated = translate(f, mutation="drop-past-narrowing")
    derived = derive_bot_model(m)
    witness = bot.denot_bot_witness(derived, st, translated)
    assert witness is not None
    assert bot.eval_bot(derived, st, witness, translated)

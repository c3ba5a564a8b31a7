"""Ontology operations: periods, intersection, subperiods, partitionings,
model validation, the derived BOT model and the candidate search."""
import itertools

import pytest

from chronos import core
from chronos.core import (
    COMPLETE,
    EMPTY,
    GAPPY,
    UNDEFINED,
    CandidatePlan,
    DomainIndex,
    EtaMapping,
    FunctorCollision,
    ObjectDomain,
    Partitioning,
    Period,
    Timeline,
    TopModel,
    derive_bot_model,
    intersect,
    mergeable,
    subper,
    validate_model,
)


def P(lo, hi):
    return Period(lo, hi)


def test_period_invariants():
    p = P(2, 2)
    assert range(p.lo, p.hi + 1) == range(2, 3)
    with pytest.raises(ValueError):
        Period(5, 3)
    with pytest.raises(ValueError):
        Period(-1, 2)


def test_intersect_examples():
    assert intersect(P(2, 5), P(4, 8)) == P(4, 5)
    assert intersect(P(2, 3), P(5, 6)) is EMPTY
    for p in Timeline(6).periods():
        assert intersect(p, p) == p
    assert intersect(EMPTY, P(0, 9)) is EMPTY


def test_intersect_algebra_exhaustive():
    """Commutative, associative, idempotent; always Empty or convex."""
    periods = Timeline(6).periods()
    for a, b in itertools.product(periods, repeat=2):
        ab = intersect(a, b)
        assert ab == intersect(b, a)
        assert ab is EMPTY or isinstance(ab, Period)
    for a, b, c in itertools.product(Timeline(4).periods(), repeat=3):
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


def test_subper_examples():
    assert subper(P(3, 4), P(2, 5))
    assert not subper(P(2, 5), P(3, 4))
    assert not subper(EMPTY, P(0, 9))
    assert not subper(P(0, 9), EMPTY)


def test_subper_partial_order_exhaustive():
    periods = Timeline(5).periods()
    for a in periods:
        assert subper(a, a)
    for a, b in itertools.product(periods, repeat=2):
        if subper(a, b) and subper(b, a):
            assert a == b
    for a, b, c in itertools.product(periods, repeat=3):
        if subper(a, b) and subper(b, c):
            assert subper(a, c)


def test_point_set_algebra_is_total():
    """UNDEFINED absorbs through intersect, even against EMPTY; subper
    holds only between two periods."""
    p = P(2, 5)
    for a, b in ((UNDEFINED, p), (p, UNDEFINED), (EMPTY, UNDEFINED),
                 (UNDEFINED, EMPTY)):
        assert intersect(a, b) is UNDEFINED, (a, b)
    for other in (UNDEFINED, EMPTY, "tank5"):
        assert subper(other, p) is False, other
        assert subper(p, other) is False, other


def test_timeline_periods_order():
    assert Timeline(3).periods() == [
        P(0, 0), P(0, 1), P(0, 2), P(1, 1), P(1, 2), P(2, 2),
    ]


def test_object_enumeration_order():
    dom = ObjectDomain(Timeline(3), ("b", "a"))
    objs = list(dom.objects())
    assert objs[:2] == ["b", "a"]
    assert objs[2:] == Timeline(3).periods()


def test_domains_of_one_size_share_their_periods():
    a = ObjectDomain(Timeline(4), ("x",)).index.objects
    b = ObjectDomain(Timeline(4), ("y", "z")).index.objects
    assert a[1:] == b[2:] == Timeline(4).periods()
    assert all(p is q for p, q in zip(a[1:], b[2:]))


def test_domains_of_equal_atoms_and_size_share_one_index():
    a = ObjectDomain(Timeline(6), ("x", "y"))
    b = ObjectDomain(Timeline(6), tuple(["x", "y"]))
    assert a is not b and a.index is b.index
    assert a.index.objects == DomainIndex(("x", "y"), Timeline(6)).objects
    assert ObjectDomain(Timeline(7), ("x", "y")).index is not a.index
    assert ObjectDomain(Timeline(6), ("y", "x")).index is not a.index
    for size in range(1, 101):
        assert ObjectDomain(Timeline(size), ("z",)).index.objects[0] == "z"
    info = core._index.cache_info()
    assert info.currsize == info.maxsize


def test_period_positions_match_enumeration():
    index = ObjectDomain(Timeline(5), ("x", "y")).index
    periods = Timeline(5).periods()
    for lo, lo_last, hi, hi_last in itertools.product(range(6), repeat=4):
        expected = sum(
            1 << index.position(p) for p in periods
            if lo <= p.lo <= lo_last and hi <= p.hi <= hi_last
        )
        assert index.period_mask(lo, lo_last, hi, hi_last) == expected


def test_members_come_in_domain_order():
    index = ObjectDomain(Timeline(4), ("b", "a")).index
    objects = index.objects
    assert index.members(0) == []
    assert index.members(index.periods) == Timeline(4).periods()
    assert index.members((1 << len(objects)) - 1) == objects
    for picks in itertools.combinations(range(len(objects)), 3):
        mask = sum(1 << i for i in picks)
        assert index.members(mask) == [objects[i] for i in sorted(picks)]
        assert index.mask(reversed(index.members(mask))) == mask


def test_subperiods_of_windows_match_enumeration():
    """The union of the windows' subperiods, however they overlap; what is
    no period of the timeline adds nothing."""
    index = ObjectDomain(Timeline(5), ("x",)).index
    periods = Timeline(5).periods()
    for windows in itertools.combinations(periods + [EMPTY, "x"], 3):
        expected = index.mask(
            p for p in periods if any(subper(p, w) for w in windows
                                      if type(w) is Period))
        assert index.subperiods(windows) == expected, windows
    assert index.subperiods([]) == 0


def test_subperiods_of_one_window_match_enumeration():
    """A list of one window, the form a folded window and a one-row literal
    give, and a generator of one: every subperiod of a period, nothing for
    anything else."""
    for size in range(1, 9):
        index = ObjectDomain(Timeline(size), ("x",)).index
        periods = Timeline(size).periods()
        for w in periods + [EMPTY, UNDEFINED, "x"]:
            expected = index.mask(
                p for p in periods if type(w) is Period and subper(p, w))
            assert index.subperiods([w]) == expected, (size, w)
            assert index.subperiods(v for v in [w]) == expected, (size, w)


def test_search_stops_at_an_empty_level():
    """A name with no static candidate ends the search before any check."""
    plan = CandidatePlan(ObjectDomain(Timeline(3), ("a", "b")).index)
    plan.restrict("y", 0)
    calls = []

    def check(g):
        calls.append(dict(g))
        return True

    tests = [(check, ()), (check, ("x",)), (check, ("x", "y"))]
    assert plan.search(tests) is None
    assert calls == []
    # without the empty level the same checks run and find a witness
    open_plan = CandidatePlan(plan.index)
    assert open_plan.search(tests) == {"x": "a", "y": "a"}
    assert calls


@pytest.fixture
def listed(monkeypatch):
    """The masks DomainIndex.members is asked to list, in call order."""
    masks = []
    members = DomainIndex.members

    def counting(self, mask):
        masks.append(mask)
        return members(self, mask)

    monkeypatch.setattr(DomainIndex, "members", counting)
    return masks


def test_search_exits_on_an_empty_name_before_any_arc(listed):
    """A name restricted to no value ends the search before the arcs of
    `inside` list their windows, and before any test runs."""
    index = ObjectDomain(Timeline(3), ("a",)).index
    plan = CandidatePlan(index)
    plan.restrict("w", index.mask([P(0, 1)]))
    plan.inside("e", "w")
    plan.restrict("x", 0)
    calls = []

    def check(g):
        calls.append(dict(g))
        return True

    tests = [(check, ("w",)), (check, ("w", "e")), (check, ("x",))]
    assert plan.search(tests) is None
    assert calls == [] and listed == []


def test_search_lists_a_level_only_when_it_reaches_it(listed):
    """x's one value fails its test, so y's level is never listed."""
    index = ObjectDomain(Timeline(3), ("a", "b")).index
    plan = CandidatePlan(index)
    only_a = index.mask(["a"])
    plan.restrict("x", only_a)
    plan.restrict("y", index.periods)
    tests = [(lambda g: False, ("x",)), (lambda g: True, ("x", "y"))]
    assert plan.search(tests) is None
    assert listed == [only_a]


def test_search_runs_each_test_once_its_last_name_is_bound():
    """The order is the names' first occurrence across the tests; a test
    sees exactly the names bound up to its last one, also after the search
    backtracks past a name whose values ran out."""
    plan = CandidatePlan(ObjectDomain(Timeline(2), ("a", "b")).index)
    seen = []

    def recording(label, verdict=lambda g: True):
        def test(g):
            seen.append((label, tuple(g)))
            return verdict(g)
        return test

    def found(g):
        return g["x"] == "b" and g["z"] == Period(1, 1)

    tests = [
        (recording("none"), ()),
        (recording("y"), ("y",)),
        (recording("yx"), ("y", "x")),
        (recording("z", found), ("z",)),
        (recording("xy"), ("x", "y")),
    ]
    witness = plan.search(tests)
    assert witness == {"y": "a", "x": "b", "z": Period(1, 1)}
    assert list(witness) == ["y", "x", "z"]
    bound = {
        "none": (), "y": ("y",), "yx": ("y", "x"), "xy": ("y", "x"),
        "z": ("y", "x", "z"),
    }
    assert all(names == bound[label] for label, names in seen)
    # every z fails under x = a; x = b then runs the tests of its level again
    assert [label for label, _ in seen] == (
        ["none", "y", "yx", "xy"] + ["z"] * 5 + ["yx", "xy"] + ["z"] * 5)


def test_partitioning_rejects_overlap():
    with pytest.raises(ValueError):
        Partitioning(COMPLETE, (P(0, 2), P(2, 4)))
    part = Partitioning(COMPLETE, (P(3, 4), P(0, 2)))
    assert part.blocks == (P(0, 2), P(3, 4))
    assert part.starting_at(3) == P(3, 4)
    assert part.starting_at(1) is None


def _model(size=10, **overrides):
    tl = Timeline(size)
    fields = dict(
        timeline=tl,
        domain=ObjectDomain(tl, ("tank5", "housecorp", "bridge2")),
        consts={"tank5": "tank5", "housecorp": "housecorp",
                "bridge2": "bridge2", "d_jan": P(3, 4)},
        preds={
            ("empty", 1): {("tank5",): frozenset({P(2, 5)})},
            ("building", 2): {
                ("housecorp", "bridge2"): frozenset({P(1, 2), P(4, 5)})
            },
        },
        culms={
            ("empty", 1): {},
            ("building", 2): {("housecorp", "bridge2"): True},
        },
        cparts={"minute": Partitioning(COMPLETE, tuple(P(i, i) for i in range(size)))},
        gparts={"fivepm": Partitioning(GAPPY, (P(3, 3), P(7, 7)))},
    )
    fields.update(overrides)
    return TopModel(**fields)


def test_validate_model_accepts_fixture(m0):
    assert validate_model(m0.model) == []
    assert validate_model(_model()) == []


def test_validate_model_rejects_mergeable_periods():
    # [2,3] and [4,5] abut, so their union is convex
    m = _model(preds={("empty", 1): {("tank5",): frozenset({P(2, 3), P(4, 5)})}},
               culms={("empty", 1): {}})
    codes = [v.code for v in validate_model(m)]
    assert "MergeablePeriods" in codes
    assert mergeable(P(2, 3), P(4, 5))
    assert not mergeable(P(2, 3), P(5, 6))


def test_validate_model_rejects_gapped_cpart():
    m = _model(cparts={"minute": Partitioning(COMPLETE, (P(0, 3), P(5, 9)))})
    codes = [v.code for v in validate_model(m)]
    assert "IncompletePartitioning" in codes


def test_validate_model_rejects_covering_gpart():
    m = _model(gparts={"g": Partitioning(GAPPY, (P(0, 9),))})
    assert "GappyCoversAll" in [v.code for v in validate_model(m)]


def test_validate_model_rejects_out_of_range():
    m = _model(consts={"tank5": "tank5", "housecorp": "housecorp",
                       "bridge2": "bridge2", "d": P(8, 12)})
    assert "UnknownObject" in [v.code for v in validate_model(m)]


def test_validate_model_rejects_inconsistent_arity():
    m = _model(culms={("empty", 2): {}, ("building", 2): {}})
    assert "InconsistentArity" in [v.code for v in validate_model(m)]


def test_derive_bot_model_extensions():
    m = _model()
    b = derive_bot_model(m)
    # the base predicate gains a trailing maximal-period argument
    assert ("tank5", P(2, 5)) in b.true_tuples("empty", 2)
    assert ("tank5", P(2, 4)) not in b.true_tuples("empty", 2)
    # the span predicate relates the arguments to the first-start/last-stop hull
    assert ("housecorp", "bridge2", P(1, 5)) in b.true_tuples("max_building", 3)
    assert len(b.true_tuples("max_building", 3)) == 1
    # the culmination predicate mirrors the flags
    assert ("housecorp", "bridge2") in b.true_tuples("cmp_building", 2)
    assert b.true_tuples("cmp_empty", 1) == frozenset()
    assert b.true_tuples("max_empty", 2) == frozenset({("tank5", P(2, 5))})


def test_derive_bot_model_round_trip():
    """Every true base tuple comes from a listed maximal period."""
    m = _model()
    b = derive_bot_model(m)
    for (functor, arity), ext in m.preds.items():
        for args_p in b.true_tuples(functor, arity + 1):
            args, p = args_p[:-1], args_p[-1]
            assert p in ext.get(args, frozenset())


def test_derive_bot_model_functor_collision():
    m = _model(preds={
        ("building", 2): {("housecorp", "bridge2"): frozenset({P(1, 2)})},
        ("cmp_building", 2): {},
    }, culms={("building", 2): {}, ("cmp_building", 2): {}})
    with pytest.raises(FunctorCollision):
        derive_bot_model(m)
    for names in (set(), {"building"}):  # named or not, every pi is checked
        with pytest.raises(FunctorCollision):
            derive_bot_model(m, names=names)


#: (fields changed in `_model`, its report); a block past the end of the
#: timeline is the one violation its partitioning reports after the kind
VALIDATION_REPORTS = [
    (dict(consts={"tank5": "tank5", "ghost": "ghost", "seven": 7, "none": None,
                  "late": P(8, 10), "last": P(9, 9)}), [
        "UnknownObject: constant ghost",
        "UnknownObject: constant seven",
        "UnknownObject: constant none",
        "UnknownObject: constant late",
    ]),
    (dict(culms={("empty", 2): {}, ("building", 2): {}, ("nil", 0): {}}), [
        "InconsistentArity: functor empty",
        "BadArity: functor nil/0",
    ]),
    (dict(preds={
        ("empty", 1): {
            ("tank5", "bridge2"): frozenset({P(2, 5)}),
            ("ghost",): frozenset({P(1, 1)}),
            (P(2, 3),): frozenset({P(0, 0)}),
            (P(3, 10),): frozenset({P(0, 0)}),
            ("bridge2",): frozenset({P(6, 12), P(0, 10)}),
            ("housecorp",): frozenset({P(0, 1), P(2, 3), P(5, 5), P(6, 9)}),
        },
        ("building", 2): {("housecorp", "ghost"): frozenset({P(1, 2)}),
                          ("ghost", "ghost"): frozenset()},
    }), [
        "BadArity: empty tuple ('tank5', 'bridge2')",
        "UnknownObject: empty('ghost',)",
        "UnknownObject: empty(Period(lo=3, hi=10),)",
        "BadPeriodBounds: empty('bridge2',) [0,10]",
        "BadPeriodBounds: empty('bridge2',) [6,12]",
        "MergeablePeriods: empty('bridge2',): [0,10] and [6,12]",
        "MergeablePeriods: empty('housecorp',): [0,1] and [2,3]",
        "MergeablePeriods: empty('housecorp',): [5,5] and [6,9]",
        "UnknownObject: building('housecorp', 'ghost')",
        "UnknownObject: building('ghost', 'ghost')",
        "UnknownObject: building('ghost', 'ghost')",
    ]),
    (dict(cparts={"minute": Partitioning(GAPPY, (P(0, 3), P(5, 9))),
                  "hour": Partitioning(COMPLETE, (P(0, 3), P(5, 9))),
                  "day": Partitioning(COMPLETE, (P(1, 9),)),
                  "week": Partitioning(COMPLETE, (P(0, 8),)),
                  "none": Partitioning(COMPLETE, ()),
                  "whole": Partitioning(COMPLETE, (P(0, 4), P(5, 9)))},
          gparts={"fivepm": Partitioning(COMPLETE, (P(0, 4), P(5, 9))),
                  "all": Partitioning(GAPPY, (P(0, 9),)),
                  "none": Partitioning(GAPPY, ()),
                  "late": Partitioning(GAPPY, (P(3, 3), P(9, 10)))}), [
        "KindMismatch: cpart minute",
        "IncompletePartitioning: cpart minute",
        "IncompletePartitioning: cpart hour",
        "IncompletePartitioning: cpart day",
        "IncompletePartitioning: cpart week",
        "IncompletePartitioning: cpart none",
        "KindMismatch: gpart fivepm",
        "GappyCoversAll: gpart fivepm",
        "GappyCoversAll: gpart all",
        "BadPeriodBounds: gpart late block [9,10]",
    ]),
    (dict(consts={"ghost": "ghost"},
          culms={("empty", 2): {}},
          preds={("empty", 1): {("tank5",): frozenset({P(2, 3), P(4, 12)})}},
          cparts={"minute": Partitioning(COMPLETE, (P(0, 3), P(4, 12), P(13, 14))),
                  "odd": Partitioning(GAPPY, (P(0, 3), P(5, 10)))},
          gparts={"fivepm": Partitioning(GAPPY, (P(0, 9), P(10, 10)))}), [
        "UnknownObject: constant ghost",
        "InconsistentArity: functor empty",
        "BadPeriodBounds: empty('tank5',) [4,12]",
        "MergeablePeriods: empty('tank5',): [2,3] and [4,12]",
        "BadPeriodBounds: cpart minute block [4,12]",
        "KindMismatch: cpart odd",
        "BadPeriodBounds: cpart odd block [5,10]",
        "BadPeriodBounds: gpart fivepm block [10,10]",
    ]),
    (dict(culms={("empty", 1): {("ghost",): True, ("tank5", "bridge2"): True},
                 ("building", 2): {}}), [
        "UnknownObject: culm empty('ghost',)",
        "BadArity: culm empty tuple ('tank5', 'bridge2')",
    ]),
]


def test_validate_model_reports_are_pinned():
    """Every violation code, several in one model, in report order."""
    for overrides, report in VALIDATION_REPORTS:
        assert [str(v) for v in validate_model(_model(**overrides))] == report
    codes = {line.split(":")[0] for _, report in VALIDATION_REPORTS for line in report}
    assert codes == {"UnknownObject", "InconsistentArity", "BadArity",
                     "BadPeriodBounds", "MergeablePeriods", "KindMismatch",
                     "IncompletePartitioning", "GappyCoversAll"}


def test_eta_mapping_names():
    eta = EtaMapping()
    assert eta.culm_functor("building") == "cmp_building"
    assert eta.span_functor("building") == "max_building"

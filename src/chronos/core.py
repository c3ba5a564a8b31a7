"""Temporal ontology and interpretation structures shared by TOP and BOT.

Time is discrete, bounded, and linear: a timeline of ``size`` points is the
index range ``0 .. size-1`` ordered by numeric ``<``.  A period is a
non-empty convex set of points, realized as a closed integer interval
``[lo, hi]``.  The empty point set and the undefined point are first-class
sentinel values (``EMPTY``, ``UNDEFINED``) rather than errors, because the
evaluators of both languages propagate them.

The records, models and domain indexes here are immutable after
construction and safe to share across threads.  `CandidatePlan` and
`Compiler` are not: compiling a formula narrows its plan in place
(`restrict`, `inside`, `equal_to`), so each belongs to one compile and
the search that follows it.  Only `equal_to` reads the variables bound
so far; a literal is joined once, while compiling.
"""
from __future__ import annotations

from functools import cached_property, lru_cache, total_ordering
from itertools import compress
from operator import attrgetter, itemgetter
from types import FunctionType
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# Records: immutable value classes, whose __init__ is compiled once per
# field count and shared by every class with that many fields


@lru_cache(maxsize=None)
def _template(count):
    """The code of a record __init__ of count fields: it sets each field
    through its slot setter _s0, _s1, ..., then calls _post if set."""
    params = [f"v{i}" for i in range(count)]
    lines = [f"def __init__({', '.join(['self', *params])}):"]
    lines += [f"    _s{i}(self, {v})" for i, v in enumerate(params)]
    lines += ["    if _post:", "        _post(self)"]
    scope = {}
    exec(compile("\n".join(lines), f"<record __init__/{count}>", "exec"), scope)
    return scope["__init__"].__code__


def _init(cls, names, defaults):
    """cls's __init__: its field count's template with the parameters
    renamed to the fields, so that Python binds the arguments, fills the
    defaults and raises the argument errors of a written __init__."""
    scope = {f"_s{i}": cls.__dict__[n].__set__ for i, n in enumerate(names)}
    scope.update(_post=cls.__dict__.get("__post_init__"), __name__=cls.__module__)
    code = _template(len(names)).replace(co_varnames=("self", *names))
    return FunctionType(code, scope, "__init__", tuple(defaults) or None)


def _key(names):
    """self -> the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


class _RecordType(type):
    """Makes each annotated name of a class body a field held in a slot, and
    gives the class the methods it does not define itself: ``__init__``
    (positional or keyword, then ``__post_init__`` if defined), ``__eq__``
    (same class and equal fields), ``__hash__`` and ``__repr__``.  A field
    with a default comes after those without, and a record class extends
    no record class that has fields.  The class keeps
    the getter of a record's field values, as a tuple, in ``_values``."""

    def __new__(mcs, name, bases, ns):
        if any(getattr(b, "_fields", None) for b in bases):
            raise TypeError(f"{name}: a record class with fields cannot be extended")
        names = tuple(ns.get("__annotations__", ()))
        given = [n for n in names if n in ns]
        if given != list(names[len(names) - len(given):]):
            raise TypeError(f"{name}: a field without a default follows one with")
        defaults = [ns.pop(n) for n in given]
        ns["__slots__"] = names + tuple(ns.get("__slots__", ()))
        cls = super().__new__(mcs, name, bases, ns)
        cls._fields = names
        cls._values = key = _key(names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            args = ", ".join(map("{}={!r}".format, names, key(self)))
            return f"{type(self).__qualname__}({args})"

        for method in (_init(cls, names, defaults), __eq__, __hash__, __repr__):
            if method.__name__ not in ns:
                method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
                setattr(cls, method.__name__, method)
        return cls


class Record(metaclass=_RecordType):
    """Base of the immutable value classes: declare fields as annotations.

    ``class Pair(Record): left: object; right: object`` gives ``Pair(a, b)``
    and ``Pair(left=a, right=b)``, equality with another Pair of equal
    fields, a hash, and the repr ``Pair(left=..., right=...)``.  Assigning
    or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), type(self)._values(self)


def fields(record) -> tuple:
    """The field names of a record or record class, in declaration order."""
    return record._fields


def replace(record, **changes):
    """A copy of record with the named fields changed; the copy is built, and
    so checked, like a new record."""
    values = dict(zip(record._fields, type(record)._values(record)))
    return type(record)(**{**values, **changes})


class _Sentinel:
    """A value that exists once, held by the module global of its name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name.capitalize()

    def __reduce__(self):  # pickle and copy give back the global itself
        return self.name


#: The empty set of time-points (a localisation window can be empty).
EMPTY = _Sentinel("EMPTY")
#: Out-of-range point, e.g. the successor of the last time-point.
UNDEFINED = _Sentinel("UNDEFINED")


@total_ordering
class Period(Record):
    """Closed integer interval [lo, hi]; non-empty by construction, ordered
    by (lo, hi)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError(f"invalid period [{self.lo},{self.hi}]")

    # written out, as every search compares, hashes and sorts periods
    def __eq__(self, other):
        if other.__class__ is Period:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __lt__(self, other):
        if other.__class__ is Period:
            return (self.lo, self.hi) < (other.lo, other.hi)
        return NotImplemented

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


PointSet = Union[Period, _Sentinel]

#: An object is an atom (its name) or a period; PERIODS is a subset of OBJS.
Object = Union[str, Period]

#: Variable assignment: variable name -> object.
Assignment = dict


def _name_eq(self, other):
    if other.__class__ is self.__class__:
        return self.name == other.name
    return NotImplemented


def _name_hash(self):
    return hash((self.name,))


class Const(Record):
    """Constant symbol; both languages draw from the same constant class."""

    name: str
    __eq__ = _name_eq  # written out, as formulas compare symbols often
    __hash__ = _name_hash

    def __str__(self):
        return self.name


class Var(Record):
    """Variable symbol, written ?name; shared by both languages."""

    name: str
    __eq__ = _name_eq
    __hash__ = _name_hash

    def __str__(self):
        return "?" + self.name


class Literal(Record):
    """A functor applied to terms; shared by both languages."""

    functor: str
    args: tuple

    def __post_init__(self):
        if not self.args:
            raise ValueError("literals take at least one argument")


class And(Record):
    """Conjunction, shared by both languages. A chain ``a & b & c`` nests to
    the right; a left operand that is an And is a parenthesised group.
    Equality and hashing loop along the right spine (see `chain`)."""

    left: object
    right: object

    def __eq__(self, other):
        if type(other) is not And:
            return NotImplemented
        return chain(self) == chain(other)

    def __hash__(self):
        return hash(tuple(chain(self)))


def chain(f) -> list:
    """The operands of f along its right spine, left to right; [f] unless f
    is an And. The last operand is never an And; any other that is, is a
    group."""
    parts = []
    while type(f) is And:
        parts.append(f.left)
        f = f.right
    parts.append(f)
    return parts


def conjoin(parts):
    """The right-nested And of parts, the inverse of `chain`."""
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = And(p, f)
    return f


def print_chain(f, unit) -> str:
    """The concrete syntax of a chain: unit(p) for each operand p, and a group
    parenthesised. A plain loop, one frame per group level."""
    out = []
    for p in chain(f):
        out.append(f"({print_chain(p, unit)})" if type(p) is And else unit(p))
    return " & ".join(out)


def symbols(f) -> tuple:
    """(variable names in first-occurrence order, functor names) of a TOP
    or BOT formula or term, from one walk over every record's field values
    with an explicit stack: depth first, left to right.  A literal's
    arguments are the one tuple of records a formula holds."""
    names, functors, todo = {}, set(), [f]  # names as keys keep their order
    while todo:
        x = todo.pop()
        t = type(x)
        if t is Var:
            names[x.name] = None
        elif t is Literal:
            functors.add(x.functor)
            todo += reversed(x.args)
        elif isinstance(x, Record):
            todo += reversed(t._values(x))
    return list(names), functors


def free_vars_ordered(f) -> list:
    """Variable names in first-occurrence order; all are free."""
    return symbols(f)[0]


def free_vars(f) -> set:
    return set(symbols(f)[0])


def functors(f) -> set:
    """All predicate functor names occurring in a formula."""
    return symbols(f)[1]


def intersect(a: PointSet, b: PointSet) -> PointSet:
    """Set intersection of two point sets; convexity is preserved.
    UNDEFINED is absorbing, even against EMPTY."""
    if a is UNDEFINED or b is UNDEFINED:
        return UNDEFINED
    if a is EMPTY or b is EMPTY:
        return EMPTY
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    return Period(lo, hi) if lo <= hi else EMPTY


def subper(a: PointSet, b: PointSet) -> bool:
    """True iff a and b are both periods and a is a subperiod of b; false
    when either is EMPTY, UNDEFINED or an atom."""
    return (type(a) is Period and type(b) is Period
            and b.lo <= a.lo and a.hi <= b.hi)


def mergeable(a: Period, b: Period) -> bool:
    """True iff the union of a and b is itself convex (overlap or abut)."""
    return max(a.lo, b.lo) <= min(a.hi, b.hi) + 1


class Timeline(Record):
    """Bounded discrete linear time: points 0 .. size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("timeline needs at least one point")

    @property
    def t_last(self) -> int:
        return self.size - 1

    def full(self) -> Period:
        return Period(0, self.size - 1)

    def periods(self) -> list:
        """All periods over the timeline, ordered by (lo, hi)."""
        return list(_periods(self.size))


@lru_cache(maxsize=32)
def _periods(size: int) -> tuple:
    """Built once per timeline size and shared, as a Period is immutable."""
    return tuple(Period(lo, hi) for lo in range(size) for hi in range(lo, size))


COMPLETE = "complete"
GAPPY = "gappy"


class Partitioning(Record):
    """Pairwise-disjoint periods; complete ones tile the whole timeline.

    Blocks are kept sorted by lo.  Whether the blocks actually cover the
    timeline (complete) or leave it properly uncovered (gappy) depends on
    the timeline and is checked by validate_model.
    """

    kind: str
    blocks: tuple

    def __post_init__(self):
        if self.kind not in (COMPLETE, GAPPY):
            raise ValueError(f"unknown partitioning kind {self.kind!r}")
        ordered = tuple(sorted(self.blocks))
        for a, b in zip(ordered, ordered[1:]):
            if b.lo <= a.hi:
                raise ValueError(f"overlapping blocks {a} and {b}")
        object.__setattr__(self, "blocks", ordered)

    def starting_at(self, lo: int):
        """The unique block whose first point is lo, or None."""
        for b in self.blocks:
            if b.lo == lo:
                return b
            if b.lo > lo:
                return None
        return None


class DomainIndex:
    """A domain listed in enumeration order, and its sets of objects as
    masks: an int whose bit i stands for objects[i].  Ascending bit order
    is domain order, so the members of a mask come in domain order with no
    sort.  `periods` is the mask of every period."""

    __slots__ = ("objects", "periods", "_atoms", "_size")

    def __init__(self, atoms: tuple, timeline: Timeline):
        self.objects = [*atoms, *_periods(timeline.size)]
        self.periods = (1 << len(self.objects)) - (1 << len(atoms))
        self._atoms = {a: i for i, a in enumerate(atoms)}
        self._size = timeline.size

    def position(self, o):
        """o's position in objects, or None when o is not in the domain."""
        if type(o) is not Period:
            return self._atoms.get(o)
        if o.hi >= self._size:
            return None
        # the periods come by (lo, hi): those starting before lo, then lo's
        lo = o.lo
        return len(self._atoms) + lo * self._size - lo * (lo - 1) // 2 + o.hi - lo

    def mask(self, values) -> int:
        """The mask of those of values that are in the domain."""
        mask = 0
        for i in map(self.position, values):
            if i is not None:
                mask |= 1 << i
        return mask

    def period_mask(self, lo: int, lo_last: int, hi: int, hi_last: int) -> int:
        """The mask of the periods [a, b] of the timeline with
        lo <= a <= lo_last and hi <= b <= hi_last; no Period is built."""
        return _period_runs(self._size, lo, lo_last, hi, hi_last) << len(self._atoms)

    def subperiods(self, windows) -> int:
        """The mask of the subperiods of the periods among windows: one
        period_mask per run of first points that share their last one, so
        a list of one window takes its one period_mask directly."""
        if type(windows) is list and len(windows) == 1:
            w = windows[0]
            return self.period_mask(w.lo, w.hi, w.lo, w.hi) if type(w) is Period else 0
        mask, start, end = 0, 0, -1  # the subperiods of [start, end] are to add
        for w in sorted(w for w in windows if type(w) is Period):
            if w.hi > end:
                mask |= self.period_mask(start, min(w.lo - 1, end), start, end)
                start, end = w.lo, w.hi
        return mask | self.period_mask(start, end, start, end)

    def members(self, mask: int) -> list:
        """The objects of a mask, in domain order."""
        bits = bin(mask)[:1:-1].encode().translate(_BITS)  # lowest first
        return list(compress(self.objects, bits))


#: binary digits as the bytes 0 and 1, the selectors `compress` reads
_BITS = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=256)
def _period_runs(size: int, lo: int, lo_last: int, hi: int, hi_last: int) -> int:
    """DomainIndex.period_mask over no atoms, cached per timeline size: the
    periods starting at one point a are one run of bits."""
    mask, hi_last = 0, min(hi_last, size - 1)
    for a in range(lo, min(lo_last, hi_last) + 1):
        first = max(a, hi)  # the first period taken from [a, a], [a, a+1], ...
        if first <= hi_last:
            start = a * size - a * (a - 1) // 2 + first - a
            mask |= ((1 << (hi_last - first + 1)) - 1) << start
    return mask


class ObjectDomain(Record):
    """Named atoms plus, implicitly, every period over the timeline."""

    __slots__ = ("__dict__",)  # for the cached index
    timeline: Timeline
    atoms: tuple

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom names")

    @cached_property
    def index(self) -> DomainIndex:
        """The one index of every domain with these atoms and this
        timeline size (a bounded cache), looked up on first use: models
        of different cases share it, as do a TOP model and the BOT model
        derived from it."""
        return _index(self.atoms, self.timeline.size)

    def objects(self) -> Iterator[Object]:
        """Deterministic enumeration: atoms in declaration order, then periods."""
        return iter(self.index.objects)


@lru_cache(maxsize=64)
def _index(atoms: tuple, size: int) -> DomainIndex:
    return DomainIndex(atoms, Timeline(size))


class _Model:
    """What both interpretation structures share."""

    __slots__ = ()

    def objects(self) -> Iterator[Object]:
        return self.domain.objects()

    def partitioning(self, name: str):
        p = self.cparts.get(name)
        return p if p is not None else self.gparts.get(name)


class TopModel(_Model, Record):
    """Interpretation structure for TOP formulas.

    preds maps (functor, arity) to extensions: argument tuple -> the set of
    maximal periods where the situation holds.  culms flags whether a
    situation reaches its climax at the last point where it is ongoing.
    Unlisted tuples denote the empty period set / a false culmination flag.
    """

    timeline: Timeline
    domain: ObjectDomain
    consts: dict
    preds: dict
    culms: dict
    cparts: dict
    gparts: dict

    def __post_init__(self):
        if self.domain.timeline != self.timeline:
            raise ValueError("domain built over a different timeline")

    def extension(self, functor: str, arity: int):
        """Extension map for a declared predicate, or None if undeclared."""
        return self.preds.get((functor, arity))

    def culm_flag(self, functor: str, arity: int, args: tuple) -> bool:
        return self.culms.get((functor, arity), {}).get(args, False)


class BotModel(_Model, Record):
    """Interpretation structure for BOT formulas.

    bot_preds maps (functor, arity) to the set of argument tuples on which
    the predicate is true; every other tuple denotes false.
    """

    timeline: Timeline
    domain: ObjectDomain
    consts: dict
    bot_preds: dict
    cparts: dict
    gparts: dict

    def true_tuples(self, functor: str, arity: int):
        return self.bot_preds.get((functor, arity))


class EtaMapping(Record):
    """Functor renaming scheme for the two derived culmination predicates.

    culm_functor(pi) names the predicate that is true when the situation of
    pi reaches its climax; span_functor(pi) names the predicate relating
    the arguments of pi to the period from the situation's first start to
    its last stop.
    """

    culm_prefix: str = "cmp_"
    span_prefix: str = "max_"

    def culm_functor(self, functor: str) -> str:
        return self.culm_prefix + functor

    def span_functor(self, functor: str) -> str:
        return self.span_prefix + functor


class CandidatePlan:
    """Candidate values for the variables of a depth-first search.

    A compiler narrows the plan as it compiles a formula, with filters
    that every satisfying assignment passes, so dropping the rest loses
    no witness: `restrict` gives a variable a static mask of the domain
    index (see `DomainIndex`), `inside` an arc to another variable's mask,
    and `equal_to` the one value an equality gives it.  An unrestricted
    variable takes the whole domain.  Candidates keep
    domain order, which keeps the first witness the one plain nested
    enumeration over the whole domain finds.  Only `equal_to` reads other
    variables, and it narrows a variable only where `search` binds them
    before it.
    """

    def __init__(self, index: DomainIndex):
        self.index = index
        self._static = {}  # name -> mask of its allowed values
        self._equal = []  # (name, needs, value) of each equal_to
        self._inside = []  # (name, other) of each inside

    def restrict(self, name, mask: int) -> None:
        """Restrict a variable to the values of a mask."""
        old = self._static.get(name)
        self._static[name] = mask if old is None else old & mask

    def inside(self, name, other) -> None:
        """Restrict a variable, before the search, to the subperiods of
        the static candidates of other: one arc of subper(name, other)."""
        self._inside.append((name, other))

    def equal_to(self, name, needs, value) -> None:
        """Restrict a variable to {value(g)} where all names in needs are
        bound before it."""
        self._equal.append((name, needs, value))

    def search(self, tests: list):
        """The first assignment, in candidate order, that passes every test,
        or None.

        tests holds (test, names) pairs, a test being g -> bool.  Names are
        bound in the order of their first occurrence across the tests, and
        each test runs, in list order, as soon as the last of its names is
        bound, with exactly the names up to that one in g; the first that
        fails cuts the branch.  This is the one depth-first search behind
        both witness searches.  A name takes its static mask, narrowed
        first by the arcs of `inside` in the order they were given; the
        one filter read at a node is `equal_to`, once the names it needs
        are bound.  The tests read every name restricted or in an arc, so
        a name with no value, before or after the arcs, ends the search
        with no test run.  A level is listed when first reached.
        """
        if 0 in self._static.values():
            return None
        index = self.index
        for name, other in self._inside:
            windows = self._static.get(other)
            if windows is not None:
                self.restrict(name, index.subperiods(index.members(windows)))
        order, level, checks = [], {}, [[]]
        for test, names in tests:
            deepest = 0  # the number of names bound when the test runs
            for name in names:
                i = level.get(name)
                if i is None:
                    i = level[name] = len(order)
                    order.append(name)
                    checks.append([])
                if i >= deepest:
                    deepest = i + 1
            checks[deepest].append(test)
        last = len(order)
        static = [self._static.get(name) for name in order]
        if 0 in static:
            return None
        equal = [[] for _ in order]  # callables g -> the one value allowed
        for name, needs, value in self._equal:
            i = level[name]
            if all(level[n] < i for n in needs):
                equal[i].append(value)
        objects, members = index.objects, index.members

        def candidates(i):
            mask = static[i]
            if equal[i]:  # the one value every equality gives, if allowed
                value, *others = {eq(g) for eq in equal[i]}
                k = None if others else index.position(value)
                if k is None or mask is not None and not mask >> k & 1:
                    return ()
                return (objects[k],)
            fixed[i] = objects if mask is None else members(mask)
            return fixed[i]

        g = {}
        fixed = [None] * last  # candidates that read no variable, once listed
        stack = []  # for each bound name, an iterator over its further values
        while True:
            depth = len(stack)
            for check in checks[depth]:
                if not check(g):
                    break
            else:
                if depth == last:
                    return dict(g)
                stack.append(iter(fixed[depth] or candidates(depth)))
            while stack:  # bind the deepest name that has a value left
                name = order[len(stack) - 1]
                value = next(stack[-1], None)  # no object is None
                if value is not None:
                    g[name] = value
                    break
                stack.pop()
                g.pop(name, None)  # never bound when there were no candidates
            else:
                return None


# ---------------------------------------------------------------------------
# Compiling: what the TOP and BOT compilers share
#
# Every compiled part, in either language, is an operand: a pair (value,
# names), names being the variables the part reads, in reading order,
# repeats included.  A part that reads no name is folded: its value is the
# part's value under every assignment.  Any other part's value is a
# function g -> value.


def _closure(operand):
    """An operand's value as a callable g -> value."""
    x, names = operand
    return x if names else lambda g: x


def _lift(fn, *operands):
    """fn of one or two compiled operands, as an operand: folded exactly
    when all of them are, and reading the names they read, in order.  A
    folded operand goes in as its value."""
    if len(operands) == 1:
        (x, names), = operands
        if not names:
            return fn(x), names
        return (lambda g: fn(x(g))), names
    (a, names), (b, more) = operands
    if not names:
        if not more:
            return fn(a, b), names
        return (lambda g: fn(a, b(g))), more
    if not more:
        return (lambda g: fn(a(g), b)), names
    return (lambda g: fn(a(g), b(g))), names + more


def _row(operands):
    """The tuple of the operands' values, as an operand: a literal's
    arguments, the folded ones kept in place and only the others read."""
    values = [None if names else x for x, names in operands]
    reads = [(k, x) for k, (x, names) in enumerate(operands) if names]
    if not reads:
        return tuple(values), ()

    def row(g):
        out = values.copy()
        for k, x in reads:
            out[k] = x(g)
        return tuple(out)

    return row, tuple(n for _, names in operands for n in names)


def _is_period(v):
    return type(v) is Period


def _eq(x, y):
    return x is not UNDEFINED and y is not UNDEFINED and x == y


class Compiler:
    """What the TOP and BOT compilers share: the model, the speech time,
    the candidate plan that compiling narrows, the lookups of names, and
    the rules that narrow the plan.  The rules narrow only a bare variable:
    the operand `term` gives a variable, an itemgetter, which no lifted
    part is.  A constant or partitioning the model lacks raises
    UnknownConstant or UnknownPartitioning where it is looked up."""

    def __init__(self, m, st: int):
        self.m = m
        self.st = st
        self.plan = CandidatePlan(m.domain.index)

    def term(self, t):
        """A variable or constant as an operand: its lookup, or its value."""
        if type(t) is Var:
            return itemgetter(t.name), (t.name,)
        return self._const(t.name), ()

    def _const(self, name):
        if name not in self.m.consts:
            raise UnknownConstant(f"unknown constant {name}")
        return self.m.consts[name]

    def period(self, t):
        """The operand of a variable or constant t read where only a period
        can hold: a variable t takes only periods."""
        if type(t) is Var:
            self.plan.restrict(t.name, self.plan.index.periods)
        return self.term(t)

    def _equal(self, x, y):
        """The test eq(x, y) of two operands.  A bare variable on either
        side takes the other side's value: its one value when folded,
        else the value read once the names it reads are bound."""
        for (var, names), (value, needs) in ((x, y), (y, x)):
            if type(var) is itemgetter:
                if needs:
                    self.plan.equal_to(names[0], needs, value)
                else:
                    self.plan.restrict(names[0], self.plan.index.mask([value]))
        return _lift(_eq, x, y)

    def _subper(self, x, w):
        """The test subper(x, w) of two operands.  A bare variable x takes
        only the subperiods of a folded w, or of the candidates of a bare
        variable w."""
        (var, names), (window, more) = x, w
        if type(var) is itemgetter:
            if not more:
                self.plan.restrict(names[0], self.plan.index.subperiods([window]))
            elif type(window) is itemgetter:
                self.plan.inside(names[0], more[0])
        return _lift(subper, x, w)

    def _in_part(self, name, t):
        """The block test of partitioning `name`, looked up before the term
        t it applies to is compiled, and t's operand; a variable t takes
        only the blocks."""
        part = self.m.partitioning(name)
        if part is None:
            raise UnknownPartitioning(f"unknown partitioning {name}")
        if type(t) is Var:
            self.plan.restrict(t.name, self.plan.index.mask(part.blocks))
        blocks = frozenset(part.blocks)
        return (lambda v: type(v) is Period and v in blocks), self.term(t)

    def _semijoin(self, tuples, args, operands):
        """The rows of tuples that agree with a literal's folded operands
        and with each repeated variable of its args.  Each variable takes,
        at its first position, only the values there: the one join of a
        literal, made before the search."""
        rows, first = tuples, {}  # first: each variable's first position
        for k, (a, (x, names)) in enumerate(zip(args, operands)):
            if not names:
                rows = [t for t in rows if t[k] == x]
            elif type(a) is Var:
                j = first.setdefault(a.name, k)
                if j != k:
                    rows = [t for t in rows if t[k] == t[j]]
        mask = self.plan.index.mask
        for name, j in first.items():
            self.plan.restrict(name, mask([t[j] for t in rows]))
        return rows


class FunctorCollision(Exception):
    """A derived functor name is already used by the model."""


class EvalError(Exception):
    """A formula refers to something the model or assignment does not supply."""


class UnboundVariable(EvalError):
    pass


def evaluate(test, g):
    """Run a compiled test, or expression, under g.  It reads g[name]
    directly, so an unbound variable surfaces as KeyError and is reported
    here."""
    try:
        return test(g)
    except KeyError as e:
        raise UnboundVariable(e.args[0]) from None


class UnknownFunctor(EvalError):
    """A functor of that arity the model lacks, met when compiling."""


class UnknownConstant(EvalError):
    """A constant the model lacks, met when compiling."""


class UnknownPartitioning(EvalError):
    """A partitioning the model lacks, met when compiling."""


class Violation(Record):
    code: str
    where: str

    def __str__(self):
        return f"{self.code}: {self.where}"


def derive_bot_model(
    m: TopModel, eta: EtaMapping = EtaMapping(), names=None
) -> BotModel:
    """Build the BOT interpretation matching a TOP model.

    For each TOP predicate pi of arity n the result defines:
      * (pi, n+1): true on (args..., p) iff p is a listed maximal period;
      * (culm(pi), n): true on args iff the culmination flag is set;
      * (span(pi), n+1): true on (args..., p) iff the situation holds
        somewhere and p runs from its first start to its last stop.

    Given names, a set of BOT functors, only the relations among them are
    derived, which is all a formula over those functors reads.  Collisions
    are checked over every pi.  The BOT model holds the TOP model's
    constants and partitionings themselves: models are immutable.
    """
    functors = {}
    for f, n in [*m.preds, *m.culms]:
        functors.setdefault(f, n)
    for f in functors:
        for image in (eta.culm_functor(f), eta.span_functor(f)):
            if image in functors:
                raise FunctorCollision(
                    f"derived functor {image!r} already used by the model"
                )

    bot_preds = {}
    for f, n in functors.items():
        span, culm = eta.span_functor(f), eta.culm_functor(f)
        ext = m.preds.get((f, n), {})
        if names is None or f in names:
            bot_preds[(f, n + 1)] = frozenset(
                args + (p,) for args, ps in ext.items() for p in ps)
        if names is None or span in names:
            bot_preds[(span, n + 1)] = frozenset(
                args + (Period(min(p.lo for p in ps), max(p.hi for p in ps)),)
                for args, ps in ext.items() if ps)
        if names is None or culm in names:
            flags = m.culms.get((f, n), {})
            bot_preds[(culm, n)] = frozenset(args for args, v in flags.items() if v)

    return BotModel(
        timeline=m.timeline,
        domain=m.domain,
        consts=m.consts,
        bot_preds=bot_preds,
        cparts=m.cparts,
        gparts=m.gparts,
    )


def _check_partitioning(name, part, size, expected_kind, out):
    where = f"{expected_kind[0]}part {name}"
    if part.kind != expected_kind:
        out.append(Violation("KindMismatch", where))
    covered = 0
    for b in part.blocks:
        if b.hi >= size:
            out.append(Violation("BadPeriodBounds", f"{where} block {b}"))
            return
        covered += b.hi - b.lo + 1
    # disjoint blocks (see Partitioning) inside the timeline tile it
    # exactly when they cover as many points as it has
    if expected_kind == COMPLETE and covered != size:
        out.append(Violation("IncompletePartitioning", where))
    if expected_kind == GAPPY and covered == size:
        out.append(Violation("GappyCoversAll", where))


def validate_model(m: TopModel) -> list:
    """All invariant violations of a TOP model; empty list means valid."""
    out = []
    size = m.timeline.size
    atoms = set(m.domain.atoms)

    for name, obj in m.consts.items():
        if obj.hi >= size if type(obj) is Period else obj not in atoms:
            out.append(Violation("UnknownObject", f"constant {name}"))

    arities = {}
    for f, n in [*m.preds, *m.culms]:
        if arities.setdefault(f, n) != n:
            out.append(Violation("InconsistentArity", f"functor {f}"))
        if n < 1:
            out.append(Violation("BadArity", f"functor {f}/{n}"))

    for (f, n), ext in m.preds.items():
        for args, ps in ext.items():
            if len(args) != n:
                out.append(Violation("BadArity", f"{f} tuple {args}"))
                continue
            for o in args:
                if o.hi >= size if type(o) is Period else o not in atoms:
                    out.append(Violation("UnknownObject", f"{f}{args}"))
            ordered = sorted(ps)
            for p in ordered:
                if p.hi >= size:
                    out.append(Violation("BadPeriodBounds", f"{f}{args} {p}"))
            for a, b in zip(ordered, ordered[1:]):
                if mergeable(a, b):
                    out.append(
                        Violation("MergeablePeriods", f"{f}{args}: {a} and {b}")
                    )

    for (f, n), flags in m.culms.items():
        for args in flags:
            if len(args) != n:
                out.append(Violation("BadArity", f"culm {f} tuple {args}"))
                continue
            for o in args:
                if o.hi >= size if type(o) is Period else o not in atoms:
                    out.append(Violation("UnknownObject", f"culm {f}{args}"))

    for name, part in m.cparts.items():
        _check_partitioning(name, part, size, COMPLETE, out)
    for name, part in m.gparts.items():
        _check_partitioning(name, part, size, GAPPY, out)

    return out

"""Line-oriented text format for TOP models plus a designated speech time.

Directives, one per line, with ``#`` comments:

    timeline 10                  # points 0..9
    speech 7
    object tank5                 # an atom, also usable as a constant
    periodconst d_jan = [3,4]
    pred empty/1
    maximal empty(tank5) = [2,5]
    culm empty(tank5) = false
    cpart minute = blocks 1      # uniform block length, must divide timeline
    cpart shift = [0,4] [5,9]    # or explicit blocks
    gpart fivepm = [3,3] [7,7]

Names follow the formula rule for identifiers (`lexer.is_identifier`), so
a formula can name whatever a model file declares.  Constants must be
declared before they are used in maximal/culm argument lists.  Unlisted
predicate tuples denote the empty period set and a false culmination flag.
A file compiles only if the resulting model passes validate_model and the
speech time lies on the timeline.  No number in a file exceeds MAX_TIMELINE.
"""
from __future__ import annotations

import io
import re

from .core import (
    COMPLETE,
    GAPPY,
    ObjectDomain,
    Partitioning,
    Period,
    Record,
    Timeline,
    TopModel,
    validate_model,
)
from .lexer import is_identifier


#: the longest timeline, and so the largest number, a model file takes: a
#: timeline of n points has n(n+1)/2 periods, and a search may list them all
MAX_TIMELINE = 1000


class ModelFileError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line

    def __str__(self):
        if self.line:
            return f"line {self.line}: {self.message}"
        return self.message


class ModelValidationError(ModelFileError):
    def __init__(self, violations):
        text = "; ".join(str(v) for v in violations)
        super().__init__(f"model invariants violated: {text}")
        self.violations = violations


class CompiledModel(Record):
    model: TopModel
    speech: int


_IDENT = r"\w+"  # a name must also pass is_identifier, the formula rule
_NUMBER = r"[0-9]+"  # \d and str.isdigit also match other scripts' digits
_PERIOD_RE = re.compile(rf"\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]")
_NUMBER_RE = re.compile(_NUMBER)
_NAMED_RE = re.compile(rf"({_IDENT})\s*=\s*(.+)")  # periodconst, cpart, gpart
_PRED_RE = re.compile(rf"({_IDENT})\s*/\s*({_NUMBER})")
_TUPLE_RE = re.compile(rf"({_IDENT})\s*\(\s*(.*?)\s*\)\s*=\s*(.+)")
_BLOCKS_RE = re.compile(rf"blocks\s+({_NUMBER})")


#: a number of more digits, leading zeros aside, is over MAX_TIMELINE
_MAX_DIGITS = len(str(MAX_TIMELINE))


def _number(text: str, lineno: int) -> int:
    """A run of ASCII digits as an int of at most MAX_TIMELINE; its length
    is checked first, as int() refuses more than 4,300 digits."""
    if len(text) <= _MAX_DIGITS or len(text.lstrip("0")) <= _MAX_DIGITS:
        value = int(text)
        if value <= MAX_TIMELINE:
            return value
    raise ModelFileError(f"numbers are at most {MAX_TIMELINE}", lineno)


def _parse_periods(text: str, lineno: int) -> list:
    periods = []
    rest = text
    while rest:
        mm = _PERIOD_RE.match(rest)
        if not mm:
            raise ModelFileError(f"expected period list, found {rest!r}", lineno)
        lo, hi = _number(mm.group(1), lineno), _number(mm.group(2), lineno)
        if lo > hi:
            raise ModelFileError(f"invalid period [{lo},{hi}]", lineno)
        periods.append(Period(lo, hi))
        rest = rest[mm.end():].strip()
    if not periods:
        raise ModelFileError("expected at least one period", lineno)
    return periods


class _Compiler:
    def __init__(self):
        self.size = None
        self.speech = None
        self.atoms = []
        self.consts = {}
        self.pred_arity = {}
        self.preds = {}
        self.culms = {}
        self.cparts = {}
        self.gparts = {}

    def feed(self, lineno: int, line: str):
        parts = line.split(None, 1)
        kw, rest = parts[0], (parts[1].strip() if len(parts) > 1 else "")
        handler = getattr(self, f"_d_{kw}", None)
        if handler is None:
            raise ModelFileError(f"unknown directive {kw!r}", lineno)
        handler(lineno, rest)

    def _d_timeline(self, lineno, rest):
        if self.size is not None:
            raise ModelFileError("timeline declared twice", lineno)
        size = _number(rest, lineno) if _NUMBER_RE.fullmatch(rest) else 0
        if size < 1:
            raise ModelFileError("timeline needs a positive size", lineno)
        self.size = size

    def _d_speech(self, lineno, rest):
        if self.speech is not None:
            raise ModelFileError("speech declared twice", lineno)
        if not _NUMBER_RE.fullmatch(rest):
            raise ModelFileError("speech needs a time-point", lineno)
        self.speech = _number(rest, lineno)

    def _d_object(self, lineno, rest):
        if not is_identifier(rest):
            raise ModelFileError(f"bad object name {rest!r}", lineno)
        if rest in self.consts:
            raise ModelFileError(f"name {rest!r} declared twice", lineno)
        self.atoms.append(rest)
        self.consts[rest] = rest

    def _d_periodconst(self, lineno, rest):
        m = _NAMED_RE.fullmatch(rest)
        if not m or not is_identifier(m[1]):
            raise ModelFileError("expected: periodconst name = [lo,hi]", lineno)
        name, rhs = m.group(1), m.group(2).strip()
        if name in self.consts:
            raise ModelFileError(f"name {name!r} declared twice", lineno)
        periods = _parse_periods(rhs, lineno)
        if len(periods) != 1:
            raise ModelFileError("a period constant names one period", lineno)
        self.consts[name] = periods[0]

    def _d_pred(self, lineno, rest):
        m = _PRED_RE.fullmatch(rest)
        if not m or not is_identifier(m[1]):
            raise ModelFileError("expected: pred name/arity", lineno)
        name, arity = m.group(1), _number(m.group(2), lineno)
        if arity < 1:
            raise ModelFileError("predicates take at least one argument", lineno)
        if name in self.pred_arity:
            raise ModelFileError(f"predicate {name!r} declared twice", lineno)
        self.pred_arity[name] = arity
        self.preds[(name, arity)] = {}
        self.culms[(name, arity)] = {}

    def _pred_tuple(self, lineno, text):
        m = _TUPLE_RE.fullmatch(text)
        if not m or not is_identifier(m[1]):
            raise ModelFileError("expected: functor(args) = ...", lineno)
        functor, argtext, rhs = m.group(1), m.group(2), m.group(3).strip()
        arity = self.pred_arity.get(functor)
        if arity is None:
            raise ModelFileError(f"undeclared predicate {functor!r}", lineno)
        argnames = [a.strip() for a in argtext.split(",")] if argtext else []
        if len(argnames) != arity:
            raise ModelFileError(
                f"{functor!r} takes {arity} arguments, got {len(argnames)}", lineno
            )
        args = []
        for a in argnames:
            if a not in self.consts:
                raise ModelFileError(f"undeclared constant {a!r}", lineno)
            args.append(self.consts[a])
        return functor, arity, tuple(args), rhs

    def _d_maximal(self, lineno, rest):
        functor, arity, args, rhs = self._pred_tuple(lineno, rest)
        ext = self.preds[(functor, arity)]
        if args in ext:
            raise ModelFileError(f"extension of {functor}{args} listed twice", lineno)
        ext[args] = frozenset(_parse_periods(rhs, lineno))

    def _d_culm(self, lineno, rest):
        functor, arity, args, rhs = self._pred_tuple(lineno, rest)
        if rhs not in ("true", "false"):
            raise ModelFileError("culm value must be true or false", lineno)
        flags = self.culms[(functor, arity)]
        if args in flags:
            raise ModelFileError(f"culm of {functor}{args} listed twice", lineno)
        flags[args] = rhs == "true"

    def _partitioning(self, lineno, rest, kind):
        m = _NAMED_RE.fullmatch(rest)
        if not m or not is_identifier(m[1]):
            raise ModelFileError(f"expected: {kind[0]}part name = ...", lineno)
        name, rhs = m.group(1), m.group(2).strip()
        if name in self.cparts or name in self.gparts:
            raise ModelFileError(f"partitioning {name!r} declared twice", lineno)
        bm = _BLOCKS_RE.fullmatch(rhs)
        if bm:
            if kind != COMPLETE:
                raise ModelFileError("blocks form is for cpart only", lineno)
            if self.size is None:
                raise ModelFileError("declare timeline before blocks", lineno)
            k = _number(bm.group(1), lineno)
            if k < 1 or self.size % k != 0:
                raise ModelFileError(
                    f"block length {k} must divide timeline size {self.size}",
                    lineno,
                )
            blocks = [Period(i, i + k - 1) for i in range(0, self.size, k)]
        else:
            blocks = _parse_periods(rhs, lineno)
        try:
            part = Partitioning(kind, tuple(blocks))
        except ValueError as e:
            raise ModelFileError(str(e), lineno) from None
        (self.cparts if kind == COMPLETE else self.gparts)[name] = part

    def _d_cpart(self, lineno, rest):
        self._partitioning(lineno, rest, COMPLETE)

    def _d_gpart(self, lineno, rest):
        self._partitioning(lineno, rest, GAPPY)

    def finish(self) -> CompiledModel:
        if self.size is None:
            raise ModelFileError("missing timeline declaration")
        if self.speech is None:
            raise ModelFileError("missing speech declaration")
        timeline = Timeline(self.size)
        model = TopModel(
            timeline=timeline,
            domain=ObjectDomain(timeline, tuple(self.atoms)),
            consts=self.consts,
            preds=self.preds,
            culms=self.culms,
            cparts=self.cparts,
            gparts=self.gparts,
        )
        violations = validate_model(model)
        if violations:
            raise ModelValidationError(violations)
        if not 0 <= self.speech < self.size:
            raise ModelFileError(
                f"speech time {self.speech} is off the timeline"
            )
        return CompiledModel(model, self.speech)


def parse_model(text: str) -> CompiledModel:
    """Compile model-file text; raises ModelFileError/ModelValidationError."""
    compiler = _Compiler()
    # lines end where open() ends them: at "\n", "\r\n" or "\r" only
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        compiler.feed(lineno, line)
    return compiler.finish()


def load_model(path) -> CompiledModel:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_model(fh.read())


def _period_list(periods) -> str:
    return " ".join(str(p) for p in sorted(periods))


def _object_name(consts, obj) -> str:
    if isinstance(obj, str):
        return obj
    for name, value in consts.items():
        if value == obj:
            return name
    raise ValueError(f"no constant names the period {obj}")


def format_model(m: TopModel, speech: int) -> str:
    """Canonical serialization; compiling it again yields an equal model."""
    lines = [f"timeline {m.timeline.size}", f"speech {speech}"]
    for atom in m.domain.atoms:
        lines.append(f"object {atom}")
    for name, value in m.consts.items():
        if isinstance(value, Period):
            lines.append(f"periodconst {name} = {value}")
    for (functor, arity), ext in m.preds.items():
        lines.append(f"pred {functor}/{arity}")
        for args, periods in ext.items():
            names = ", ".join(_object_name(m.consts, o) for o in args)
            lines.append(f"maximal {functor}({names}) = {_period_list(periods)}")
        for args, flag in m.culms.get((functor, arity), {}).items():
            names = ", ".join(_object_name(m.consts, o) for o in args)
            value = "true" if flag else "false"
            lines.append(f"culm {functor}({names}) = {value}")
    for name, part in m.cparts.items():
        lines.append(f"cpart {name} = {_period_list(part.blocks)}")
    for name, part in m.gparts.items():
        lines.append(f"gpart {name} = {_period_list(part.blocks)}")
    return "\n".join(lines) + "\n"

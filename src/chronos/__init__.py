"""Two small temporal query languages and the rewrite that connects them.

TOP is an operator-based representation of time-related yes/no questions;
BOT is a first-order-style language with explicit point and period
expressions.  This package implements both end to end: parsing and
printing, evaluation over finite models, the TOP-to-BOT translation, and
a seeded brute-force harness that cross-checks the translation's
semantics on small models.
"""
from .bot import denot_bot, denot_bot_witness, eval_bot, eval_period, eval_point, parse_bot, print_bot
from .core import (
    COMPLETE,
    EMPTY,
    GAPPY,
    UNDEFINED,
    BotModel,
    Const,
    EtaMapping,
    EvalError,
    FunctorCollision,
    ObjectDomain,
    Partitioning,
    Period,
    Timeline,
    TopModel,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    Violation,
    derive_bot_model,
    intersect,
    subper,
    validate_model,
)
from .lexer import ArityError, ParseError
from .top import (
    EvalIndex,
    denot_top,
    denot_top_witness,
    eval_top_at,
    free_vars,
    free_vars_ordered,
    parse_top,
    print_top,
)
from .translate import EtaCollision, MUTATIONS, TransContext, alpha_equivalent, trans, translate

__version__ = "0.1.0"

#: names loaded on first use (PEP 562): the campaign harness brings in
#: hashlib and random, and neither it nor model files are needed to parse
#: or translate a formula
_LAZY = {
    **dict.fromkeys((
        "CampaignReport", "GenParams", "Verdict", "check_equivalence",
        "gen_case", "gen_formula", "gen_model", "run_campaign",
        "shrink_counterexample"), "equiv"),
    **dict.fromkeys((
        "CompiledModel", "ModelFileError", "ModelValidationError",
        "format_model", "load_model", "parse_model"), "modelfile"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [name for name in __dir__() if not name.startswith("_")]

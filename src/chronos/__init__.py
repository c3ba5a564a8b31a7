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
from .equiv import (
    CampaignReport,
    GenParams,
    Verdict,
    check_equivalence,
    gen_case,
    gen_formula,
    gen_model,
    run_campaign,
    shrink_counterexample,
)
from .lexer import ArityError, ParseError
from .modelfile import (
    CompiledModel,
    ModelFileError,
    ModelValidationError,
    format_model,
    load_model,
    parse_model,
)
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

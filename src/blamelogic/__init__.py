"""Coalition blameworthiness over finite one-shot games.

Formulas combine two modalities: N (true at every play of the game) and
B{...} (the formula is true here and the coalition had a joint action
that would have kept it false everywhere).  The package parses and
prints formulas, model-checks them on games, extracts blame witnesses,
verifies Hilbert-style derivations in the matching axiom system, and
fuzz-tests the axioms' soundness on random games.
"""

from .checker import (
    DEFAULT_STRATEGY_CAP,
    BlameEntry,
    BlameReport,
    CoalitionCountError,
    EvalTable,
    StrategySpaceError,
    blamable_coalitions,
    blame_witness,
    evaluate_all,
    satisfies,
    valid_in_game,
)
from .formula import (
    And,
    Blame,
    Bottom,
    Coalition,
    Formula,
    Iff,
    Implies,
    Necessity,
    Not,
    Or,
    Prop,
    Top,
    agents_mentioned,
    possibly,
)
from .game import (
    Game,
    GameFormatError,
    GameValidationError,
    Play,
    Strategy,
    load,
    save,
    validate,
)
from .generate import GenParams, SplitMix64, corpus_games, random_formula, random_game, soundness_sweep
from .parser import ParseError, format_formula, parse
from .proofs import (
    BUNDLED_NAMES,
    SCHEMAS,
    AtomLimitError,
    InstantiationError,
    Justification,
    Proof,
    ProofFailure,
    ProofFormatError,
    ProofLine,
    Schema,
    bundled_script,
    bundled_scripts,
    check_proof,
    dump_proof,
    instantiate_schema,
    is_tautology,
    load_proof,
)

__version__ = "0.1.0"

"""The contract every package record keeps: construction, repr, ==, hash, pickle, freezing."""

import copy
import dataclasses
import importlib
import pickle

import pytest

from blamelogic import (
    BlameEntry,
    BlameReport,
    Coalition,
    EvalTable,
    Game,
    GenParams,
    Justification,
    Not,
    Play,
    Proof,
    ProofFailure,
    ProofLine,
    Prop,
    Schema,
    Strategy,
    blamable_coalitions,
    instantiate_schema,
    is_tautology,
    load,
    load_proof,
    parse,
)

HIDE = {"lopez": "hide"}
DEAD = Prop("dead")
WITNESS = Strategy(Coalition(["lopez"]), HIDE)
HYP = Justification("hyp", (1,))

# class, keyword arguments of one sample, its repr, one field change, whether it hashes
CASES = [
    (Coalition, {"members": ["b", "a"]}, "Coalition(members=('a', 'b'))", {"members": ["a"]}, True),
    (Play, {"profile": HIDE, "outcome": "alive"},
     "Play(profile={'lopez': 'hide'}, outcome='alive')", {"outcome": "dead"}, False),
    (Game, {"agents": ["lopez"], "actions": ["hide", "expose"], "outcomes": ["alive"],
            "plays": [Play(HIDE, "alive")], "valuation": {"dead": [0]}},
     "Game(agents=('lopez',), actions=('hide', 'expose'), outcomes=('alive',), "
     "plays=(Play(profile={'lopez': 'hide'}, outcome='alive'),), "
     "valuation={'dead': frozenset({0})})", {"valuation": {}}, False),
    (Strategy, {"coalition": ["lopez"], "choice": HIDE},
     "Strategy(coalition=Coalition(members=('lopez',)), choice={'lopez': 'hide'})",
     {"choice": {"lopez": "expose"}}, False),
    (EvalTable, {"formula": DEAD, "truth": (False, True)},
     "EvalTable(formula=Prop(name='dead'), truth=(False, True))", {"truth": (True, True)}, True),
    (BlameEntry, {"coalition": Coalition(["lopez"]), "witness": WITNESS, "minimal": True},
     "BlameEntry(coalition=Coalition(members=('lopez',)), witness=Strategy(coalition="
     "Coalition(members=('lopez',)), choice={'lopez': 'hide'}), minimal=True)",
     {"minimal": False}, False),
    (BlameReport, {"play_index": 2, "formula": DEAD, "max_size": 1, "entries": ()},
     "BlameReport(play_index=2, formula=Prop(name='dead'), max_size=1, entries=())",
     {"max_size": 0}, True),
    (Schema, {"name": "Dual", "metavars": ("phi",), "side_condition": None, "build": Not},
     "Schema(name='Dual', metavars=('phi',), side_condition=None, "
     "build=<class 'blamelogic.formula.Not'>)", {"side_condition": "disjoint(C,D)"}, True),
    (Justification, {"kind": "axiom", "refs": (), "name": "TruthN", "subst": {"phi": DEAD}},
     "Justification(kind='axiom', refs=(), name='TruthN', subst={'phi': Prop(name='dead')})",
     {"name": "TruthB"}, False),
    (ProofLine, {"formula": DEAD, "just": HYP},
     "ProofLine(formula=Prop(name='dead'), "
     "just=Justification(kind='hyp', refs=(1,), name=None, subst=None))",
     {"formula": Not(DEAD)}, True),
    (Proof, {"hypotheses": (DEAD,), "claim": DEAD, "lines": (ProofLine(DEAD, HYP),)},
     "Proof(hypotheses=(Prop(name='dead'),), claim=Prop(name='dead'), "
     "lines=(ProofLine(formula=Prop(name='dead'), "
     "just=Justification(kind='hyp', refs=(1,), name=None, subst=None)),))",
     {"hypotheses": ()}, True),
    (ProofFailure, {"line": 3, "reason": "bad"}, "ProofFailure(line=3, reason='bad')",
     {"line": 0}, True),
    (GenParams, {"seed": 7, "n_agents": 3, "n_actions": 2, "n_outcomes": 2, "n_plays": 6,
                 "n_props": 2, "formula_depth": 4},
     "GenParams(seed=7, n_agents=3, n_actions=2, n_outcomes=2, n_plays=6, n_props=2, "
     "formula_depth=4)", {"n_plays": 0}, True),
]  # fmt: skip

# The same records built with their defaults left out.
DEFAULTS = [
    (Coalition(), Coalition(members=())),
    (Game(["a"], ["x"], []), Game(["a"], ["x"], [], plays=(), valuation={})),
    (Justification("mp"), Justification(kind="mp", refs=(), name=None, subst=None)),
    (GenParams(), GenParams(0, 2, 2, 2, 6, 2, 4)),
    (GenParams(n_props=3), GenParams(0, 2, 2, 2, 6, 3, 4)),
]


def fields_of(record, kwargs):
    return tuple(getattr(record, name) for name in kwargs)


@pytest.mark.parametrize(
    "cls, kwargs, text, change, hashable", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_contract(cls, kwargs, text, change, hashable):
    record = cls(**kwargs)
    assert record == cls(*kwargs.values())
    assert repr(record) == text
    assert record != cls(**{**kwargs, **change})
    assert record != fields_of(record, kwargs)
    assert all(record != other(**kw) for other, kw, *_ in CASES if other is not cls)
    if hashable:
        assert hash(record) == hash(fields_of(record, kwargs))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record
    assert copy.copy(record) == record
    deep = copy.deepcopy(record)
    assert deep == record and repr(deep) == text
    name = next(iter(kwargs))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("short, full", DEFAULTS, ids=[type(s).__name__ for s, _ in DEFAULTS])
def test_record_defaults(short, full):
    assert short == full and repr(short) == repr(full)


def test_record_coercions():
    profile = dict(HIDE)
    play = Play(profile.items(), "alive")
    profile["lopez"] = "expose"
    assert type(play.profile) is dict and play.profile == HIDE
    game = Game(["a"], ["x", "y"], ["o"], [Play({"a": "x"}, "o")], {"p": [0, 0]})
    assert type(game.agents) is type(game.actions) is type(game.outcomes) is tuple
    assert type(game.plays) is tuple and game.valuation == {"p": frozenset({0})}
    strategy = Strategy(["lopez"], HIDE.items())
    assert strategy.coalition == Coalition(["lopez"]) and strategy.choice == HIDE
    assert type(strategy.choice) is dict


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Coalition(["a", "B"]), "invalid agent id 'B'"),
        (lambda: Strategy(["lopez"], {}), "strategy domain must equal the coalition"),
        (lambda: Strategy([], HIDE), "strategy domain must equal the coalition"),
        (lambda: GenParams(seed=-1), "seed must fit in 64 bits"),
        (lambda: GenParams(seed=1 << 64), "seed must fit in 64 bits"),
        (lambda: GenParams(n_agents=5), r"n_agents must be in \[1, 4\]"),
        (lambda: GenParams(n_actions=0), r"n_actions must be in \[1, 4\]"),
        (lambda: GenParams(n_outcomes=5), r"n_outcomes must be in \[1, 4\]"),
        (lambda: GenParams(n_plays=17), r"n_plays must be in \[0, 16\]"),
        (lambda: GenParams(n_props=0), r"n_props must be in \[1, 4\]"),
        (lambda: GenParams(formula_depth=7), r"formula_depth must be in \[0, 6\]"),
    ],
)
def test_record_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GenParams(seed=1.5), "seed must fit in 64 bits"),
        (lambda: GenParams(n_agents=2.5), r"n_agents must be in \[1, 4\]"),
        (lambda: GenParams(n_actions=2.0), r"n_actions must be in \[1, 4\]"),
        (lambda: GenParams(n_outcomes=True), r"n_outcomes must be in \[1, 4\]"),
        (lambda: GenParams(n_plays="3"), r"n_plays must be in \[0, 16\]"),
        (lambda: GenParams(n_props=True), r"n_props must be in \[1, 4\]"),
        (lambda: GenParams(formula_depth=2.5), r"formula_depth must be in \[0, 6\]"),
    ],
)
def test_gen_params_rejects_non_integers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


MODULES = ("checker", "cli", "formula", "game", "generate", "parser", "proofs")


def _exception_classes():
    modules = [importlib.import_module(f"blamelogic.{name}") for name in MODULES]
    return sorted(
        (value for m in modules for value in vars(m).values()
         if isinstance(value, type) and issubclass(value, BaseException)
         and value.__module__ == m.__name__),
        key=lambda cls: cls.__name__,
    )  # fmt: skip


LOPEZ_DOC = (
    '{"agents": ["lopez"], "actions": ["hide"], "outcomes": ["o"], "plays": [], "valuation": {}}'
)
# 40 agents with two actions cross the strategy cap at 21 members and the
# coalition count by size 10.
FORTY = tuple(f"g{k}" for k in range(40))
WIDE = Game(FORTY, ["x", "y"], ["o"], [Play(dict.fromkeys(FORTY, "x"), "o")], {"p": [0]})
# One call per exception class the package defines, raising it as users meet it.
RAISE = {
    "AtomLimitError": lambda: is_tautology(parse(" & ".join(f"p{i}" for i in range(21)))),
    "CoalitionCountError": lambda: blamable_coalitions(WIDE, 0, parse("p"), 10),
    "GameFormatError": lambda: load("[]"),
    "GameValidationError": lambda: load(LOPEZ_DOC.replace('"hide"', '"hide", "hide", ""')),
    "InstantiationError": lambda: instantiate_schema("TruthN", {}),
    "ParseError": lambda: parse("p &"),
    "ProofFormatError": lambda: load_proof('{"claim": 1}'),
    "StrategySpaceError": lambda: blamable_coalitions(WIDE, 0, parse("p")),
    "_NestingError": lambda: parse("(" * 200 + "p"),
}


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda cls: cls.__name__)
def test_exceptions_pickle(cls):
    # A pickled error, as a process pool sends it back, keeps its class,
    # message and attributes.
    with pytest.raises(cls) as info:
        RAISE[cls.__name__]()
    error = info.value
    assert type(error) is cls
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(error, protocol))
        assert type(back) is cls and str(back) == str(error)
        assert back.args == error.args and vars(back) == vars(error)

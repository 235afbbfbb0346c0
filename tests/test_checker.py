import copy
import hashlib
import itertools
import json
import pickle
import time

import pytest

from blamelogic import (
    And,
    Blame,
    Coalition,
    CoalitionCountError,
    Game,
    Play,
    StrategySpaceError,
    Strategy,
    Top,
    blamable_coalitions,
    blame_witness,
    evaluate_all,
    parse,
    satisfies,
    valid_in_game,
)
from blamelogic.checker import STRATEGY_CAP, _Evaluator, _first_preventer
from blamelogic.formula import blame_nodes
from blamelogic.generate import (
    GenParams,
    SplitMix64,
    _draw,
    _leaf_table,
    corpus_games,
    random_formula,
    random_game,
)
from conftest import ACCEPTANCE, violations
from smallscope import oracle, outcome


@pytest.fixture
def set_cap(monkeypatch):
    """Lower the strategy cap for one test, so small games cross it."""
    return lambda cap: monkeypatch.setattr("blamelogic.checker.STRATEGY_CAP", cap)


def eval_text(game, text):
    return evaluate_all(game, parse(text)).truth


class TestLopezFrozen:
    """The one-agent rescue game, evaluated exactly as documented."""

    def test_blame_vector(self, lopez):
        assert eval_text(lopez, "B{lopez} dead") == (False, False, True)

    def test_box_and_diamond(self, lopez):
        assert satisfies(lopez, 0, parse("N !dead")) is False
        assert satisfies(lopez, 2, parse("<N> B{lopez} dead")) is True
        assert eval_text(lopez, "N dead | <N> !dead") == (True, True, True)

    def test_empty_coalition_never_blamable(self, lopez):
        assert eval_text(lopez, "B{} dead") == (False, False, False)

    def test_truth_axiom_valid(self, lopez):
        assert valid_in_game(lopez, parse("B{lopez} dead -> dead")) is None

    def test_least_counterexample(self, lopez):
        assert valid_in_game(lopez, parse("dead")) == 0

    def test_witness(self, lopez):
        w = blame_witness(lopez, 2, Coalition(["lopez"]), parse("dead"))
        assert w == Strategy(Coalition(["lopez"]), {"lopez": "hide"})

    def test_witness_none_when_formula_false_here(self, lopez):
        assert blame_witness(lopez, 0, Coalition(["lopez"]), parse("dead")) is None

    def test_witness_none_for_empty_coalition(self, lopez):
        assert blame_witness(lopez, 2, Coalition(), parse("dead")) is None

    def test_report_payload(self, lopez):
        report = blamable_coalitions(lopez, 2, parse("dead"), max_size=1)
        assert report.as_dict() == {
            "play": 2,
            "formula": "dead",
            "max_size": 1,
            "blamable": [
                {"coalition": ["lopez"], "witness": {"lopez": "hide"}, "minimal": True}
            ],
        }


def two_agent_game():
    plays = []
    for pa, pb in itertools.product(("zero", "one"), repeat=2):
        plays.append(Play({"a": pa, "b": pb}, "w"))
    return Game(
        ("a", "b"),
        ("zero", "one"),
        ("w",),
        tuple(plays),
        {"p": frozenset({3})},  # true only at (one, one)
    )


class TestTwoAgent:
    def test_each_singleton_can_prevent(self):
        g = two_agent_game()
        report = blamable_coalitions(g, 3, parse("p"))
        got = [(members, choice, minimal) for members, choice, minimal in report.entries]
        assert got == [
            (("a",), {"a": "zero"}, True),
            (("b",), {"b": "zero"}, True),
            (("a", "b"), {"a": "zero", "b": "zero"}, False),
        ]

    def test_max_size_cuts_the_list(self):
        g = two_agent_game()
        report = blamable_coalitions(g, 3, parse("p"), max_size=1)
        assert [members for members, _, _ in report.entries] == [("a",), ("b",)]

    def test_max_size_bounds(self):
        g = two_agent_game()
        with pytest.raises(ValueError, match="max_size 3 out of range"):
            blamable_coalitions(g, 3, parse("p"), max_size=3)
        with pytest.raises(ValueError, match="max_size -1 out of range"):
            blamable_coalitions(g, 3, parse("p"), max_size=-1)
        # zero is legal and yields the empty report
        assert blamable_coalitions(g, 3, parse("p"), max_size=0).entries == ()

    @pytest.mark.parametrize("max_size", [True, 1.0])
    def test_max_size_must_be_an_int(self, lopez, max_size):
        with pytest.raises(ValueError, match=f"^max_size {max_size} out of range for 1 agents$"):
            blamable_coalitions(lopez, 2, parse("dead"), max_size)

    def test_witness_is_smallest_blocked_gap(self):
        # at play 3 every a-strategy except "one" blocks nothing, so the
        # least non-blocked code must be action index 0
        g = two_agent_game()
        w = blame_witness(g, 3, Coalition(["a"]), parse("p"))
        assert w.choice == {"a": "zero"}


class TestErrors:
    def test_play_index_out_of_range(self, lopez):
        with pytest.raises(IndexError, match="play index 7 out of range"):
            satisfies(lopez, 7, parse("dead"))
        with pytest.raises(IndexError):
            blamable_coalitions(lopez, -1, parse("dead"))
        with pytest.raises(IndexError, match="play index True out of range"):
            satisfies(lopez, True, parse("dead"))

    def test_unknown_agents_rejected(self, lopez):
        with pytest.raises(ValueError, match="agents not in the game: \\['ghost'\\]"):
            satisfies(lopez, 0, parse("B{ghost} dead"))
        with pytest.raises(ValueError, match="ghost"):
            evaluate_all(lopez, parse("B{ghost} dead"))
        with pytest.raises(ValueError, match="ghost"):
            blame_witness(lopez, 0, Coalition(["ghost"]), parse("dead"))

    def test_duplicate_agent_in_an_unvalidated_game(self):
        # The search builds coalitions from the game's ids unchecked: no game repeats one.
        fields = (("x", "y"), ("o",), (Play({"a": "x"}, "o"),), {"p": {0}})
        assert violations(("a", "a"), *fields) == ["duplicate agent 'a'"]
        entries = blamable_coalitions(Game(("a",), *fields), 0, parse("p")).entries
        assert [(members, choice) for members, choice, _ in entries] == [(("a",), {"a": "y"})]

    def test_cap_is_never_silent(self, set_cap):
        agents = tuple(f"g{i}" for i in range(5))
        plays = (Play({a: "x" for a in agents}, "w"),)
        g = Game(agents, ("x", "y", "z", "u"), ("w",), plays, {"p": frozenset({0})})
        f = Blame(agents, parse("p"))
        set_cap(1000)
        with pytest.raises(StrategySpaceError) as exc:
            satisfies(g, 0, f)
        assert exc.value.size == 4 ** 5
        assert exc.value.cap == 1000
        # both routes fail identically, before any enumeration happens
        with pytest.raises(StrategySpaceError):
            evaluate_all(g, f)
        set_cap(STRATEGY_CAP)
        assert satisfies(g, 0, f) is True

    @pytest.mark.parametrize(
        "text", ["B{ghost} p & B{a,b} p", "B{a,b} p & B{ghost} p", "B{a,b} B{ghost} p"]
    )
    def test_unknown_agent_reported_before_cap(self, text, set_cap):
        g = two_agent_game()
        set_cap(3)
        for route in (lambda f: satisfies(g, 0, f), lambda f: evaluate_all(g, f)):
            with pytest.raises(ValueError, match="agents not in the game: \\['ghost'\\]"):
                route(parse(text))

    def test_witness_coalition_cap_reported_before_formula(self, set_cap):
        g = Game(
            ("a", "b", "c"),
            ("zero", "one"),
            ("w",),
            (Play({"a": "one", "b": "one", "c": "one"}, "w"),),
            {"p": frozenset({0})},
        )
        f = parse("p & B{b,c} p")
        set_cap(3)
        with pytest.raises(StrategySpaceError) as exc:
            blame_witness(g, 0, Coalition(["a", "b"]), f)
        assert exc.value.coalition == Coalition(["a", "b"])
        with pytest.raises(StrategySpaceError) as exc:
            blame_witness(g, 0, Coalition(["a"]), f)
        assert exc.value.coalition == Coalition(["b", "c"])

    def test_witness_coalition_is_checked_as_a_coalition(self, set_cap):
        # blame_witness folds B_C f, so a listed coalition is built as a Coalition:
        # an invalid id is refused as one, and the cap error names the Coalition.
        g = two_agent_game()
        with pytest.raises(ValueError) as exc:
            blame_witness(g, 0, ["Ghost"], parse("p"))
        assert str(exc.value) == "invalid agent id 'Ghost': must start with a lowercase letter"
        with pytest.raises(ValueError, match=r"^agents not in the game: \['ghost'\]$"):
            blame_witness(g, 0, ["ghost", "a"], parse("p"))
        set_cap(3)
        with pytest.raises(StrategySpaceError) as exc:
            blame_witness(g, 0, ["b", "a"], parse("p"))
        assert exc.value.coalition == Coalition(["a", "b"])
        assert str(exc.value) == "strategy space for coalition {a,b} has 4 elements, over the cap 3"

    def test_cap_checked_even_on_false_branch(self, lopez, set_cap):
        # the naive route could skip the oversized B node when dead is false
        # at the play; the contract says it must not
        g = two_agent_game()
        big = Blame(["a", "b"], parse("p"))
        set_cap(3)
        with pytest.raises(StrategySpaceError):
            satisfies(g, 0, big)


class TestSemanticsCorners:
    def test_zero_play_game(self):
        g = Game(("a",), ("x",), ("w",), (), {})
        assert evaluate_all(g, parse("p & !p")).truth == ()
        assert valid_in_game(g, parse("false")) is None

    def test_absent_proposition_is_false(self, lopez):
        assert eval_text(lopez, "ghost_prop") == (False, False, False)

    def test_necessity_quantifies_over_all_plays(self, lopez):
        assert eval_text(lopez, "N (dead | !dead)") == (True, True, True)
        assert eval_text(lopez, "N dead") == (False, False, False)

    def test_blame_needs_truth_here(self, lopez):
        # dead is false at plays 0 and 1, so no blame there no matter what
        assert eval_text(lopez, "B{lopez} dead")[:2] == (False, False)

    def test_blame_fails_without_preventer(self):
        # p true everywhere: every strategy is blocked
        g = Game(("a",), ("x", "y"), ("w",), (Play({"a": "x"}, "w"), Play({"a": "y"}, "w")),
                 {"p": frozenset({0, 1})})
        assert eval_text(g, "B{a} p") == (False, False)

    def test_multi_outcome_profile(self):
        # profile x occurs twice with different outcomes; a strategy is
        # blocked as soon as ANY agreeing play satisfies p
        def g(p_at):
            return Game(
                ("a",),
                ("x", "y"),
                ("w", "v"),
                (Play({"a": "x"}, "w"), Play({"a": "x"}, "v"), Play({"a": "y"}, "w")),
                {"p": frozenset(p_at)},
            )

        # p only at (x,w): strategy y never meets p, so it prevents
        g1 = g({0})
        assert satisfies(g1, 0, parse("B{a} p")) is True
        assert blame_witness(g1, 0, Coalition(["a"]), parse("p")).choice == {"a": "y"}
        # p at (x,w) and (y,w): both strategies blocked, no blame
        assert satisfies(g({0, 2}), 0, parse("B{a} p")) is False
        # p on both x-plays changes nothing for y's escape
        assert satisfies(g({0, 1}), 0, parse("B{a} p")) is True


class TestStrayValuationBits:
    """No game names a play that does not exist, so every vector fits within the plays."""

    @pytest.mark.parametrize("text", ["N (p | !p)", "N p", "!p", "B{a} p", "p -> q"])
    def test_routes_agree(self, text):
        fields = (("a",), ("x",), ("w",), (Play({"a": "x"}, "w"),))
        assert violations(*fields, {"p": frozenset({0, 5})}) == [
            "valuation 'p': play index out of range: 5"
        ]
        g = Game(*fields, {"p": frozenset({0})})
        f = parse(text)
        assert evaluate_all(g, f).truth == tuple(satisfies(g, i, f) for i in range(len(g.plays)))

    @pytest.mark.parametrize("text", ["p", "!p", "N !p", "B{a} p"])
    def test_negative_indices_name_no_play(self, text):
        one = (("a",), ("x",), ("w",), (Play({"a": "x"}, "w"),))
        two = (("a",), ("x", "y"), ("w",), (Play({"a": "x"}, "w"), Play({"a": "y"}, "w")))
        assert violations(*one, {"p": frozenset({-1})}) == [
            "valuation 'p': play index out of range: -1"
        ]
        assert violations(*two, {"p": frozenset({-2, 1})}) == [
            "valuation 'p': play index out of range: -2"
        ]
        f = parse(text)
        for g in (Game(*one, {"p": frozenset()}), Game(*two, {"p": frozenset({1})})):
            assert evaluate_all(g, f).truth == tuple(satisfies(g, i, f) for i in range(len(g.plays)))

    def test_prop_vectors_are_clipped_before_the_fold(self):
        # The fold negates with ^ full, so a stray bit would leak into the
        # vector of every formula above the Prop; a game with one is refused.
        rng = SplitMix64(20261019)
        for k in range(600):
            g = splitmix_game(rng, 1 + rng.below(2), 2, 1 + rng.below(12))
            n = len(g.plays)
            stray = {name: n + rng.below(64) for name in g.valuation}
            valuation = {name: ix | {stray[name]} for name, ix in g.valuation.items()}
            assert violations(g.agents, g.actions, g.outcomes, g.plays, valuation) == [
                f"valuation {name!r}: play index out of range: {k}" for name, k in sorted(stray.items())
            ]
            f = _draw(rng.next64(), k % 5, g, _leaf_table(g))
            m = _Evaluator(g).mask(f)
            assert m >> n == 0, (f, n)
            assert [bool(m >> i & 1) for i in range(n)] == [satisfies(g, i, f) for i in range(n)]


def test_routes_agree_on_handwritten_corners(lopez):
    g = two_agent_game()
    texts = [
        "B{} (p -> p)",
        "B{a} (p | !p)",
        "N B{a} p",
        "<N> B{a,b} p",
        "B{a} B{b} p",
        "N (p -> B{a} p)",
        "!B{b} !p",
        "true -> B{a} p",
    ]
    for text in texts:
        f = parse(text)
        table = evaluate_all(g, f)
        assert table.truth == tuple(satisfies(g, i, f) for i in range(len(g.plays)))

    for text in ["B{lopez} dead", "N dead", "<N> dead", "B{lopez} B{lopez} dead"]:
        f = parse(text)
        table = evaluate_all(lopez, f)
        assert table.truth == tuple(satisfies(lopez, i, f) for i in range(3))


def reference_blame(g, play, f, max_size):
    """(members, witness choice, minimal) per blamable coalition, from the definitions.

    Blamability is the oracle's, the witness is the first strategy in a
    brute-force product over the members in game agent order that no
    play satisfying f agrees with, and minimality is the pairwise
    proper-subset test.
    """
    holds = [satisfies(g, j, f) for j in range(len(g.plays))]
    found = []
    for size in range(1, max_size + 1):
        for members in itertools.combinations(sorted(g.agents), size):
            if not satisfies(g, play, Blame(members, f)):
                continue
            ordered = [a for a in g.agents if a in members]
            witness = next(
                dict(zip(ordered, combo))
                for combo in itertools.product(g.actions, repeat=len(ordered))
                if not any(
                    h and all(p.profile[a] == x for a, x in zip(ordered, combo))
                    for p, h in zip(g.plays, holds)
                )
            )
            found.append((members, witness))
    return [(m, w, not any(set(o) < set(m) for o, _ in found)) for m, w in found]


def splitmix_game(rng, n_agents, n_actions, n_plays):
    agents = tuple(f"g{k}" for k in range(n_agents))
    actions = tuple(f"x{k}" for k in range(n_actions))
    plays = tuple(
        Play({a: actions[rng.below(n_actions)] for a in agents}, f"o{j}") for j in range(n_plays)
    )
    val = {name: frozenset(j for j in range(n_plays) if rng.below(3)) for name in ("p0", "p1")}
    return Game(agents, actions, tuple(f"o{j}" for j in range(n_plays)), plays, val)


def bench_game(rng, n_agents, n_actions, n_plays, n_p0):
    """A splitmix_game with p0 at n_p0 plays and its agents listed out of id order."""
    g = splitmix_game(rng, n_agents, n_actions, n_plays)
    agents = tuple(rng.sample(g.agents, n_agents))
    p0 = frozenset(rng.sample(range(n_plays), n_p0))
    return Game(agents, g.actions, g.outcomes, g.plays, {**g.valuation, "p0": p0})


def test_blame_search_matches_the_definitions():
    rng = SplitMix64(20261018)
    params = GenParams(seed=rng.next64(), n_agents=4, n_actions=3, n_plays=12, formula_depth=3)
    games = corpus_games(params, 12)
    games += [splitmix_game(rng, 6, 2, 10), splitmix_game(rng, 5, 3, 14)]
    # Shaped like the blame bench's games, and searched for p0 alone: p0 at
    # one play, at three, at nine in ten.
    bench = SplitMix64(20261019)
    shaped = [bench_game(bench, *shape) for shape in ((8, 2, 24, 1), (7, 3, 30, 3), (7, 2, 30, 27))]
    false_plays = 0
    for g, every_formula in [(g, True) for g in games] + [(g, False) for g in shaped]:
        formulas = [parse("p0")]
        if every_formula:
            formulas.append(parse("p0 | p1"))
            formulas.append(random_formula(GenParams(seed=rng.next64(), formula_depth=3), g))
        for f in formulas:
            for play in range(len(g.plays)):
                false_plays += not satisfies(g, play, f)
                max_size = rng.below(len(g.agents) + 1)
                report = blamable_coalitions(g, play, f, max_size)
                got = [(members, choice, minimal) for members, choice, minimal in report.entries]
                assert got == reference_blame(g, play, f, max_size)
                for members, choice, _ in got:
                    assert blame_witness(g, play, Coalition(members), f).choice == choice
    assert false_plays  # the empty report for a false formula is covered too


def pinned_blame_cases():
    """(game, max_size, formula): a 10-agent game with p0 at one play, a 6-agent
    game at every max_size, then two bench-shaped games with agents out of id order."""
    rng = SplitMix64(20261021)
    p0, either = parse("p0"), parse("p0 | p1")
    six = bench_game(rng, 6, 3, 40, 20)
    cases = [(bench_game(rng, 10, 2, 32, 1), None, p0)]
    cases += [(six, k, f) for k in range(7) for f in (p0, either)]
    cases += [(bench_game(rng, *shape), None, p0) for shape in ((8, 3, 60, 3), (8, 2, 30, 27))]
    return cases


def test_blame_reports_are_pinned():
    # The CLI's JSON for every pinned case at every play; the digest was taken
    # before the blame search was last rewritten.
    digest, entries = hashlib.sha256(), 0
    for g, max_size, f in pinned_blame_cases():
        for play in range(len(g.plays)):
            report = blamable_coalitions(g, play, f, max_size)
            digest.update(json.dumps(report.as_dict(), indent=2).encode())
            entries += len(report.entries)
    pinned = "776a20db861e0bcb589cf97cd933a3a3c9b67512c82dd692db160b3ad158a140"
    assert (entries, digest.hexdigest()) == (15_008, pinned)


def test_report_entries_are_plain_triples_the_payload_copies():
    # On the 10-agent game and the 6-agent one at every max_size: each entry is a
    # (members, choice, minimal) triple, as_dict maps it to its row, editing the
    # payload leaves the report as it was, and a report pickles and copies equal.
    entries = 0
    for g, max_size, f in pinned_blame_cases()[:15]:
        for play in range(len(g.plays)):
            report = blamable_coalitions(g, play, f, max_size)
            before = copy.deepcopy(report.entries)
            for entry in report.entries:
                assert type(entry) is tuple and len(entry) == 3
                members, choice, minimal = entry
                assert (type(members), type(choice), type(minimal)) == (tuple, dict, bool)
                assert list(members) == sorted(set(members)) == list(choice)
            payload = report.as_dict()
            assert payload["blamable"] == [
                {"coalition": list(members), "witness": dict(choice), "minimal": minimal}
                for members, choice, minimal in report.entries
            ]
            for row in payload["blamable"]:
                row["witness"][row["coalition"][0]] = "edited"
                row["coalition"].append("edited")
                row["minimal"] = not row["minimal"]
            assert report.entries == before
            assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)
            entries += len(report.entries)
    assert entries == 9_689  # 1,023 of them at the 10-agent game's one p0 play


def test_blame_search_one_action_many_agents():
    # One action: every play agrees with every strategy, so the grand
    # coalition cannot prevent p wherever p holds and the report is empty.
    agents = tuple(f"g{k}" for k in range(12))
    plays = tuple(Play({a: "x" for a in agents}, o) for o in ("w", "v"))
    g = Game(agents, ("x",), ("w", "v"), plays, {"p": frozenset({0})})
    for play, max_size in ((0, 12), (0, 3), (1, 12)):
        report = blamable_coalitions(g, play, parse("p"), max_size)
        assert report.entries == ()
        assert [] == reference_blame(g, play, parse("p"), max_size)
    assert blame_witness(g, 0, Coalition(agents), parse("p")) is None


def walk_guard(g, f, cap, extra=None):
    """The B-node guard as a whole-tree walk: unknown agents first, then the cap in
    the fold's order, each B node before those below it and the left operand first.
    ``cap`` must be the cap in force, which the error reports."""
    coalitions, stack = [], [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Blame):
            coalitions.append(node.coalition)
        stack.extend(getattr(node, k) for k in ("right", "left", "child") if hasattr(node, k))
    if extra is not None:
        coalitions.insert(0, extra)
    unknown = {a for c in coalitions for a in c} - set(g.agents)
    if unknown:
        raise ValueError(f"agents not in the game: {sorted(unknown)}")
    for c in coalitions:
        if len(c) and len(g.actions) ** len(c) > cap:
            raise StrategySpaceError(c, len(g.actions) ** len(c))


def widest(f):
    """The size of the formula's largest B coalition, 0 without one."""
    return max([len(n.coalition) for n in blame_nodes(f)], default=0)


def raised(route, *args):
    """outcome's account of what the route raises, or None when it returns."""
    got = outcome(route, *args)
    return got if isinstance(got, tuple) else None


def guard_corpus():
    """Formulas drawn over four agents, each with a game that has fewer: some
    name unknown agents, some go over a small cap, some both. A third of them
    come with an extra coalition C, None for the rest."""
    rng = SplitMix64(20261019)
    wide = random_game(GenParams(seed=rng.next64(), n_agents=4, n_props=3))
    for n_agents in (1, 2, 3, 4):
        for _ in range(6):
            g = random_game(GenParams(seed=rng.next64(), n_agents=n_agents, n_actions=3))
            for _ in range(40):
                f = random_formula(GenParams(seed=rng.next64(), formula_depth=5), wide)
                extra = Coalition(rng.subset(wide.agents)) if rng.below(3) == 0 else None
                yield g, f, extra


def kinds(g, f, cap, error, width):
    """The error's kind, and 'both' when unknown agents hide a coalition of
    ``width`` members that is over the cap as well."""
    both = error and error[0] == "agents" and widest(f) and len(g.actions) ** width > cap
    return {error and error[0], "both" if both else None}


def test_precheck_facts_raise_what_the_walk_raises(set_cap):
    # satisfies on B_C f and blame_witness for C guard C besides f's B nodes;
    # without a C, satisfies takes f itself.
    seen = set()
    for g, f, extra in guard_corpus():
        root = f if extra is None else Blame(extra, f)
        for cap in (4, STRATEGY_CAP):
            set_cap(cap)
            expected = raised(walk_guard, g, f, cap, extra)
            assert raised(satisfies, g, 0, root) == expected, f
            if extra is not None:
                assert raised(blame_witness, g, 0, extra, f) == expected, f
            seen |= kinds(g, f, cap, expected, max(widest(f), len(extra or ())))
    assert seen == {None, "agents", "cap", "both"}


def test_the_fold_raises_what_the_walk_raises(set_cap):
    # The corpus above, without C, through the routes that guard B nodes
    # inside the fold.
    seen = set()
    for g, f, _ in guard_corpus():
        for cap in (4, STRATEGY_CAP):
            set_cap(cap)
            expected = raised(walk_guard, g, f, cap)
            assert raised(evaluate_all, g, f) == expected, f
            assert raised(valid_in_game, g, f) == expected, f
            assert raised(satisfies, g, 0, f) == expected, f
            seen |= kinds(g, f, cap, expected, widest(f))
    assert seen == {None, "agents", "cap", "both"}


def route_outcomes(g, f):
    """Each route's answer on (g, f): the vector by evaluate_all, the least failing
    play, satisfies' vector, and per play the witness and report for {a}."""
    a = Coalition(["a"])
    answers = [
        outcome(lambda: sum(v << i for i, v in enumerate(evaluate_all(g, f).truth))),
        outcome(valid_in_game, g, f),
    ]
    if g.plays:  # the play routes need a play
        answers.append(outcome(lambda: [satisfies(g, i, f) for i in range(len(g.plays))]))
        answers.append(outcome(lambda: [blame_witness(g, i, a, f) for i in range(len(g.plays))]))
        answers.append(outcome(lambda: [
            [(members, choice, minimal) for members, choice, minimal in report.entries]
            for report in [blamable_coalitions(g, i, f) for i in range(len(g.plays))]
        ]))  # fmt: skip
    return answers


def test_every_route_matches_the_definitions_at_small_scope(set_cap):
    # Every formula of at most 3 nodes on the 37 games of at most two plays of
    # scope (agent a, two actions, props p and q), at the fixed cap and at cap 1,
    # where B{a} is over it: each route raises what the reference walk raises,
    # or answers as the oracle and the definition of blame do.
    from smallscope import games, upto

    a, seen = Coalition(["a"]), set()
    for g in [g for g in games() if len(g.plays) <= 2]:
        for f in upto(3):
            for cap in (STRATEGY_CAP, 1):
                set_cap(cap)
                error = raised(walk_guard, g, f, cap)
                blame_error = raised(walk_guard, g, f, cap, a)  # the blame routes check {a} too
                got = route_outcomes(g, f)
                seen.add((error and error[0], blame_error and blame_error[0]))
                if error:
                    assert got == [error] * len(got[:3]) + [blame_error] * len(got[3:]), f
                    continue
                vector = oracle(g, f)
                truth = [bool(vector >> i & 1) for i in range(len(g.plays))]
                assert got[:2] == [vector, next((i for i, v in enumerate(truth) if not v), None)]
                if not g.plays:
                    continue
                assert got[2] == truth
                if blame_error:
                    assert got[3:] == [blame_error] * 2, f
                    continue
                # The first action, in listed order, that no play where f holds follows.
                free = [x for x in g.actions if not any(
                    v and p.profile["a"] == x for p, v in zip(g.plays, truth)
                )]  # fmt: skip
                witness = Strategy(a, {"a": free[0]}) if free else None
                expected = [witness if v else None for v in truth]
                assert got[3] == expected, f
                assert got[4] == [[(a.members, w.choice, True)] if w else [] for w in expected], f
    assert seen == {(None, None), (None, "cap"), ("agents", "agents"), ("cap", "cap")}


def test_a_repeated_agent_does_not_hide_an_unknown_one():
    # Listing 'a' twice would give B{a,ghost} as many game positions as members;
    # no game does, so the fold's guard finds ghost by counting positions.
    fields = (("x",), ("o",), (Play({"a": "x"}, "o"),), {"p": {0}})
    assert violations(("a", "a"), *fields) == ["duplicate agent 'a'"]
    g = Game(("a",), *fields)
    f = parse("B{a,ghost} p")
    routes = [
        lambda: evaluate_all(g, f),
        lambda: valid_in_game(g, f),
        lambda: satisfies(g, 0, f),
        lambda: blamable_coalitions(g, 0, f),
    ]
    for route in routes:
        with pytest.raises(ValueError, match=r"^agents not in the game: \['ghost'\]$"):
            route()


def test_the_action_masks_are_built_only_when_needed(monkeypatch):
    # A formula false at the play, or a B node with fewer child plays than
    # strategies, never needs them.
    plays = (Play({"a": "x", "b": "x"}, "o"), Play({"a": "y", "b": "x"}, "o"))
    g = Game(("a", "b"), ("x", "y"), ("o",), plays, {"q": {0, 1}})
    evaluator = _Evaluator(g)
    assert evaluator.mask(parse("q & B{a} p")) == 0
    assert evaluator.mask(parse("B{a,b} q")) == 0b11
    assert "masks" not in vars(evaluator)
    assert evaluator.mask(parse("B{b} q")) == 0b11  # b playing y prevents q
    assert "masks" in vars(evaluator)

    def unbuilt(game):
        raise AssertionError("the action masks were built")

    monkeypatch.setattr("blamelogic.checker._action_masks", unbuilt)
    assert blame_witness(g, 0, Coalition(["a"]), parse("p")) is None
    assert blamable_coalitions(g, 0, parse("p")).entries == ()
    assert evaluate_all(g, parse("q & B{a} p")).truth == (False, False)


def test_blame_witness_reuses_the_search_that_decided_its_node(monkeypatch):
    # Where the fold searched for a preventer to decide B_C p, the witness is
    # that search's code; only a node the pigeonhole shortcut decided is searched.
    searches = []

    def counting(*args):
        searches.append(args)
        return _first_preventer(*args)

    monkeypatch.setattr("blamelogic.checker._first_preventer", counting)
    calls, p = 0, parse("p")
    for g in corpus_games(GenParams(seed=20260822, n_agents=2, n_actions=2), 50):
        for play in range(len(g.plays)):
            blame_witness(g, play, Coalition([g.agents[0]]), p)
            calls += 1
    assert (calls, len(searches)) == (86, 52)


def test_a_shared_subformula_is_walked_once(set_cap):
    # 2**64 paths through 65 nodes: the guard and blame_nodes must not follow each path.
    g = Game(("a",), ("x", "y"), ("o",), (Play({"a": "x"}, "o"),), {"p": {0}})
    f = parse("B{a} p")
    for _ in range(64):
        f = And(f, f)
    assert [n.coalition for n in blame_nodes(f)] == [Coalition(["a"])]
    assert [members for members, _, _ in blamable_coalitions(g, 0, f).entries] == [("a",)]
    assert blame_witness(g, 0, Coalition(["a"]), f) == Strategy(["a"], {"a": "y"})
    with pytest.raises(ValueError, match=r"agents not in the game: \['ghost'\]"):
        evaluate_all(g, And(f, parse("B{ghost} p")))
    set_cap(1)
    with pytest.raises(StrategySpaceError, match="over the cap 1"):
        evaluate_all(g, f)


def test_one_evaluator_per_game_matches_satisfies(set_cap):
    # One evaluator answers a game's formulas one after another, as a sweep
    # does, raising ones among them.  Every vector must equal the oracle's
    # bit for bit, whatever came before it on this game or on an earlier one.
    games = corpus_games(ACCEPTANCE, 40)
    wide = random_game(GenParams(seed=1, n_agents=4, n_props=4))
    rng = SplitMix64(20261020)
    seen = set()
    for g in games:
        # Over the cap: a B node naming every agent, on a game with two or more.
        set_cap(len(g.actions) ** max(1, len(g.agents) - 1))
        formulas = []
        for k in range(24):
            source = wide if k % 4 == 3 else g
            f = _draw(rng.next64(), k % 5, source, _leaf_table(source))
            formulas.append(f)
            if k % 8 == 5:
                formulas += [Blame(["ghost"], f), Blame(g.agents, f)]
        evaluator = _Evaluator(g)
        answers = [outcome(evaluator.mask, f) for f in formulas]
        for f, got in zip(formulas, answers):
            assert got == outcome(oracle, g, f), f
            seen.add(got[0] if isinstance(got, tuple) else "mask")
        assert [outcome(evaluator.mask, f) for f in formulas[::-1]] == answers[::-1]
    assert seen == {"mask", "agents", "cap"}


def test_the_evaluator_memo_outlives_the_formulas_it_is_given(set_cap):
    # The memo is keyed by node ids and lasts as long as the evaluator.  Each
    # formula here is referenced only by the call argument, so the evaluator
    # must hold it: a freed node's id goes to a new node, which would then read
    # the old vector.  Every tenth formula raises after its left side is folded.
    g = random_game(GenParams(seed=20261019, n_agents=3, n_actions=3, n_plays=10, n_props=3))
    set_cap(len(g.actions) ** (len(g.agents) - 1))  # a B node naming every agent goes over
    leaves, evaluator, rng = _leaf_table(g), _Evaluator(g), SplitMix64(20261019)

    def formula(seed, k):
        f = _draw(seed, k % 5, g, leaves)
        if k % 10 == 3:
            return And(f, Blame(["ghost"], Top()))
        return And(f, Blame(g.agents, Top())) if k % 10 == 7 else f

    seen = set()
    for k in range(2000):
        seed = rng.next64()
        got = outcome(evaluator.mask, formula(seed, k))
        assert got == outcome(oracle, g, formula(seed, k)), (k, seed)
        seen.add(got[0] if isinstance(got, tuple) else "mask")
    assert seen == {"mask", "agents", "cap"}


class TestCoalitionCountGuard:
    @staticmethod
    def game(n_agents, actions=("x", "y")):
        agents = tuple(f"g{k}" for k in range(n_agents))
        plays = tuple(Play({a: x for a in agents}, f"o{k}") for k, x in enumerate(actions))
        return Game(agents, actions, tuple(f"o{k}" for k in range(len(actions))), plays,
                    {"p": frozenset({0})})  # fmt: skip

    def test_many_coalitions_raise_before_any_search(self):
        g = self.game(40)
        t0 = time.perf_counter()
        with pytest.raises(CoalitionCountError, match="over the cap 1048576"):
            blamable_coalitions(g, 0, parse("p"), 10)
        assert time.perf_counter() - t0 < 1.0

    def test_the_count_is_compared_with_cap(self, set_cap):
        g = self.game(4)  # 4 + 6 coalitions of at most 2 agents
        set_cap(10)
        assert len(blamable_coalitions(g, 0, parse("p"), 2).entries) == 10
        set_cap(9)
        with pytest.raises(CoalitionCountError, match="10 coalitions"):
            blamable_coalitions(g, 0, parse("p"), 2)

    def test_reports_that_are_empty_without_a_search_stay_empty(self):
        g = self.game(40)
        assert blamable_coalitions(g, 1, parse("p"), 10).entries == ()  # p false here
        assert blamable_coalitions(g, 0, parse("p"), 0).entries == ()
        # one action: the grand coalition cannot prevent p, so nothing can
        assert blamable_coalitions(self.game(40, ("x",)), 0, parse("p"), 10).entries == ()


class TestStrategySpaceGuard:
    """The per-size strategy-space check, which runs before the empty-report exits."""

    GAME = Game(("c", "a", "b"), ("x", "y"), ("o",),
                (Play(dict.fromkeys("abc", "x"), "o"), Play(dict.fromkeys("abc", "y"), "o")),
                {"p": frozenset({0})})  # fmt: skip

    @pytest.mark.parametrize("play", [0, 1])  # p holds at play 0 only
    def test_a_size_over_the_cap_raises_at_any_play(self, play, set_cap):
        set_cap(4)
        with pytest.raises(StrategySpaceError) as caught:
            blamable_coalitions(self.GAME, play, parse("p"), 3)
        assert str(caught.value) == (
            "strategy space for coalition {a,b,c} has 8 elements, over the cap 4"
        )

    def test_sizes_under_the_cap_leave_the_count_guard(self, set_cap):
        set_cap(4)
        with pytest.raises(CoalitionCountError) as caught:
            blamable_coalitions(self.GAME, 0, parse("p"), 2)
        assert str(caught.value) == "6 coalitions of up to 2 agents, over the cap 4"


@pytest.mark.parametrize("n_agents", [10, 11])
def test_a_coalition_of_exactly_the_cap_is_accepted_on_every_route(n_agents):
    # With 4 actions, 10 agents have 4**10 == STRATEGY_CAP strategies and 11 four times as many.
    assert 4 ** 10 == STRATEGY_CAP
    agents = tuple(f"g{k}" for k in range(n_agents))
    plays = tuple(Play(dict.fromkeys(agents, x), "o") for x in ("x", "y"))
    g = Game(agents, ("x", "y", "z", "u"), ("o",), plays, {"p": frozenset({0})})
    everyone, p = Coalition(agents), parse("p")
    f = Blame(everyone, p)
    routes = {
        "satisfies": lambda: satisfies(g, 1, f),  # p is false at play 1: nothing is enumerated
        "evaluate_all": lambda: evaluate_all(g, f).truth,
        "valid_in_game": lambda: valid_in_game(g, f),
        "blame_witness": lambda: blame_witness(g, 0, everyone, p).choice,
        "blamable_coalitions": lambda: len(blamable_coalitions(g, 0, p, n_agents).entries),
    }
    if n_agents == 10:
        assert {name: route() for name, route in routes.items()} == {
            "satisfies": False,
            "evaluate_all": (True, False),
            "valid_in_game": 1,
            "blame_witness": {**dict.fromkeys(agents, "x"), "g9": "y"},
            "blamable_coalitions": 2 ** 10 - 1,  # any strategy but all x prevents p
        }
        return
    for route in routes.values():
        with pytest.raises(StrategySpaceError, match=r"has 4194304 elements, over the cap 1048576$"):
            route()

import json

import pytest
from hypothesis import given, strategies as st

from blamelogic import (
    Coalition,
    Game,
    GameFormatError,
    GameValidationError,
    Play,
    Strategy,
    load,
    save,
)
from conftest import LOPEZ_DOC, canonical_lopez_bytes, replace, violations


def doc_with(**overrides):
    doc = json.loads(LOPEZ_DOC)
    doc.update(overrides)
    return json.dumps(doc)


class TestLoad:
    def test_lopez_document(self, lopez):
        assert lopez.agents == ("lopez",)
        assert lopez.actions == ("hide", "expose")
        assert lopez.outcomes == ("alive", "dead")
        assert [p.outcome for p in lopez.plays] == ["alive", "alive", "dead"]
        assert lopez.valuation == {"dead": frozenset({2})}

    def test_save_is_canonical_fixpoint(self, lopez):
        blob = save(lopez)
        assert blob == canonical_lopez_bytes()
        assert load(blob) == lopez
        assert save(load(blob)) == blob

    def test_load_accepts_str_and_bytes(self):
        assert load(LOPEZ_DOC) == load(LOPEZ_DOC.decode("utf-8"))

    def test_bad_json(self):
        with pytest.raises(GameFormatError, match="bad JSON"):
            load(b"{")

    def test_top_level_must_be_object(self):
        with pytest.raises(GameFormatError, match="top level"):
            load(b"[1,2]")

    def test_missing_key(self):
        doc = json.loads(LOPEZ_DOC)
        del doc["valuation"]
        with pytest.raises(GameFormatError, match="missing key 'valuation'"):
            load(json.dumps(doc))

    def test_unexpected_key(self):
        with pytest.raises(GameFormatError, match="unexpected key 'extra'"):
            load(doc_with(extra=1))

    def test_agents_must_be_strings(self):
        with pytest.raises(GameFormatError, match="'agents' must be a list of strings"):
            load(doc_with(agents=["lopez", 3]))

    def test_play_shape(self):
        with pytest.raises(GameFormatError, match="play 0"):
            load(doc_with(plays=[{"profile": {}}]))
        with pytest.raises(GameFormatError, match="play 1"):
            load(doc_with(plays=[{"profile": {"lopez": "hide"}, "outcome": "alive"}, 7]))

    def test_valuation_indices_must_be_ints(self):
        with pytest.raises(GameFormatError, match="valuation 'dead'"):
            load(doc_with(valuation={"dead": [True]}))
        with pytest.raises(GameFormatError, match="valuation 'dead'"):
            load(doc_with(valuation={"dead": ["2"]}))

    def test_plays_and_valuation_shapes(self):
        with pytest.raises(GameFormatError, match="^key 'plays' must be a list$"):
            load(doc_with(plays={"0": {"profile": {"lopez": "hide"}, "outcome": "alive"}}))
        with pytest.raises(GameFormatError, match="^key 'valuation' must be an object$"):
            load(doc_with(valuation=[["dead", 2]]))

    def test_profile_actions_must_be_strings(self):
        # a shape error, caught before the Game could call it an unlisted action
        with pytest.raises(GameFormatError, match="^play 0 must be "):
            load(doc_with(plays=[{"profile": {"lopez": 3}, "outcome": "alive"}]))

    def test_validation_failure_collects_violations(self):
        bad = doc_with(
            agents=["lopez", "lopez"],
            valuation={"dead": [9]},
        )
        with pytest.raises(GameValidationError) as exc:
            load(bad)
        assert "duplicate agent 'lopez'" in exc.value.violations
        assert "valuation 'dead': play index out of range: 9" in exc.value.violations


class TestValidate:
    """Building a Game checks it; an invalid one is never built."""

    def test_ok_game_has_no_violations(self, lopez):
        assert replace(lopez) == lopez

    def test_zero_play_game_is_valid(self):
        g = Game(("a",), ("x",), ("w",), (), {})
        assert load(save(g)) == g

    def test_empty_action_set(self):
        assert violations(("a",), (), ("w",), (), {}) == ["empty action set"]

    def test_empty_action_name(self):
        fields = (("a",), ("x", ""), ("w",), (Play({"a": "x"}, "w"),), {})
        assert violations(*fields) == ["invalid action ''"]

    def test_agent_id_shape(self):
        assert violations(("Ana",), ("x",), ("w",), (), {}) == ["invalid agent id 'Ana'"]

    def test_play_references(self):
        plays = (
            Play({"a": "x", "b": "x"}, "w"),
            Play({"a": "z"}, "nope"),
        )
        assert violations(("a",), ("x",), ("w",), plays, {}) == [
            "play 0: unknown agent 'b'",
            "play 1: action 'z' not listed",
            "play 1: outcome 'nope' not listed",
        ]
        # Agent names of mixed types do not compare; the unknown one is still listed.
        plays = (Play({"a": "x", 3: "x"}, "w"),)
        assert violations(("a",), ("x",), ("w",), plays, {}) == ["play 0: unknown agent 3"]

    def test_missing_agent_in_profile(self):
        fields = (("a", "b"), ("x",), ("w",), (Play({"a": "x"}, "w"),), {})
        assert violations(*fields) == ["play 0: profile missing agent 'b'"]

    def test_duplicate_play(self):
        plays = (Play({"a": "x"}, "w"), Play({"a": "x"}, "w"))
        assert violations(("a",), ("x",), ("w",), plays, {}) == ["duplicate play 1"]

    def test_same_profile_different_outcome_is_fine(self):
        plays = (Play({"a": "x"}, "w"), Play({"a": "x"}, "v"))
        g = Game(("a",), ("x",), ("w", "v"), plays, {})
        assert load(save(g)) == g

    def test_proposition_name_shape(self):
        one = (("a",), ("x",), ("w",), (Play({"a": "x"}, "w"),))
        assert violations(*one, {"Dead": [0]}) == ["invalid proposition name 'Dead'"]
        # Names of mixed types do not compare; each bad one is still listed.
        assert violations(*one, {"p": {0}, 3: {0}}) == ["invalid proposition name 3"]
        assert violations(*one, {"p": {0}, 3: {0}, "Q": {1}}) == [
            "invalid proposition name 3",
            "invalid proposition name 'Q'",
            "valuation 'Q': play index out of range: 1",
        ]

    def test_play_index_shape(self):
        two = (("a",), ("x", "y"), ("w",), (Play({"a": "x"}, "w"), Play({"a": "y"}, "w")))
        # save would write True as true, which load refuses.
        assert violations(*two, {"p": {True}}) == ["valuation 'p': play index out of range: True"]
        assert violations(*two, {"p": {-1, 1, 2}}) == [
            "valuation 'p': play index out of range: -1",
            "valuation 'p': play index out of range: 2",
        ]
        assert violations(*two, {"p": {2.5, 9, 0}}) == [
            "valuation 'p': play index out of range: 2.5",
            "valuation 'p': play index out of range: 9",
        ]
        # Indices of mixed types do not compare; each bad one is still listed.
        assert violations(*two, {"p": {0, "z"}}) == ["valuation 'p': play index out of range: z"]
        assert violations(*two, {"p": {0, "z", None}}) == [
            "valuation 'p': play index out of range: None",
            "valuation 'p': play index out of range: z",
        ]

    @pytest.mark.parametrize(
        "fields, expected",
        [
            ((("a",), ("x",), ("w",), (Play({"a": ["x"]}, "w"),)), ["play 0: action ['x'] not listed"]),
            ((("a",), ("x", ["y"]), ("w",)), ["invalid action ['y']"]),
            ((("a",), ("x",), ("w",), (Play({"a": "x"}, ["w"]),)), ["play 0: outcome ['w'] not listed"]),
            ((("a",), ("x",), (["w"],)), ["invalid outcome ['w']"]),
            ((("a",), ("x",), ("w",), (), {"p": 3}),
             ["valuation 'p': not a collection of play indices: 3"]),
            ((("a",), ("x",), ("w",), (), {"p": [[0]]}),
             ["valuation 'p': not a collection of play indices: [[0]]"]),
            (((["a"],), ("x",), ("w",), (Play({"a": "x"}, "w"),)),
             ["invalid agent id ['a']", "play 0: unknown agent 'a'"]),
        ],
    )  # fmt: skip
    def test_unhashable_or_uniterable_values_are_violations(self, fields, expected):
        assert violations(*fields) == expected


class TestStrategy:
    def test_domain_must_match_coalition(self):
        with pytest.raises(ValueError, match="domain must equal"):
            Strategy(Coalition(["a", "b"]), {"a": "x"})
        with pytest.raises(ValueError, match="domain must equal"):
            Strategy(Coalition(["a"]), {"a": "x", "b": "x"})


games_strategy = st.builds(
    lambda n_agents, n_actions, n_outcomes, picks, val: _build_game(
        n_agents, n_actions, n_outcomes, picks, val
    ),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.lists(st.integers(0, 10 ** 6), max_size=10),
    st.lists(st.integers(0, 10 ** 6), max_size=4),
)


def _build_game(n_agents, n_actions, n_outcomes, picks, val):
    agents = ("a", "b", "c")[:n_agents]
    actions = ("x", "y", "z")[:n_actions]
    outcomes = ("w", "v")[:n_outcomes]
    combos = []
    for code in range(n_actions ** n_agents * n_outcomes):
        rest, out = divmod(code, n_outcomes)
        profile = {}
        for agent in agents:
            rest, k = divmod(rest, n_actions)
            profile[agent] = actions[k]
        combos.append(Play(profile, outcomes[out]))
    plays = []
    for pick in picks:
        play = combos[pick % len(combos)]
        if play not in plays:
            plays.append(play)
    valuation = {"p": frozenset(k % len(plays) for k in val) if plays else frozenset()}
    return Game(agents, actions, outcomes, tuple(plays), valuation)


@given(games_strategy)
def test_round_trip_random_games(g):
    blob = save(g)
    assert load(blob) == g
    assert save(load(blob)) == blob


# Each pool mixes valid values with invalid ones.
any_fields = st.tuples(
    st.lists(st.sampled_from(["a", "b", "A", "true", "", 3]), max_size=3),
    st.lists(st.sampled_from(["x", "y", "", 0]), max_size=3),
    st.lists(st.sampled_from(["w", "v", "", None]), max_size=2),
    st.lists(
        st.builds(
            Play,
            st.dictionaries(st.sampled_from(["a", "b", "c", 3]), st.sampled_from(["x", "y", "z", 0])),
            st.sampled_from(["w", "v", "u", None]),
        ),
        max_size=4,
    ),
    st.dictionaries(
        st.sampled_from(["p", "q", "P", "true", 3]),
        st.frozensets(st.one_of(st.integers(-2, 4), st.booleans(), st.sampled_from(["z", 2.5]))),
        max_size=3,
    ),
)


@given(any_fields)
def test_every_game_that_builds_round_trips(fields):
    # Whatever the fields, a Game either is not built, with a reason, or saves and loads back.
    try:
        g = Game(*fields)
    except GameValidationError as e:
        assert e.violations
        return
    assert load(save(g)) == g

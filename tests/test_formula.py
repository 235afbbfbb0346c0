import copy
import dataclasses
import operator
import pickle
import string

import pytest
from hypothesis import given, strategies as st

from blamelogic import (
    And,
    Blame,
    Coalition,
    Iff,
    Implies,
    Necessity,
    Not,
    Or,
    Prop,
    Top,
    possibly,
)
from blamelogic.checker import (
    blamable_coalitions,
    blame_witness,
    evaluate_all,
    satisfies,
    valid_in_game,
)
from blamelogic.formula import Bottom, blame_nodes, check_ident, is_ident, truth_mask
from blamelogic.game import Game, Play, Strategy
from blamelogic.generate import (
    GenParams,
    SplitMix64,
    _draw,
    _leaf_table,
    _sample_subst,
    corpus_games,
    random_formula,
)
from blamelogic.parser import format_formula, parse
from blamelogic.proofs import (
    BUNDLED_NAMES,
    SCHEMAS,
    bundled_script,
    instantiate_schema,
    is_tautology,
)
from conftest import ACCEPTANCE

ONE_PLAY = Game(("a",), ("x",), ("o",), (Play({"a": "x"}, "o"),))


class SubProp(Prop):
    """A node subclass: every route refuses it, as its text would parse back to a Prop."""

    __slots__ = ()


class SubNot(Not):
    __slots__ = ()


# The language [a-z][a-z0-9_]{0,5}, drawn as a head and a tail: much
# faster than st.from_regex on a first run.
IDENT = st.builds(
    operator.add,
    st.sampled_from(string.ascii_lowercase),
    st.text(string.ascii_lowercase + string.digits + "_", max_size=5),
).filter(lambda s: s not in ("true", "false"))


class TestIdentifiers:
    def test_accepts_lowercase_start(self):
        for name in ("p", "lopez", "a1", "outO", "x_y_2"):
            assert is_ident(name)

    def test_rejects_bad_shapes(self):
        for name in ("", "P", "1a", "a-b", "a b", "_x", "true", "false", None, 3):
            assert not is_ident(name)

    def test_check_ident_message_names_the_role(self):
        with pytest.raises(ValueError, match="invalid agent id 'Bob'"):
            check_ident("Bob", "agent id")
        with pytest.raises(ValueError, match="reserved word"):
            check_ident("true", "proposition")

    def test_a_name_that_starts_well_is_told_the_whole_rule(self):
        # A name whose first character is fine hears the rule for the rest;
        # 'Bob' and '1a' keep "must start with a lowercase letter".
        rule = "must be a lowercase letter followed by letters, digits or _"
        with pytest.raises(ValueError) as caught:
            Coalition(["a-b"])
        assert str(caught.value) == f"invalid agent id 'a-b': {rule}"
        with pytest.raises(ValueError, match="'1a': must start with a lowercase letter$"):
            check_ident("1a", "agent id")

    def test_a_proposition_with_a_non_ascii_letter_is_told_the_whole_rule(self):
        with pytest.raises(ValueError) as caught:
            Prop("q\u00e9")
        rule = "must be a lowercase letter followed by letters, digits or _"
        assert str(caught.value) == f"invalid proposition 'q\u00e9': {rule}"
        with pytest.raises(ValueError, match="'\u00e9q': must start with a lowercase letter$"):
            Prop("\u00e9q")


class TestCoalition:
    def test_canonical_order_and_dedup(self):
        assert Coalition(["b", "a", "b"]).members == ("a", "b")
        assert Coalition(("b", "a")) == Coalition(["a", "b", "a"])

    def test_empty(self):
        c = Coalition()
        assert len(c) == 0
        assert list(c) == []
        assert str(c) == "{}"

    def test_set_operations(self):
        ab = Coalition(["a", "b"])
        assert Coalition(["a"]).issubset(ab)
        assert Coalition().issubset(Coalition())
        assert Coalition(["c"]).isdisjoint(ab)
        assert not ab.isdisjoint(Coalition(["b"]))
        assert Coalition(["a"]).union(Coalition(["c", "b"])) == Coalition(["a", "b", "c"])

    def test_membership_and_str(self):
        c = Coalition(["b", "a"])
        assert "a" in c and "z" not in c
        assert str(c) == "{a,b}"

    def test_invalid_member_rejected(self):
        with pytest.raises(ValueError):
            Coalition(["a", "B"])

    def test_a_bare_string_is_refused(self, lopez):
        # Iterating "lopez" would give the coalition {e,l,o,p,z}; each route that
        # builds a coalition from its argument refuses a string instead.
        routes = [
            lambda: Coalition("lopez"),
            lambda: Blame("a", Prop("p")),
            lambda: Strategy("a", {"a": "x"}),
            lambda: instantiate_schema("TruthB", {"phi": Prop("p"), "C": "ab"}),
            lambda: blame_witness(lopez, 2, "lopez", parse("dead")),
        ]
        for route in routes:
            with pytest.raises(ValueError, match="^a coalition takes a collection of agent ids, not '"):
                route()
        assert blame_witness(lopez, 2, ["lopez"], parse("dead")).choice == {"lopez": "hide"}

    def test_hashable_and_frozen(self):
        c = Coalition(["a"])
        assert hash(c) == hash(Coalition(["a"]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.members = ()

    @given(st.lists(IDENT, max_size=6))
    def test_order_insensitive(self, names):
        assert Coalition(names) == Coalition(reversed(names))


class TestNodes:
    def test_prop_validates_name(self):
        with pytest.raises(ValueError):
            Prop("Q")
        with pytest.raises(ValueError):
            Prop("false")

    def test_blame_coerces_iterables(self):
        f = Blame(["b", "a"], Prop("p"))
        assert f.coalition == Coalition(["a", "b"])
        assert Blame(Coalition(["a", "b"]), Prop("p")) == f

    def test_nodes_are_hashable(self):
        f = Implies(Blame(["a"], Prop("p")), Necessity(Not(Top())))
        assert f in {f}

    def test_possibly_is_stored_desugared(self):
        assert possibly(Prop("p")) == Not(Necessity(Not(Prop("p"))))

    def test_equality_distinguishes_connectives(self):
        p, q = Prop("p"), Prop("q")
        assert And(p, q) == And(p, q)
        assert And(p, q) != And(q, p)
        assert And(p, q) != Or(p, q)
        assert Iff(p, q) != Implies(p, q)


def test_truth_mask_folds_connectives_and_asks_atom_for_the_rest():
    p, q, n, b = Prop("p"), Prop("q"), Necessity(Prop("p")), Blame(["a"], Prop("q"))
    vectors = {p: 0b0011, q: 0b0101, n: 0b1000, b: 0b0001}
    asked = []

    def atom(node, _):
        asked.append(node)
        return vectors[node]

    f = Iff(And(p, Not(q)), Or(n, Implies(Top(), Or(b, Bottom()))))
    memo = {}
    # p & !q = 0010, N p | (true -> B q | false) = 1001, iff = !(0010 ^ 1001)
    assert truth_mask(f, 0b1111, atom, memo) == 0b0100
    assert asked == [p, q, n, b]
    # memoised by node identity: a second fold asks nothing
    assert truth_mask(f, 0b1111, atom, memo) == 0b0100
    assert len(asked) == 4
    with pytest.raises(TypeError, match="not a formula"):
        truth_mask(And(p, "q"), 0b1111, atom, {})


ROWWISE = {
    Implies: lambda x, y: not x or y,
    And: lambda x, y: x and y,
    Or: lambda x, y: x or y,
    Iff: lambda x, y: x == y,
}


def rowwise(f, rows, vectors):
    """Truth of f at each row, one row at a time; atom nodes read ``vectors``."""
    if f in vectors:
        return [bool(vectors[f] >> r & 1) for r in range(rows)]
    if isinstance(f, (Top, Bottom)):
        return [isinstance(f, Top)] * rows
    if isinstance(f, Not):
        return [not a for a in rowwise(f.child, rows, vectors)]
    a, b = rowwise(f.left, rows, vectors), rowwise(f.right, rows, vectors)
    return [ROWWISE[type(f)](x, y) for x, y in zip(a, b)]


def test_truth_mask_is_exact_on_random_formulas():
    # Every atom (Prop, N or B node) gets a random vector within full; the
    # fold must then agree with a row-by-row evaluation and stay within full.
    game = Game(("a", "b"), ("x",), ("w",), (), {name: frozenset() for name in ("p", "q", "r")})
    rng = SplitMix64(20261018)
    for k in range(2400):
        f = _draw(rng.next64(), k % 6, game, _leaf_table(game))
        rows = 1 + rng.below(64)
        full = (1 << rows) - 1
        vectors = {}

        def atom(node, _):
            return vectors.setdefault(node, rng.next64() & full)

        m = truth_mask(f, full, atom, {})
        assert m & ~full == 0, (f, rows)
        assert [bool(m >> r & 1) for r in range(rows)] == rowwise(f, rows, vectors), (f, rows)


def facts(f):
    """(agents, widest): the agents the B nodes name and the largest B coalition's size."""
    coalitions = [n.coalition for n in blame_nodes(f)]
    return {a for c in coalitions for a in c}, max(map(len, coalitions), default=0)


def test_agents_mentioned():
    p = Prop("p")
    f = Implies(Blame(["a", "b"], Blame(["c"], p)), Necessity(Blame([], p)))
    assert facts(f)[0] == {"a", "b", "c"}
    assert facts(Necessity(p))[0] == set()


def every_node():
    p = Prop("p")
    return [
        p, Top(), Bottom(), Not(p), Necessity(p), Blame(["b", "a"], p),
        Implies(p, Top()), And(p, Bottom()), Or(Top(), p), Iff(p, Not(p)),
    ]


class TestNodeContract:
    def test_repr_names_every_field(self):
        assert repr(Blame(["a"], Prop("p"))) == (
            "Blame(coalition=Coalition(members=('a',)), child=Prop(name='p'))"
        )
        assert repr(Top()) == "Top()"
        assert repr(Iff(Prop("p"), Not(Bottom()))) == (
            "Iff(left=Prop(name='p'), right=Not(child=Bottom()))"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for node in every_node():
            back = pickle.loads(pickle.dumps(node, protocol))
            assert type(back) is type(node)
            assert back == node and hash(back) == hash(node)
            assert facts(back) == facts(node)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copies_are_equal(self, copier):
        shared = Necessity(Top())
        f = Implies(Blame(["a", "b"], Prop("p")), And(shared, shared))
        for node in every_node() + [f]:
            twin = copier(node)
            assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)
            assert repr(twin) == repr(node)

    def test_structural_equality_and_hash(self):
        for a, b in zip(every_node(), every_node()):
            assert a is not b and a == b and hash(a) == hash(b)
        nodes = every_node()
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                assert a != b
        assert Not(Prop("p")) != Necessity(Prop("p"))
        assert Prop("p") != "p"

    def test_fields_cannot_be_assigned(self):
        f = And(Prop("p"), Blame(["a"], Prop("q")))
        for name in ("left", "right", "agents", "widest", "unknown"):
            with pytest.raises(AttributeError):
                setattr(f, name, Top())
        for node, name in ((Prop("p"), "name"), (Not(Top()), "child"), (Blame([], Top()), "coalition")):
            with pytest.raises(AttributeError):
                setattr(node, name, Top())
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            Top().extra = 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: And(Prop("p"), "q"),
            lambda: Or("q", Prop("p")),
            lambda: Implies(None, None),
            lambda: Iff(Prop("p"), Coalition(["a"])),
            lambda: Not("q"),
            lambda: Necessity(3),
            lambda: Blame(["a"], "q"),
        ],
    )
    def test_non_formula_child_is_a_type_error(self, build):
        with pytest.raises(TypeError, match="not a formula: "):
            build()

    @pytest.mark.parametrize(
        "route",
        [
            lambda f: satisfies(ONE_PLAY, 0, f),
            lambda f: evaluate_all(ONE_PLAY, f),
            lambda f: valid_in_game(ONE_PLAY, f),
            lambda f: blame_witness(ONE_PLAY, 0, Coalition(["a"]), f),
            lambda f: blamable_coalitions(ONE_PLAY, 0, f),
            format_formula,
            is_tautology,
        ],
        ids=[
            "satisfies",
            "evaluate_all",
            "valid_in_game",
            "blame_witness",
            "blamable_coalitions",
            "format_formula",
            "is_tautology",
        ],
    )
    @pytest.mark.parametrize(
        "root",
        ["p", None, 3, SubProp("p"), SubNot(Prop("p"))],
        ids=["p", "None", "3", "SubProp", "SubNot"],
    )
    def test_non_formula_root_is_a_type_error(self, route, root):
        with pytest.raises(TypeError) as caught:
            route(root)
        assert str(caught.value) == f"not a formula: {root!r}"

    @pytest.mark.parametrize(
        "build",
        [
            Not,
            Necessity,
            lambda c: Blame([], c),
            lambda c: And(Prop("p"), c),
            lambda c: Iff(c, Prop("p")),
        ],
        ids=["Not", "Necessity", "Blame", "And", "Iff"],
    )
    @pytest.mark.parametrize(
        "child",
        [Play({"a": "x"}, "o"), Game(("a",), ("x",), ("o",))],
        ids=["Play", "Game"],
    )
    def test_record_child_is_a_type_error(self, build, child):
        # Records are not formulas either, and the message shows which one came.
        with pytest.raises(TypeError) as caught:
            build(child)
        assert str(caught.value).startswith(f"not a formula: {type(child).__name__}(")


def reference_facts(f):
    """(agents, widest) by a walk over the public fields, independent of blame_nodes."""
    agents, widest, stack = set(), 0, [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Blame):
            agents |= set(node.coalition)
            widest = max(widest, len(node.coalition))
        stack.extend(getattr(node, k) for k in ("left", "right", "child") if hasattr(node, k))
    return agents, widest


def test_facts_match_a_walk_on_the_acceptance_corpus():
    rng = SplitMix64(ACCEPTANCE.seed + 61)
    formulas = [bundled_script(name).claim for name in BUNDLED_NAMES]
    for name in BUNDLED_NAMES:
        formulas += [line.formula for line in bundled_script(name).lines]
    for game in corpus_games(ACCEPTANCE, 60):
        for _ in range(6):
            formulas.append(random_formula(GenParams(seed=rng.next64(), formula_depth=6), game))
        for name in sorted(SCHEMAS):
            subst = _sample_subst(rng, ACCEPTANCE, game, name, _leaf_table(game))
            formulas.append(instantiate_schema(name, subst))
    with_blame = 0
    for f in formulas:
        agents, widest = reference_facts(f)
        assert facts(f) == (agents, widest), f
        with_blame += widest > 0
    assert with_blame > len(formulas) // 4  # the corpus does exercise the facts

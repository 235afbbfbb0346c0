import dataclasses

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
    agents_mentioned,
    possibly,
)
from blamelogic.formula import Bottom, check_ident, is_ident, truth_mask

IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in ("true", "false")
)


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
        assert Coalition(["a"]).union(Coalition(["c", "b"])) == Coalition("abc")

    def test_membership_and_str(self):
        c = Coalition(["b", "a"])
        assert "a" in c and "z" not in c
        assert str(c) == "{a,b}"

    def test_invalid_member_rejected(self):
        with pytest.raises(ValueError):
            Coalition(["a", "B"])

    def test_hashable_and_frozen(self):
        c = Coalition(["a"])
        assert hash(c) == hash(Coalition("a"))
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

    def atom(node):
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


def test_agents_mentioned():
    p = Prop("p")
    f = Implies(Blame(["a", "b"], Blame(["c"], p)), Necessity(Blame([], p)))
    assert agents_mentioned(f) == {"a", "b", "c"}
    assert agents_mentioned(Necessity(p)) == set()

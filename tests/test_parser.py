import pytest
from hypothesis import given, settings, strategies as st

from blamelogic import (
    And,
    Blame,
    Bottom,
    Coalition,
    Iff,
    Implies,
    Necessity,
    Not,
    Or,
    ParseError,
    Prop,
    Top,
    format_formula,
    parse,
    possibly,
)

p, q, r = Prop("p"), Prop("q"), Prop("r")


# (text, tree) pairs that must hold in both directions when the text is canonical
CANONICAL = [
    ("p", p),
    ("true", Top()),
    ("false", Bottom()),
    ("!p", Not(p)),
    ("!!p", Not(Not(p))),
    ("N p", Necessity(p)),
    ("<N> p", Not(Necessity(Not(p)))),
    ("B{} p", Blame([], p)),
    ("B{a} p", Blame(["a"], p)),
    ("B{a,b} p", Blame(["a", "b"], p)),
    ("p -> q -> r", Implies(p, Implies(q, r))),
    ("(p -> q) -> r", Implies(Implies(p, q), r)),
    ("p & q & r", And(And(p, q), r)),
    ("p | q | r", Or(Or(p, q), r)),
    ("(p | q) & r", And(Or(p, q), r)),
    ("p | q & r", Or(p, And(q, r))),
    ("p & q -> r", Implies(And(p, q), r)),
    ("p <-> q", Iff(p, q)),
    ("(p <-> q) <-> r", Iff(Iff(p, q), r)),
    ("!p & q", And(Not(p), q)),
    ("!(p & q)", Not(And(p, q))),
    ("N p -> p", Implies(Necessity(p), p)),
    ("B{lopez} dead -> dead", Implies(Blame(["lopez"], Prop("dead")), Prop("dead"))),
    ("N !B{a} (p | q)", Necessity(Not(Blame(["a"], Or(p, q))))),
    ("<N> B{a} p", Not(Necessity(Not(Blame(["a"], p))))),
    ("N (p -> q) -> N p -> N q", Implies(Necessity(Implies(p, q)), Implies(Necessity(p), Necessity(q)))),
]


@pytest.mark.parametrize("text,tree", CANONICAL, ids=[t for t, _ in CANONICAL])
def test_canonical_pairs(text, tree):
    assert parse(text) == tree
    assert format_formula(tree) == text


def test_whitespace_insignificant():
    assert parse("  B { a , b }   p  ") == parse("B{a,b}p")
    assert parse("p->q ->r") == parse("p -> q -> r")


def test_coalition_members_canonicalized():
    assert parse("B{b,a,b} p") == Blame(Coalition(["a", "b"]), p)
    assert format_formula(Blame(["b", "a"], p)) == "B{a,b} p"


def test_possibly_of_box_prints_with_sugar():
    # Not(Necessity(Not(Necessity(p)))) is <N> applied to N p, not !N !N p
    f = possibly(Necessity(p))
    assert format_formula(f) == "<N> N p"
    assert parse("<N> N p") == f
    # any Not(Necessity(Not(...))) shape takes the sugar, however it was typed
    assert parse("!N !!p") == possibly(Not(p))
    assert format_formula(parse("!N !!p")) == "<N> !p"


def test_unary_binds_tighter_than_binary():
    assert parse("N p & q") == And(Necessity(p), q)
    assert parse("B{a} p | q") == Or(Blame(["a"], p), q)
    assert parse("!p -> q") == Implies(Not(p), q)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(",
        "p &",
        "p <-> q <-> r",
        "B p",
        "B{A} p",
        "B{a,} p",
        "N",
        "p q",
        "p -> -> q",
        "()",
        "p)",
        "<M> p",
        "B{true} p",
        "1p",
        "p <- q",
    ],
)
def test_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


# (text, position, expected, found): one row per place that raises ParseError
ERRORS = [
    ("-x", 0, "'->'", "'-'"),
    ("<x", 0, "'<->' or '<N>'", "'<'"),
    ("A", 0, "a token", "'A'"),
    ("é", 0, "a token", "'é'"),
    ("B p", 2, "'{'", "'p'"),
    ("B{a,} p", 4, "an agent id", "'}'"),
    ("B{true} p", 2, "'}'", "'true'"),
    ("(p", 2, "')'", "end of input"),
    ("p q", 2, "end of input", "'q'"),
    ("", 0, "a formula", "end of input"),
    ("p & ", 4, "a formula", "end of input"),
    ("p <-> q <-> r", 8, "end of input", "'<->'"),
    # the whole input is lexed before parsing, so '$' wins over 'q'
    ("p q $", 4, "a token", "'$'"),
]


def test_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse("p & ")
    err = exc.value
    assert err.position == 4
    assert err.found == "end of input"
    assert "at offset 4" in str(err)

    with pytest.raises(ParseError) as exc:
        parse("p <-> q <-> r")
    assert exc.value.position == 8


@pytest.mark.parametrize("text,position,expected,found", ERRORS, ids=[repr(e[0]) for e in ERRORS])
def test_every_error_site(text, position, expected, found):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert (err.position, err.expected, err.found) == (position, expected, found)
    assert str(err) == f"at offset {position}: expected {expected}, found {found}"


def test_keywords_are_not_identifiers():
    assert parse("true") == Top()
    with pytest.raises(ParseError):
        parse("B{false} p")


def _formulas(max_depth):
    leaf = st.sampled_from([p, q, r, Prop("s1"), Top(), Bottom()])
    coalition = st.lists(st.sampled_from(["a", "b", "c", "dg_2"]), max_size=3).map(Coalition)

    def extend(children):
        return st.one_of(
            children.map(Not),
            children.map(Necessity),
            children.map(possibly),
            st.tuples(coalition, children).map(lambda t: Blame(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=2 ** max_depth)


@settings(max_examples=300)
@given(_formulas(6))
def test_round_trip(f):
    text = format_formula(f)
    assert parse(text) == f
    assert format_formula(parse(text)) == text


@settings(max_examples=300)
@given(_formulas(6))
def test_no_redundant_parens(f):
    # stripping any matched pair of printed parentheses must change the tree
    text = format_formula(f)
    opens = [i for i, ch in enumerate(text) if ch == "("]
    for i in opens:
        depth = 0
        for j in range(i, len(text)):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
        stripped = text[:i] + text[i + 1 : j] + text[j + 1 :]
        try:
            other = parse(stripped)
        except ParseError:
            continue
        assert other != f

import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import blamelogic
from blamelogic import (
    And,
    Blame,
    Bottom,
    Coalition,
    Game,
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
from blamelogic import parser
from blamelogic.generate import _draw, _leaf_table
from blamelogic.parser import _MAX_NESTING
from smallscope import _closing

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


# A zero-play game over the alphabet drawn from: agents a, b, c and dg_2, props p, q, r and s1.
_GAME = Game(("a", "b", "c", "dg_2"), ("x",), ("o",), (), dict.fromkeys(("p", "q", "r", "s1"), ()))


def _formulas(depth):
    """``generate._draw`` of a drawn seed: hypothesis shrinks the seed, not the tree."""
    return st.integers(0, 2**64 - 1).map(lambda s: _draw(s, depth, _GAME, _leaf_table(_GAME)))


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
    for i, j in _closing(text).items():
        try:
            other = parse(text[:i] + text[i + 1 : j] + text[j + 1 :])
        except ParseError:
            continue
        assert other != f


def test_printer_properties_on_every_small_formula():
    # Every formula of at most 5 nodes over p, q, true, false, !, N, B{},
    # B{a}, B{a,b} and the four connectives: it round-trips, no pair of its
    # parentheses can go, and "<N>" is never printed as "!N !".
    from smallscope import formulas, printer_faults

    by_size = formulas(5)
    assert [len(level) for level in by_size] == [0, 4, 20, 164, 1_460, 14_148]
    assert printer_faults(f for level in by_size for f in level) == []


def test_identifiers_with_uppercase_or_digit_second_character():
    for name in ("aB", "x_Y9", "pN", "bB1"):
        assert parse(name) == Prop(name)
        assert format_formula(parse(name)) == name
    assert format_formula(parse("B{aB} pN")) == "B{aB} pN"
    assert parse("B{aB} pN") == Blame(["aB"], Prop("pN"))
    assert parse("pNq") == Prop("pNq")
    assert parse("N q") == Necessity(q)


_ATOMS = ("p", "q", "aB", "x_Y9", "pN", "true", "false")
_NOISE = ("<->", "->", "<N>", "(", ")", "{", "}", ",", "!", "&", "|", "N", "B", "p", "a",
          "-", "<", "$", "A", "1", "\u00e9")  # fmt: skip


def _formula_tokens(rng, depth):
    """Tokens of a random well-formed formula, redundant parentheses included."""
    if depth == 0 or rng.random() < 0.3:
        return [rng.choice(_ATOMS)]
    kind = rng.randrange(5)
    if kind == 0:
        return ["(", *_formula_tokens(rng, depth - 1), ")"]
    if kind == 1:
        return [rng.choice(("!", "N", "<N>")), *_formula_tokens(rng, depth - 1)]
    if kind == 2:
        members = [t for m in rng.sample(("a", "b", "cD"), rng.randrange(3)) for t in (",", m)]
        return ["B", "{", *members[1:], "}", *_formula_tokens(rng, depth - 1)]
    op = rng.choice(("<->", "->", "|", "&"))
    return [*_formula_tokens(rng, depth - 1), op, *_formula_tokens(rng, depth - 1)]


def _token_strings(seed, count):
    """Random formulas, half of them with one to three tokens dropped, added or
    replaced, joined by random whitespace (none at all merges neighbours)."""
    rng = random.Random(seed)
    for _ in range(count):
        tokens = _formula_tokens(rng, rng.randrange(5))
        for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
            i = rng.randrange(len(tokens) + 1)
            edit = rng.randrange(3)
            if edit == 0 and i < len(tokens):
                del tokens[i]
            elif edit == 1:
                tokens.insert(i, rng.choice(_NOISE))
            elif i < len(tokens):
                tokens[i] = rng.choice(_NOISE)
        yield "".join(t + rng.choice(("", " ", " ", "  ", "\n")) for t in tokens)


def test_parser_outcomes_are_pinned():
    # The printed tree, or the error's (position, expected, found), for 20,000
    # seeded strings; the digest was taken before the parser was last rewritten.
    outcomes, parsed = [], 0
    for text in _token_strings(20260901, 20_000):
        try:
            outcomes.append(format_formula(parse(text)))
            parsed += 1
        except ParseError as e:
            outcomes.append(repr((e.position, e.expected, e.found)))
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (parsed, digest) == (11_537, "e726c557e30e6be0e185d87051e8d3b2886c79ca9967b7a5812439dbc1949e56")


def test_nesting_bound():
    n = _MAX_NESTING
    assert parse("(" * n + "dead" + ")" * n) == Prop("dead")
    assert parse("!(" * n + "p" + ")" * n) == parse("!" * n + "p")
    for text, offset in [("(" * (n + 1) + "p" + ")" * (n + 1), n), (" (" * (n + 1), 2 * n + 1)]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        err = exc.value
        assert str(err) == "formula nested too deeply"
        assert (err.position, err.found) == (offset, "'('")


def test_prefixes_and_chains_are_not_bounded():
    # 987 prefixes parse from the top of a fresh interpreter's stack, as before
    # the bound; here the test's own frames would take part of that stack.
    code = "from blamelogic import parse; f = parse('!' * 987 + 'p'); print(type(f).__name__)"
    src = str(Path(blamelogic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "Not\n"), done.stderr
    chain = parse(" & ".join(["p"] * 5000))
    assert chain.right == p and chain.left.right == p


def test_lexing_is_linear():
    # A validator that could backtrack would double its time with every
    # character or two in the first three inputs, and take hours on them.  The
    # first bad character is reported before any grammar error; the last three
    # inputs are grammar errors deep in a long input.
    for text, position, expected, found in (
        ("a" * 20_000 + "$", 20_000, "a token", "'$'"),
        ("a " * 20_000 + "$", 40_000, "a token", "'$'"),
        ("p ) " * 20_000 + "$ $", 80_000, "a token", "'$'"),
        ("p & " * 20_000 + ")", 80_000, "a formula", "')'"),
        ("p " * 20_000, 2, "end of input", "'p'"),
        ("p &" * 20_000, 60_000, "a formula", "end of input"),
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert (exc.value.position, exc.value.expected, exc.value.found) == (position, expected, found)


def test_atoms_are_shared_within_one_parse():
    f = parse("p & q -> p | true & true")
    assert f.left.left is f.right.left and f.right.right.left is f.right.right.right
    built = Implies(And(Prop("p"), Prop("q")), Or(Prop("p"), And(Top(), Top())))
    assert f == built and hash(f) == hash(built)
    assert pickle.loads(pickle.dumps(f)) == f
    assert parse("p") is not parse("p")  # nothing is kept between calls


def test_equal_subformulas_are_one_object_within_one_parse():
    f = parse("(p -> q) & (p -> q) | B{b,a} p & B{a,b} p | <N> p & <N> p & !N !p")
    pairs, blames, possibles = f.left.left, f.left.right, f.right
    assert pairs.left is pairs.right
    assert blames.left is blames.right and blames.left.coalition.members == ("a", "b")
    assert possibles.left.left is possibles.left.right is possibles.right
    assert format_formula(possibles.right) == "<N> p"
    assert f == parse(format_formula(f)) and f is not parse(format_formula(f))


def test_a_shared_dag_pickles_and_prints_as_before():
    text = "B{a} (p -> q) & B{a} (p -> q) -> <N> B{a} (p -> q) | <N> B{a} (p -> q)"
    f = parse(text)
    again = pickle.loads(pickle.dumps(f))
    assert again == f and repr(again) == repr(f) and format_formula(again) == text
    assert again.left.left is again.left.right  # pickle keeps the sharing

    def blame():  # a fresh tree per call
        return Blame(["a"], Implies(p, q))

    built = Implies(And(blame(), blame()), Or(possibly(blame()), possibly(blame())))
    assert f == built and hash(f) == hash(built) and repr(f) == repr(built)


@pytest.mark.parametrize("text,position", [("B{é} p", 2), ("B{a,é} p", 4)])
def test_a_non_ascii_agent_id_is_a_lexical_error(text, position):
    # é is lowercase to str.islower(), but starts no token: it is reported as one.
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.position, exc.value.expected, exc.value.found) == (position, "a token", "'é'")


def test_the_lexical_rule_on_every_small_formula():
    # Every printed formula of at most 4 nodes, with " c " put at each token start for
    # each c that starts no token, fails at c, whatever else fails in the text.
    from smallscope import lexical_faults, upto

    formulas = upto(4)
    assert len(formulas) == 1_648
    assert lexical_faults(formulas) == []


def test_a_run_of_prefix_heads_is_read_in_a_loop():
    # 2,000 heads parse in the test's own frames, far past the recursion limit.
    f = parse("!" * 2000 + "p")
    for _ in range(2000):
        assert type(f) is Not
        f = f.child
    assert f == p
    heads = [("!", Not), ("N ", Necessity), ("B{b,a} ", None), ("<N> ", possibly)] * 500
    f = parse("".join(head for head, _ in heads) + "p")
    for head, kind in heads:
        if kind is possibly:
            assert (type(f), type(f.child), type(f.child.child)) == (Not, Necessity, Not)
            f = f.child.child.child
        elif kind is None:
            assert type(f) is Blame and f.coalition.members == ("a", "b")
            f = f.child
        else:
            assert type(f) is kind
            f = f.child
    assert f == p
    assert parse("!" * 3 + "N (p & q)") == Not(Not(Not(Necessity(And(p, q)))))


def test_a_bad_character_comes_before_a_recursion_error():
    # A "->" chain is read in a loop, so parsing runs on to the end of this one; a
    # character that starts no token is reported, as it was when lexing came first.
    with pytest.raises(ParseError) as exc:
        parse("p -> " * 5000 + "p $")
    assert (exc.value.position, exc.value.expected, exc.value.found) == (25_002, "a token", "'$'")


def test_an_implication_chain_is_read_in_a_loop():
    # 5,000 arrows parse in the test's own frames, far past the recursion limit.
    f = parse("p -> " * 5000 + "p")
    for _ in range(5000):
        assert type(f) is Implies and f.left == p
        f = f.right
    assert f == p


def test_an_implication_chain_groups_from_the_right():
    a, b, c, d = (Prop(name) for name in "abcd")
    assert parse("a -> b -> c -> d") == parse("a -> (b -> (c -> d))")
    assert parse("a -> b -> c -> d") == Implies(a, Implies(b, Implies(c, d)))
    assert parse("a | b -> c & d -> a <-> b") == Iff(Implies(Or(a, b), Implies(And(c, d), a)), b)
    # Repeated operands, and a chain whose innermost arrow the table already holds.
    assert parse("p -> q -> p -> q -> p") == Implies(p, Implies(q, Implies(p, Implies(q, p))))
    f = parse("(q -> p) & (p -> q -> p)")
    assert f == And(Implies(q, p), Implies(p, Implies(q, p))) and f.right.right is f.left


def test_b_heads_build_one_coalition_a_table(monkeypatch):
    # B{}'s coalition is falsy: the table must still hand it back, not build another.
    # The parser's Coalition(...) checks the members, then builds through _canonical.
    built, canonical = [], parser.Coalition._canonical

    def counting(cls, members):
        built.append(members)
        return canonical(members)

    monkeypatch.setattr(parser.Coalition, "_canonical", classmethod(counting))
    f = parse("B{} p & B{} q -> B{} (B{b,a} p | B{} B{b,a} q)")
    assert built == [(), ("a", "b")]
    assert f.left.left.coalition is f.left.right.coalition is f.right.coalition
    # The same members in another order are the same coalition.
    built.clear()
    f = parse("B{b,a} p & B{a,b} q")
    assert built == [("a", "b")]
    assert f.left.coalition is f.right.coalition

import json
import random
from pathlib import Path

import pytest

import blamelogic.proofs
from blamelogic import (
    And,
    AtomLimitError,
    Blame,
    Coalition,
    Iff,
    Implies,
    InstantiationError,
    Necessity,
    Not,
    Or,
    ParseError,
    Prop,
    ProofFailure,
    check_proof,
    format_formula,
    instantiate_schema,
    is_tautology,
    parse,
)
from blamelogic.parser import _parse
from blamelogic.proofs import (
    BUNDLED_NAMES,
    MAX_TAUTOLOGY_ATOMS,
    Justification,
    Proof,
    ProofFormatError,
    ProofLine,
    SCHEMAS,
    _column,
    bundled_script,
    dump_proof,
    load_proof,
)
from proof_mutations import mutants

p, q = Prop("p"), Prop("q")
A = Coalition(["a"])


class TestSchemas:
    def test_all_nine_present(self):
        assert sorted(SCHEMAS) == [
            "BlameForCause",
            "Distributivity",
            "Fairness",
            "JointResponsibility",
            "Monotonicity",
            "NegativeIntrospection",
            "NoneToBlame",
            "TruthB",
            "TruthN",
        ]

    @pytest.mark.parametrize(
        "name,subst,text",
        [
            ("TruthN", {"phi": p}, "N p -> p"),
            ("TruthB", {"phi": p, "C": A}, "B{a} p -> p"),
            ("Distributivity", {"phi": p, "psi": q}, "N (p -> q) -> N p -> N q"),
            ("NegativeIntrospection", {"phi": p}, "!N p -> N !N p"),
            ("NoneToBlame", {"phi": q}, "!B{} q"),
            (
                "JointResponsibility",
                {"phi": p, "psi": q, "C": A, "D": Coalition(["b"])},
                "<N> B{a} p & <N> B{b} q -> p | q -> B{a,b} (p | q)",
            ),
            (
                "BlameForCause",
                {"phi": p, "psi": q, "C": A},
                "N (p -> q) -> B{a} q -> p -> B{a} p",
            ),
            ("Monotonicity", {"phi": p, "C": A, "D": Coalition(["a", "b"])}, "B{a} p -> B{a,b} p"),
            ("Fairness", {"phi": p, "C": A}, "B{a} p -> N (p -> B{a} p)"),
        ],
    )
    def test_frozen_instances(self, name, subst, text):
        assert format_formula(instantiate_schema(name, subst)) == text

    def test_repeated_subformulas_are_built_once(self):
        phi = parse("p & B{b} q")
        both = instantiate_schema(
            "JointResponsibility", {"phi": phi, "psi": q, "C": A, "D": Coalition(["b"])}
        )
        assert both.right.right.child is both.right.left
        fair = instantiate_schema("Fairness", {"phi": phi, "C": A})
        assert fair.right.child.right is fair.left
        assert fair == Implies(Blame(A, phi), Necessity(Implies(phi, Blame(A, phi))))
        unknown = instantiate_schema("NegativeIntrospection", {"phi": phi})
        assert unknown.right.child is unknown.left
        assert unknown == Implies(Not(Necessity(phi)), Necessity(Not(Necessity(phi))))

    def test_unknown_schema(self):
        with pytest.raises(InstantiationError, match="unknown schema"):
            instantiate_schema("Truth", {"phi": p})
        # A schema is named, never passed itself; a name that does not hash is unknown too.
        for name in (SCHEMAS["TruthN"], ["TruthN"]):
            with pytest.raises(InstantiationError, match="unknown schema"):
                instantiate_schema(name, {"phi": p})

    def test_missing_and_extra_metavariables(self):
        with pytest.raises(InstantiationError, match="unbound metavariable 'C'"):
            instantiate_schema("TruthB", {"phi": p})
        with pytest.raises(InstantiationError, match="extra metavariable 'D'"):
            instantiate_schema("TruthN", {"phi": p, "D": A})

    def test_side_conditions(self):
        with pytest.raises(InstantiationError, match="C and D overlap"):
            instantiate_schema(
                "JointResponsibility",
                {"phi": p, "psi": q, "C": A, "D": Coalition(["a", "b"])},
            )
        with pytest.raises(InstantiationError, match="C is not a subset of D"):
            instantiate_schema("Monotonicity", {"phi": p, "C": A, "D": Coalition(["b"])})
        # empty C is disjoint from anything, and a subset of everything
        instantiate_schema(
            "JointResponsibility", {"phi": p, "psi": q, "C": Coalition(), "D": A}
        )
        instantiate_schema("Monotonicity", {"phi": p, "C": Coalition(), "D": Coalition()})

    def test_metavariable_values(self):
        with pytest.raises(InstantiationError, match="^TruthB: phi must be a formula$"):
            instantiate_schema("TruthB", {"phi": "p", "C": A})
        instance = instantiate_schema("TruthB", {"phi": p, "C": ["a"]})
        assert instance == instantiate_schema("TruthB", {"phi": p, "C": A})
        assert type(instance.left.coalition) is Coalition

    def test_injective_for_fixed_schema(self):
        seen = {}
        for phi in (p, q, Not(p), And(p, q)):
            for psi in (p, Or(p, q)):
                f = instantiate_schema("BlameForCause", {"phi": phi, "psi": psi, "C": A})
                assert f not in seen
                seen[f] = (phi, psi)


class TestTautology:
    def test_basics(self):
        assert is_tautology(parse("p | !p"))
        assert is_tautology(parse("(p -> q -> r) -> (p -> q) -> p -> r"))
        assert is_tautology(parse("true"))
        assert not is_tautology(parse("false"))
        assert not is_tautology(parse("p"))
        assert not is_tautology(parse("p -> q"))

    def test_modal_subformulas_are_opaque(self):
        # N p -> p is an axiom, not a propositional tautology
        assert not is_tautology(parse("N p -> p"))
        assert not is_tautology(parse("B{a} p -> p"))
        # but a boxed formula is still one atom, usable propositionally
        assert is_tautology(parse("N p -> N p"))
        assert is_tautology(parse("N p & B{a} q -> B{a} q"))
        # syntactically distinct boxes are distinct atoms
        assert not is_tautology(parse("N (p & q) -> N (q & p)"))

    def test_atom_limit(self):
        wide = parse(" | ".join(f"x{i}" for i in range(21)))
        with pytest.raises(AtomLimitError, match="atom-count overflow"):
            is_tautology(wide)
        ok = parse(" | ".join(f"x{i}" for i in range(20)) + " | !x0")
        assert is_tautology(ok)

    def test_atom_columns(self):
        rng = random.Random(20261018)
        for n in range(1, MAX_TAUTOLOGY_ATOMS + 1):
            rows = 1 << n
            sample = {0, rows - 1, *(rng.randrange(rows) for _ in range(64))}
            for i in range(n):
                column = _column(i, rows)
                assert column.bit_count() == rows // 2
                assert column >> rows == 0
                for r in sample:
                    assert column >> r & 1 == r >> i & 1, (n, i, r)
                if n <= 12:  # the closed form by division, quadratic in rows
                    block = 1 << (1 << i)
                    assert column == ((1 << rows) - 1) // (block + 1) * block

    def test_every_small_formula_against_a_truth_table(self):
        # Every formula of at most 5 nodes (see smallscope), against a test-side
        # truth table whose atoms are the Prop, N and B subformulas below no N or B.
        from smallscope import truth_table, upto

        fs = upto(5)
        assert [f for f in fs if is_tautology(f) != truth_table(f)] == []
        assert sum(map(truth_table, fs)) == 1_447  # neither side is constant

    @pytest.mark.parametrize("atoms", [17, 18, 19, 20])
    def test_wide_tautologies(self, atoms):
        # With R any formula and X a conjunction of literals over the first
        # atoms - 1 atoms, and y the last atom: (R & X) -> (R | y) is valid,
        # and (R | X) -> y is not (make X true and y false).
        rng = random.Random(atoms)
        names = [Prop(f"a{i}") for i in range(atoms - 1)]

        def lit(a):
            return Not(a) if rng.random() < 0.5 else a

        items = [lit(a) for a in rng.sample(names, len(names))]
        while len(items) > 1:
            i = rng.randrange(len(items) - 1)
            items[i : i + 2] = [rng.choice((And, Or, Implies, Iff))(items[i], items[i + 1])]
        r, x = items[0], lit(names[0])
        for a in names[1:]:
            x = And(x, lit(a))
        y = Prop(f"a{atoms - 1}")
        assert is_tautology(Implies(And(r, x), Or(r, y)))
        assert not is_tautology(Implies(Or(r, x), y))


class TestKernel:
    def test_empty_proof(self):
        failure = check_proof(Proof((), p, ()))
        assert (failure.line, failure.reason) == (0, "empty proof")

    def test_atom_cap_is_an_error_not_a_failure(self):
        wide = parse(" | ".join(f"x{i}" for i in range(21)) + " | !x0")
        lines = (ProofLine(parse("p | !p"), Justification("taut")), ProofLine(wide, Justification("taut")))
        with pytest.raises(AtomLimitError, match="^line 2: atom-count overflow"):
            check_proof(Proof((), wide, lines))

    def test_hypothesis_line(self):
        good = Proof((p,), p, (ProofLine(p, Justification("hyp", (1,))),))
        assert check_proof(good) is None
        bad_ref = Proof((p,), p, (ProofLine(p, Justification("hyp", (2,))),))
        assert "bad hypothesis reference" in check_proof(bad_ref).reason
        mismatch = Proof((p,), q, (ProofLine(q, Justification("hyp", (1,))),))
        assert "does not match hypothesis 1" in check_proof(mismatch).reason

    def test_nec_under_hypothesis(self):
        bad = Proof(
            (p,),
            Necessity(p),
            (
                ProofLine(p, Justification("hyp", (1,))),
                ProofLine(Necessity(p), Justification("nec", (1,))),
            ),
        )
        failure = check_proof(bad)
        assert str(failure) == "line 2: necessitation under hypothesis"

    def test_nec_over_taut_is_fine_amid_hypotheses(self):
        taut = parse("p | !p")
        proof = Proof(
            (q,),
            Necessity(taut),
            (
                ProofLine(q, Justification("hyp", (1,))),
                ProofLine(taut, Justification("taut")),
                ProofLine(Necessity(taut), Justification("nec", (2,))),
            ),
        )
        assert check_proof(proof) is None

    @pytest.mark.parametrize("refs", [[1, 9], []])
    def test_nec_rejects_bad_references(self, refs):
        script = {
            "hypotheses": [],
            "claim": "N (p | !p)",
            "lines": [
                {"formula": "p | !p", "just": {"kind": "taut"}},
                {"formula": "N (p | !p)", "just": {"kind": "nec", "from": refs}},
            ],
        }
        failure = check_proof(load_proof(json.dumps(script)))
        assert failure == ProofFailure(2, f"bad line reference {refs}")

    def test_mp_checks_shape_and_order(self):
        imp = Implies(p, q)
        lines = (
            ProofLine(p, Justification("hyp", (1,))),
            ProofLine(imp, Justification("hyp", (2,))),
            ProofLine(q, Justification("mp", (1, 2))),
        )
        assert check_proof(Proof((p, imp), q, lines)) is None
        swapped = (
            lines[0],
            lines[1],
            ProofLine(q, Justification("mp", (2, 1))),
        )
        failure = check_proof(Proof((p, imp), q, swapped))
        assert "line 1 is not (line 2 -> this line)" in failure.reason

    def test_forward_references_rejected(self):
        lines = (ProofLine(q, Justification("mp", (1, 2))),)
        assert "bad line reference" in check_proof(Proof((), q, lines)).reason

    def test_unknown_schema_name(self):
        line = ProofLine(p, Justification("axiom", (), "Truth", {"phi": p}))
        assert check_proof(Proof((), p, (line,))) == ProofFailure(1, "unknown schema 'Truth'")
        # A hand-built line may name its schema with any value, even an unhashable one.
        for name in (["x"], None, 3):
            line = ProofLine(p, Justification("axiom", (), name, None))
            assert check_proof(Proof((), p, (line,))) == ProofFailure(1, f"unknown schema {name!r}")

    def test_a_malformed_hand_built_field_fails_its_line(self):
        # No script loads to these values: each must fail line 1, never raise.
        bad_coalitions = [
            ("ab", "a coalition takes a collection of agent ids, not 'ab'"),
            (["Bad"], "invalid agent id 'Bad': must start with a lowercase letter"),
            (5, "'int' object is not iterable"),
            (None, "'NoneType' object is not iterable"),
        ]
        cases = [
            (p, Justification("axiom", (), "TruthN", 5), "TruthN: subst must be a mapping"),
            (p, Justification("axiom", (), "TruthN", "phi"), "TruthN: subst must be a mapping"),
            *((p, Justification("axiom", (), "TruthB", {"phi": p, "C": c}), reason)
              for c, reason in bad_coalitions),
            (p, Justification("hyp", 5), "bad hypothesis reference 5"),
            (p, Justification("mp", None), "bad line reference None"),
            (p, Justification("nec", 5), "bad line reference 5"),
            ("p", Justification("taut"), "formula is not a Formula"),
            ("p", Justification("hyp", (1,)), "formula is not a Formula"),
        ]  # fmt: skip
        for formula, just, reason in cases:
            proof = Proof((formula,), formula, (ProofLine(formula, just),))
            assert check_proof(proof) == ProofFailure(1, reason), (formula, just)

    def test_a_malformed_hand_built_proof_fails_never_raises(self):
        # A field that is not a sequence fails the proof at line 0; a line that
        # is not a ProofLine with a Justification fails that line.
        hyp = ProofLine(p, Justification("hyp", (1,)))
        cases = [
            (Proof((), p, (5,)), 1, "not a ProofLine with a Justification"),
            (Proof((), p, (ProofLine(p, "taut"),)), 1, "not a ProofLine with a Justification"),
            (Proof((), p, (ProofLine(p, None),)), 1, "not a ProofLine with a Justification"),
            (Proof((p,), p, (hyp, 5)), 2, "not a ProofLine with a Justification"),
            (Proof(5, p, (hyp,)), 0, "hypotheses is not a tuple or list"),
            (Proof((), p, 5), 0, "lines is not a tuple or list"),
            (Proof((), p, None), 0, "lines is not a tuple or list"),
        ]
        for proof, line, reason in cases:
            assert check_proof(proof) == ProofFailure(line, reason), proof

    def test_final_line_must_match_claim(self):
        lines = (ProofLine(parse("p | !p"), Justification("taut")),)
        failure = check_proof(Proof((), p, lines))
        assert failure.reason == "final line does not match the claim"

    def test_hypothesis_freeness_propagates_through_mp(self):
        # q&p follows from a hypothesis, so boxing its consequence is out
        hyp = parse("p & q")
        taut = parse("p & q -> q")
        lines = (
            ProofLine(hyp, Justification("hyp", (1,))),
            ProofLine(taut, Justification("taut")),
            ProofLine(q, Justification("mp", (1, 2))),
            ProofLine(Necessity(q), Justification("nec", (3,))),
        )
        failure = check_proof(Proof((hyp,), Necessity(q), lines))
        assert str(failure) == "line 4: necessitation under hypothesis"


EXPECTED_CLAIMS = {
    "lemma1": "B{a} p -> B{a} B{a} p",
    "lemma2": "<N> B{a} p -> p -> B{a} p",
    "lemma3_instance": "B{a} (q | p)",
    "lemma4": "<N> p",
    "lemma5_n2": "B{a,b} (p | q)",
    "lemma5_n3": "B{a,b} (p | q | r)",
    "lemma6_n2": "N (p & q)",
    "lemma6_n3": "N (p & q & r)",
    "lemma7": "N p -> N N p",
    "lemma8_n2": "N (r -> B{a,b} r)",
    "lemma8_n3": "N (p -> B{a,b} p)",
}

EXPECTED_HYPOTHESES = {
    "lemma1": [],
    "lemma2": [],
    "lemma3_instance": ["p | q <-> q | p", "B{a} (p | q)"],
    "lemma4": ["p"],
    "lemma5_n2": ["<N> B{a} p", "<N> B{b} q", "p | q"],
    "lemma5_n3": ["<N> B{a} p", "<N> B{b} q", "<N> B{} r", "p | q | r"],
    "lemma6_n2": ["N p", "N q"],
    "lemma6_n3": ["N p", "N q", "N r"],
    "lemma7": [],
    "lemma8_n2": ["<N> B{a} p", "<N> B{b} q", "N (r -> p | q)"],
    "lemma8_n3": ["<N> B{a} p", "<N> B{b} q", "<N> B{} r", "N (p -> p | q | r)"],
}


class TestBundled:
    def test_catalog(self):
        assert set(BUNDLED_NAMES) == set(EXPECTED_CLAIMS)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_checks_ok(self, name):
        proof = bundled_script(name)
        assert check_proof(proof) is None
        assert format_formula(proof.claim) == EXPECTED_CLAIMS[name]
        assert [format_formula(h) for h in proof.hypotheses] == EXPECTED_HYPOTHESES[name]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            bundled_script("lemma9")

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_round_trips_through_json(self, name):
        proof = bundled_script(name)
        again = load_proof(dump_proof(proof))
        assert again == proof

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_loaded_script_is_canonical(self, name):
        path = Path(blamelogic.proofs.__file__).parent / "data" / "proofs" / f"{name}.json"
        blob = path.read_bytes()
        assert dump_proof(load_proof(blob)) == blob

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_equal_formulas_of_a_script_are_one_object(self, name):
        proof = bundled_script(name)
        assert proof.lines[-1].formula is proof.claim
        mp = 0
        for line in proof.lines:
            refs = line.just.refs
            if line.just.kind == "mp":
                premise, rule = (proof.lines[r - 1].formula for r in refs)
                assert rule.left is premise and rule.right is line.formula
                mp += 1
            elif line.just.kind == "hyp":
                assert line.formula is proof.hypotheses[refs[0] - 1]
            elif line.just.kind == "nec":
                assert line.formula.child is proof.lines[refs[0] - 1].formula
        assert mp > 0

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_a_reference_that_is_not_an_int_is_refused(self, name):
        # True, 1.0 and "1" name no line, however they compare with 1: each
        # reference of each citing line, replaced by one, fails that line.
        proof = bundled_script(name)
        assert check_proof(proof) is None
        cited = 0
        for num, line in enumerate(proof.lines, start=1):
            just, kind = line.just, "hypothesis" if line.just.kind == "hyp" else "line"
            for k, r in enumerate(just.refs):
                for bad in (True, float(r), str(r)):
                    refs = just.refs[:k] + (bad,) + just.refs[k + 1 :]
                    swapped = Justification(just.kind, refs, just.name, just.subst)
                    lines = list(proof.lines)
                    lines[num - 1] = ProofLine(line.formula, swapped)
                    failure = check_proof(Proof(proof.hypotheses, proof.claim, tuple(lines)))
                    assert failure == ProofFailure(num, f"bad {kind} reference {list(refs)}")
                cited += 1
        assert cited

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_mutants_all_rejected(self, name):
        proof = bundled_script(name)
        suite = list(mutants(proof))
        assert len(suite) >= 20
        for label, bad in suite:
            assert check_proof(bad) is not None, f"{name}: {label} slipped through"


class TestScriptFormat:
    def test_load_rejects_bad_shapes(self):
        with pytest.raises(ProofFormatError, match="bad JSON"):
            load_proof(b"{")
        with pytest.raises(ProofFormatError, match="hypotheses, claim, and lines"):
            load_proof(json.dumps({"claim": "p"}))
        with pytest.raises(ProofFormatError, match="line 1: must have formula and just"):
            load_proof(json.dumps({"hypotheses": [], "claim": "p", "lines": [{}]}))
        with pytest.raises(ProofFormatError, match="unknown subst key"):
            load_proof(
                json.dumps(
                    {
                        "hypotheses": [],
                        "claim": "p",
                        "lines": [
                            {
                                "formula": "N p -> p",
                                "just": {"kind": "axiom", "name": "TruthN", "subst": {"chi": "p"}},
                            }
                        ],
                    }
                )
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"claim": 3}, "claim: formula must be a string"),
            ({"hypotheses": "p"}, "hypotheses must be a list"),
            ({"lines": {"1": {}}}, "lines must be a list"),
            ({"hypotheses": ["p", "p ->"]}, "hypothesis 2: "),
            ({"lines": [{"formula": "p", "just": {"kind": "hyp", "from": [True]}}]},
             "line 1: 'from' must be a list of line numbers"),
            ({"lines": [{"formula": "p", "just": {"kind": "hyp", "from": "1"}}]},
             "line 1: 'from' must be a list of line numbers"),
            ({"lines": [{"formula": "p", "just": {"kind": "axiom", "subst": ["p"]}}]},
             "line 1: subst must be an object"),
            ({"lines": [{"formula": "p", "just": {"kind": "axiom", "subst": {"C": "a"}}}]},
             "line 1: subst C must be a list of agent ids"),
            ({"lines": [{"formula": "p", "just": {"kind": "axiom", "subst": {"D": ["a", 1]}}}]},
             "line 1: subst D must be a list of agent ids"),
            ({"lines": [{"formula": "p", "just": {"kind": "axiom", "subst": {"C": ["Bad"]}}}]},
             "line 1: subst C: invalid agent id 'Bad': must start with a lowercase letter"),
            ({"lines": [{"formula": "p", "just": {"kind": "axiom", "subst": {"C": ["true"]}}}]},
             "line 1: subst C: invalid agent id 'true': reserved word"),
        ],
    )  # fmt: skip
    def test_load_guards(self, doc, message):
        script = {"hypotheses": [], "claim": "p", "lines": [], **doc}
        with pytest.raises(ProofFormatError) as caught:
            load_proof(json.dumps(script))
        assert str(caught.value).startswith(message)

    def test_a_subst_agent_id_with_a_bad_later_character_is_told_the_whole_rule(self):
        line = {"formula": "p", "just": {"kind": "axiom", "subst": {"C": ["a b"]}}}
        with pytest.raises(ProofFormatError) as caught:
            load_proof(json.dumps({"hypotheses": [], "claim": "p", "lines": [line]}))
        assert str(caught.value) == (
            "line 1: subst C: invalid agent id 'a b': must be a lowercase letter"
            " followed by letters, digits or _"
        )

    def test_non_utf8_is_a_format_error(self):
        with pytest.raises(ProofFormatError, match="^not UTF-8: "):
            load_proof(b"\xff\xfe")

    def test_parse_errors_are_wrapped(self):
        with pytest.raises(ProofFormatError, match="claim"):
            load_proof(json.dumps({"hypotheses": [], "claim": "p ->", "lines": []}))

    def test_dump_writes_a_coalition_or_an_iterable_as_its_members(self):
        for c in (Coalition(["b", "a"]), ("a", "b"), ["a", "b"]):
            line = ProofLine(p, Justification("axiom", (), "Fairness", {"phi": p, "C": c}))
            doc = json.loads(dump_proof(Proof((), p, (line,))))
            assert doc["lines"][0]["just"]["subst"] == {"phi": "p", "C": ["a", "b"]}

    def test_dump_is_deterministic(self):
        blob = dump_proof(bundled_script("lemma1"))
        assert blob == dump_proof(bundled_script("lemma1"))
        assert blob.endswith(b"\n")


class TestSharedTexts:
    def test_one_text_as_hypothesis_line_and_claim_is_one_object(self):
        text = "B{a} (p -> q) & !N p"
        line = {"formula": text, "just": {"kind": "hyp", "from": [1]}}
        proof = load_proof(json.dumps({"hypotheses": [text], "claim": text, "lines": [line]}))
        assert proof.hypotheses[0] is proof.lines[0].formula is proof.claim
        assert proof.claim == parse(text) and check_proof(proof) is None

    def test_one_member_set_in_any_order_is_one_coalition(self):
        line = {"formula": "B{b,a} p", "just": {"kind": "hyp", "from": [1]}}
        script = {"hypotheses": ["B{b,a} p"], "claim": "B{a,b,a} q", "lines": [line]}
        proof = load_proof(json.dumps(script))
        assert proof.hypotheses[0].coalition is proof.claim.coalition == Coalition(["a", "b"])

    def test_a_text_that_fails_fails_again_with_the_same_message(self):
        nodes: dict = {}
        _parse("p & q", nodes)
        for text in ("p & q $", "p & (q", "B{a,} p", "p &"):
            messages = set()
            for _ in range(2):
                with pytest.raises(ParseError) as caught:
                    _parse(text, nodes)
                messages.add(str(caught.value))
            assert len(messages) == 1 and text not in nodes
        with pytest.raises(ParseError, match="^at offset 6: expected a token, found '\\$'$"):
            _parse("p & q $", nodes)
        line = {"formula": "p $", "just": {"kind": "taut"}}
        script = json.dumps({"hypotheses": ["p $"], "claim": "p", "lines": [line]})
        for _ in range(2):
            with pytest.raises(ProofFormatError, match="^hypothesis 1: at offset 2: expected"):
                load_proof(script)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_one_table_parses_each_text_as_a_fresh_table_does(self, name):
        path = Path(blamelogic.proofs.__file__).parent / "data" / "proofs" / f"{name}.json"
        doc = json.loads(path.read_bytes())
        texts = [*doc["hypotheses"], doc["claim"]]
        for line in doc["lines"]:
            texts.append(line["formula"])
            subst = line["just"].get("subst", {})
            texts += [subst[var] for var in ("phi", "psi") if var in subst]
        shared: dict = {}
        by_text = {}
        for text in texts:
            f = _parse(text, shared)
            fresh = _parse(text, {})
            assert f == fresh and repr(f) == repr(fresh) and format_formula(f) == format_formula(fresh)
            assert by_text.setdefault(text, f) is f  # a repeated text gives back its node
        assert len(by_text) < len(texts)

import hashlib
import json

import pytest

from blamelogic import (
    Blame,
    Necessity,
    Not,
    Prop,
    Top,
    evaluate_all,
    possibly,
    save,
)
from blamelogic.checker import EvalTable
from blamelogic.formula import And, Bottom, Iff, Implies, Or, blame_nodes
from blamelogic.generate import (
    AGENT_ROSTER,
    GenParams,
    PROP_ROSTER,
    SWEEP_SHAPE,
    SplitMix64,
    _SIZES,
    _draw,
    _first_play,
    _leaf_table,
    _sample_subst,
    corpus_games,
    random_formula,
    random_game,
    soundness_sweep,
)
from blamelogic.parser import format_formula
from blamelogic.proofs import SCHEMAS, instantiate_schema
from conftest import ACCEPTANCE


_MASK64, _GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15


def scalar_stream(seed):
    """SplitMix64 one output at a time: the reference for the lane-packed generator."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class TestSplitMix64:
    def test_reference_stream_from_zero(self):
        # published test vectors for this generator
        rng = SplitMix64(0)
        assert [rng.next64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next64() == SplitMix64(0).next64()

    def test_below_and_choice(self):
        rng = SplitMix64(99)
        draws = [rng.below(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7
        rng2 = SplitMix64(99)
        assert [rng2.choice("abcdefg") for _ in range(3)] == [
            "abcdefg"[d] for d in draws[:3]
        ]

    def test_sample_is_distinct_and_complete(self):
        rng = SplitMix64(5)
        got = rng.sample(range(10), 10)
        assert sorted(got) == list(range(10))
        assert len(set(rng.sample(range(50), 12))) == 12

    def test_subset_of_empty(self):
        assert SplitMix64(1).subset([]) == []

    def test_lanes_match_the_scalar_stream(self):
        # 200 outputs cross twelve block boundaries; the seeds include the
        # counter's wrap-around at 2**64 inside the first block.
        draws = SplitMix64(20261019)
        seeds = [0, 1, 1 << 63, _MASK64, (1 << 64) - _GAMMA]
        seeds += [draws.next64() for _ in range(50)]
        for seed in seeds:
            rng, oracle = SplitMix64(seed), scalar_stream(seed)
            assert [rng.next64() for _ in range(200)] == [next(oracle) for _ in range(200)], seed

    def test_subset_reads_the_bit_below_2_reads(self):
        for seed in range(20):
            bits = SplitMix64(seed)
            assert SplitMix64(seed).subset(range(40)) == [x for x in range(40) if bits.below(2)]

    @pytest.mark.parametrize(
        "draw,msg",
        [
            (lambda rng: rng.below(-3), r"^below\(-3\): the bound must be at least 1$"),
            (lambda rng: rng.below(0), r"^below\(0\): the bound must be at least 1$"),
            (lambda rng: rng.choice([]), r"^choice from an empty sequence$"),
            (lambda rng: rng.sample([1, 2], 3), r"^sample of 3 from 2 elements$"),
            (lambda rng: rng.sample([1, 2], -1), r"^sample of -1 from 2 elements$"),
        ],
    )
    def test_empty_ranges_raise_and_draw_nothing(self, draw, msg):
        rng, oracle = SplitMix64(7), scalar_stream(7)
        with pytest.raises(ValueError, match=msg):
            draw(rng)
        assert rng.next64() == next(oracle)


class TestGenParams:
    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1 << 64}, "seed"),
            ({"n_agents": 0}, "n_agents"),
            ({"n_agents": 5}, "n_agents"),
            ({"n_actions": 0}, "n_actions"),
            ({"n_outcomes": 5}, "n_outcomes"),
            ({"n_plays": -1}, "n_plays"),
            ({"n_plays": 17}, "n_plays"),
            ({"n_props": 0}, "n_props"),
            ({"formula_depth": 7}, "formula_depth"),
        ],
    )
    def test_bounds(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            GenParams(**kwargs)

    def test_defaults_are_valid(self):
        GenParams()


class TestRandomGame:
    def test_deterministic(self):
        a = random_game(GenParams(seed=42))
        b = random_game(GenParams(seed=42))
        assert save(a) == save(b)
        assert save(a) != save(random_game(GenParams(seed=43)))

    def test_always_valid(self):
        for seed in range(200):
            # Game raises GameValidationError on an invalid one.
            random_game(GenParams(seed=seed, n_agents=3, n_actions=3,
                                  n_outcomes=2, n_plays=12, n_props=3))

    def test_exact_sizes(self):
        g = random_game(GenParams(seed=1, n_agents=3, n_actions=4, n_outcomes=2,
                                  n_plays=10, n_props=3))
        assert g.agents == AGENT_ROSTER[:3]
        assert len(g.actions) == 4
        assert len(g.outcomes) == 2
        assert len(g.plays) == 10
        assert sorted(g.valuation) == list(PROP_ROSTER[:3])

    def test_zero_plays(self):
        g = random_game(GenParams(seed=3, n_plays=0))
        assert g.plays == ()
        assert all(ix == frozenset() for ix in g.valuation.values())

    def test_play_count_clamps_to_pool(self):
        # 2 agents x 2 actions x 1 outcome leaves only 4 distinct plays
        g = random_game(GenParams(seed=8, n_agents=2, n_actions=2,
                                  n_outcomes=1, n_plays=16))
        assert len(g.plays) == 4

    def test_mechanism_is_a_relation(self):
        # across a few hundred games both shapes must show up: a profile
        # with two outcomes, and a profile with none
        repeated = absent = False
        for seed in range(300):
            g = random_game(GenParams(seed=seed, n_agents=2, n_actions=2,
                                      n_outcomes=3, n_plays=8))
            profiles = [tuple(sorted(p.profile.items())) for p in g.plays]
            if len(profiles) != len(set(profiles)):
                repeated = True
            if len(set(profiles)) < 4:
                absent = True
            if repeated and absent:
                break
        assert repeated and absent


class TestRandomFormula:
    def test_deterministic_and_depth_bounded(self):
        g = random_game(GenParams(seed=11, n_agents=3, n_props=2))
        for seed in range(300):
            params = GenParams(seed=seed, formula_depth=4)
            f = random_formula(params, g)
            assert f == random_formula(params, g)
            assert _depth(f) <= 4
            assert {a for n in blame_nodes(f) for a in n.coalition} <= set(g.agents)

    def test_depth_zero_is_a_leaf(self):
        g = random_game(GenParams(seed=1))
        for seed in range(50):
            f = random_formula(GenParams(seed=seed, formula_depth=0), g)
            assert isinstance(f, (Prop, Top, Bottom))

    def test_props_come_from_the_game(self):
        g = random_game(GenParams(seed=2, n_props=2))
        names = set()
        for seed in range(200):
            names |= _props(random_formula(GenParams(seed=seed), g))
        assert names == {"p", "q"}

    def test_all_connectives_reachable(self):
        g = random_game(GenParams(seed=5, n_agents=2))
        kinds = set()
        for seed in range(400):
            kinds |= {type(n).__name__ for n in _nodes(random_formula(GenParams(seed=seed), g))}
        assert kinds >= {"Prop", "Not", "Implies", "And", "Or", "Iff",
                         "Necessity", "Blame", "Top", "Bottom"}


def _depth(f):
    if isinstance(f, (Prop, Top, Bottom)):
        return 0
    if isinstance(f, (Not, Necessity)):
        return 1 + _depth(f.child)
    if isinstance(f, Blame):
        return 1 + _depth(f.child)
    return 1 + max(_depth(f.left), _depth(f.right))


def _nodes(f):
    yield f
    if isinstance(f, (Not, Necessity, Blame)):
        yield from _nodes(f.child)
    elif isinstance(f, (Implies, And, Or, Iff)):
        yield from _nodes(f.left)
        yield from _nodes(f.right)


def _props(f):
    return {n.name for n in _nodes(f) if isinstance(n, Prop)}


class TestCorpus:
    def test_sweep_corpus_is_reproducible(self):
        params = GenParams(seed=77, n_agents=4, n_actions=3, n_plays=10)
        a = corpus_games(params, 30)
        b = corpus_games(params, 30)
        assert [save(g) for g in a] == [save(g) for g in b]

    def test_sizes_vary_within_bounds(self):
        params = GenParams(seed=123, **SWEEP_SHAPE)
        games = corpus_games(params, 120)
        assert {len(g.agents) for g in games} == {1, 2, 3, 4}
        assert all(len(g.plays) <= 16 for g in games)
        assert any(not g.plays for g in games)

    def test_the_acceptance_corpus_spans_every_game_size(self):
        games = corpus_games(ACCEPTANCE, 500)
        fields = {"n_agents": "agents", "n_actions": "actions", "n_outcomes": "outcomes",
                  "n_plays": "plays", "n_props": "valuation"}  # fmt: skip
        assert fields.keys() == _SIZES.keys()
        for name, field in fields.items():
            counts = {len(getattr(g, field)) for g in games}
            low, high = _SIZES[name]
            if name == "n_plays":  # clamped to the profile x outcome pool: only the ends
                assert (min(counts), max(counts)) == (low, high) == (0, 16)
            else:
                assert counts == set(range(low, high + 1)), name

    def test_agent_a_always_present(self):
        # rosters are prefixes, so singleton games still speak about "a"
        games = corpus_games(GenParams(seed=5, n_agents=4), 50)
        assert all("a" in g.agents for g in games)


def test_schema_instance_stream_is_pinned():
    # The fuzz report holds only counts and failures, so a drift in the
    # drawn instances would not show in it; this digest would.
    params = GenParams(seed=20260822, **SWEEP_SHAPE)
    rng = SplitMix64(params.seed + 7)
    digest = hashlib.sha256()
    for g in corpus_games(params, 200):
        for name in sorted(SCHEMAS):
            for _ in range(5):
                f = instantiate_schema(name, _sample_subst(rng, params, g, name, _leaf_table(g)))
                digest.update((format_formula(f) + "\n").encode())
    assert digest.hexdigest() == (
        "8a5dd1bf3acf5c7cb2913bcce9e39070bffb5f8ae853dd758afc897f758dd8a9"
    )


def reference_draw(rng, depth, props, agents):
    """The draw through SplitMix64's methods, with a new leaf node at every leaf."""
    nodes = (Prop, Not, Implies, And, Or, Iff, Necessity, possibly, Blame)
    kind = rng.choice((Prop, Prop, Prop, Top, Bottom) if depth <= 0 else nodes)
    if kind is possibly and depth >= 3:
        return possibly(reference_draw(rng, depth - 3, props, agents))
    if kind is Prop:
        return Prop(rng.choice(props))
    if kind in (Top, Bottom):
        return kind()
    if kind is Blame:
        return Blame(rng.subset(agents), reference_draw(rng, depth - 1, props, agents))
    if kind in (Not, Necessity, possibly):  # without room for its three nodes, possibly is Not
        return (Necessity if kind is Necessity else Not)(reference_draw(rng, depth - 1, props, agents))
    left = reference_draw(rng, depth - 1, props, agents)
    return kind(left, reference_draw(rng, depth - 1, props, agents))


def test_draws_with_a_shared_or_a_fresh_leaf_table_agree():
    games = corpus_games(GenParams(seed=20260822, **SWEEP_SHAPE), 25)
    tables = [_leaf_table(g) for g in games]
    rng = SplitMix64(20261021)
    for k in range(2000):
        game, leaves, seed = games[k % 25], tables[k % 25], rng.next64()
        for depth in range(7):
            shared = _draw(seed, depth, game, leaves)
            fresh = _draw(seed, depth, game, _leaf_table(game))
            assert shared == fresh and format_formula(shared) == format_formula(fresh)
            props = sorted(game.valuation) or ["p"]
            assert shared == reference_draw(SplitMix64(seed), depth, props, game.agents)


def test_a_sweep_game_has_one_prop_node_per_name():
    drawn = {}

    def hook(game, formula):
        drawn.setdefault(id(game), (game, []))[1].append(formula)  # both kept alive
        return evaluate_all(game, formula)

    soundness_sweep(GenParams(seed=3, n_agents=3, n_props=3), 12, 4, evaluate_all_fn=hook)
    assert len(drawn) == 12
    for _, formulas in drawn.values():
        ids = {}
        for f in formulas:
            for node in _nodes(f):
                if isinstance(node, Prop):
                    ids.setdefault(node.name, set()).add(id(node))
        assert ids and all(len(same) == 1 for same in ids.values())


def test_the_hook_and_the_per_game_evaluator_give_one_report():
    # CI checks the same at 500 games x 20 instances: its hooked-sweep step
    # compares the hooked report's bytes with `fuzz`'s output.
    hooked = soundness_sweep(ACCEPTANCE, 30, 5, evaluate_all_fn=evaluate_all)
    assert json.dumps(hooked, indent=2) == json.dumps(soundness_sweep(ACCEPTANCE, 30, 5), indent=2)
    # A clean sweep never reports a play, so compare the play each route would report.
    rng = SplitMix64(20261022)
    for game in corpus_games(ACCEPTANCE, 30):
        routes = _first_play(game, None), _first_play(game, evaluate_all)
        for k in range(12):
            f = _draw(rng.next64(), k % 5, game, _leaf_table(game))
            for value in (False, True):
                assert routes[0](f, value) == routes[1](f, value), (f, value)


class TestSweep:
    def test_small_sweep_is_clean_and_reproducible(self):
        params = GenParams(seed=9, n_agents=3, n_actions=2, n_outcomes=2,
                           n_plays=8, n_props=2, formula_depth=3)
        a = soundness_sweep(params, 25, 3)
        b = soundness_sweep(params, 25, 3)
        assert a == b
        assert a["failures"] == []
        assert a["games"] == 25
        assert set(a["schema_totals"]) == {
            "BlameForCause", "Distributivity", "Fairness", "JointResponsibility",
            "Monotonicity", "NegativeIntrospection", "NoneToBlame", "TruthB", "TruthN",
        }
        assert all(v == 75 for v in a["schema_totals"].values())
        assert a["extra_totals"]["empty_coalition"] == 75
        assert json.dumps(a)  # report must be JSON-ready as emitted by the CLI

    @pytest.mark.parametrize("games, instances", [(-1, 1), (1, -1)])
    def test_negative_counts_rejected(self, games, instances):
        with pytest.raises(ValueError, match="must not be negative"):
            soundness_sweep(GenParams(seed=1), games, instances)

    @pytest.mark.parametrize("games, instances", [(1.5, 1), (1, 2.0)])
    def test_counts_that_are_not_int_rejected(self, games, instances):
        with pytest.raises(ValueError, match="must not be negative"):
            soundness_sweep(GenParams(seed=1), games, instances)

    @pytest.mark.parametrize("count", [-1, True, 2.0])
    def test_corpus_counts_are_checked_as_the_sweep_checks_them(self, count):
        with pytest.raises(ValueError, match="must not be negative"):
            corpus_games(GenParams(seed=1), count)
        with pytest.raises(ValueError, match="must not be negative"):
            soundness_sweep(GenParams(seed=1), count, 1)

    def test_sweep_catches_a_corrupted_evaluator(self):
        # an evaluator that negates every blame result must light up
        def corrupt(game, formula):
            def walk(f):
                if isinstance(f, Blame):
                    return Not(Blame(f.coalition, walk(f.child)))
                if isinstance(f, (Not, Necessity)):
                    return type(f)(walk(f.child))
                if isinstance(f, (Implies, And, Or, Iff)):
                    return type(f)(walk(f.left), walk(f.right))
                return f
            return EvalTable(formula, evaluate_all(game, walk(formula)).truth)

        params = GenParams(seed=7, n_agents=2, n_actions=2, n_outcomes=2,
                           n_plays=6, n_props=2, formula_depth=3)
        report = soundness_sweep(params, 40, 5, evaluate_all_fn=corrupt)
        assert report["failures"]
        bad = report["failures"][0]
        assert set(bad) == {"game_index", "game", "schema", "formula", "play"}
        # the embedded game document must load back
        from blamelogic import load

        assert save(load(bad["game"])) == bad["game"].encode("utf-8")

    def test_schema_failure_reports_offending_play(self):
        # force a failure by lying only about one schema's shape: claim
        # TruthN instances are false everywhere
        def liar(game, formula):
            table = evaluate_all(game, formula)
            if isinstance(formula, Implies) and isinstance(formula.left, Necessity):
                return EvalTable(formula, tuple(False for _ in table.truth))
            return table

        params = GenParams(seed=4, n_plays=4, formula_depth=2)
        report = soundness_sweep(params, 6, 2, evaluate_all_fn=liar)
        assert any(f["schema"] == "TruthN" for f in report["failures"])
        assert all(f["play"] == 0 for f in report["failures"] if f["schema"] == "TruthN")


def test_necessitation_failure_reports_the_boxed_formula():
    # an evaluator wrong only on N-rooted formulas fails necessitation and nothing else
    def liar(game, formula):
        table = evaluate_all(game, formula)
        if isinstance(formula, Necessity):
            return EvalTable(formula, tuple(False for _ in table.truth))
        return table

    params = GenParams(seed=4, n_plays=4, formula_depth=2)
    report = soundness_sweep(params, 6, 2, evaluate_all_fn=liar)
    failures = report["failures"]
    assert 0 < len(failures) <= report["extra_totals"]["necessitation"]  # none in 0-play games
    for failure in failures:
        assert (failure["schema"], failure["play"]) == ("necessitation", 0)
        assert failure["formula"].startswith("N ")

import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from abeforge.kernel import (
    L2R,
    R2L,
    ClauseInstantiate,
    ClauseLiteralRewrite,
    CloseConflict,
    CloseRefl,
    Environment,
    LiteralElim,
    ProofError,
    ProofScript,
    Rewrite,
    Split,
    _check_refutation_matches_target,
    replay_proof,
    verify_corpus,
    verify_rewrite,
)
from abeforge.statements import Clause, Identity, Literal, clause_form
from abeforge.terms import (
    UNIT,
    Arrow,
    Const,
    Var,
    format_term,
    parse_term,
    positions,
    replace_at,
    substitute,
    subterm_at,
    variables,
)

from conftest import terms
from mutate_util import mutated_script, mutation_sites


def subst(**kw):
    return {v: parse_term(t) for v, t in kw.items()}


@pytest.fixture()
def env(corpus):
    return corpus.environment()


class TestVerifyRewrite:
    def test_expand_with_contraction_axiom(self, env):
        got = verify_rewrite(
            parse_term("x -> y"),
            Rewrite("ax6", subst(x="x -> y", y="z -> x"), "", R2L),
            env,
        )
        assert got == parse_term("((x -> y) -> (z -> x)) -> (x -> y)")

    def test_collapse_at_inner_position(self, env):
        got = verify_rewrite(
            parse_term("(z -> ((x -> y) -> x)) -> (x -> y)"),
            Rewrite("ax6", subst(x="x", y="y"), "LR", L2R),
            env,
        )
        assert got == parse_term("(z -> x) -> (x -> y)")

    def test_ground_collapse_to_unit(self, env):
        consts = ("b", "c")
        got = verify_rewrite(
            parse_term("(c -> b) -> 1", consts),
            Rewrite("ax2", {"x": parse_term("c -> b", consts)}, "", L2R),
            env,
        )
        assert got == UNIT

    def test_source_mismatch_reports_both_terms(self, env):
        with pytest.raises(ProofError) as exc:
            verify_rewrite(parse_term("x -> y"), Rewrite("ax3", subst(x="x"), "", L2R), env)
        assert "expected" in str(exc.value) and "found" in str(exc.value)

    def test_unknown_justification(self, env):
        with pytest.raises(ProofError, match="not verified"):
            verify_rewrite(parse_term("x -> y"), Rewrite("nosuch", {}, "", L2R), env)

    def test_unverified_lemma_rejected(self, env):
        # lem10 is registered but not yet replayed
        with pytest.raises(ProofError, match="not verified"):
            verify_rewrite(parse_term("x -> y"), Rewrite("lem10", subst(x="x", y="y", z="z"), "", L2R), env)

    def test_invalid_position(self, env):
        with pytest.raises(ProofError, match="position"):
            verify_rewrite(parse_term("x -> y"), Rewrite("ax3", subst(x="x"), "LL", L2R), env)

    def test_disequation_hypothesis_cannot_rewrite(self, env):
        hyp = Literal(parse_term("x"), parse_term("1"), False)
        with pytest.raises(ProofError, match="disequation"):
            verify_rewrite(parse_term("x"), Rewrite(0, {}, "", L2R), env, hyps=(hyp,))

    @given(terms(max_leaves=8), st.integers(0, 4))
    def test_step_locality(self, t, seed):
        # a rewrite at position p changes nothing disjoint from p
        from abeforge.corpus import load_corpus

        env = load_corpus().environment()
        rng = random.Random(seed)
        pos = rng.choice(positions(t))
        target = subterm_at(t, pos)
        step = Rewrite("ax6", {"x": target, "y": parse_term("w")}, pos, R2L)
        got = verify_rewrite(t, step, env)
        for p in positions(t):
            if not (p.startswith(pos) or pos.startswith(p)):
                assert subterm_at(got, p) == subterm_at(t, p)


class TestReplayShapes:
    def test_lem10_rewrite_chain(self, corpus, env):
        assert replay_proof(corpus.script("lem10"), env) == corpus.statement("lem10")
        assert env.is_verified("lem10")

    def test_lem14_clause_derivation(self, corpus):
        env = corpus.environment()
        for sid in ("ax5-clause", "lem8a", "lem10", "lem11", "lem12", "lem13"):
            replay_proof(corpus.script(sid), env)
        assert replay_proof(corpus.script("lem14"), env) == corpus.statement("lem14")

    def test_theorem_refutation(self, corpus):
        env = corpus.environment()
        for script in corpus.scripts:
            replay_proof(script, env)
        assert env.is_verified("trans")

    def test_dependency_order_enforced(self, corpus, env):
        with pytest.raises(ProofError, match="dependency"):
            replay_proof(corpus.script("lem13"), env)

    def test_chain_must_reach_target_rhs(self, corpus, env):
        script = corpus.script("lem10")
        truncated = ProofScript(
            script.id, script.target, script.steps[:2], depends_on=script.depends_on
        )
        with pytest.raises(ProofError, match="chain ended"):
            replay_proof(truncated, env)

    def test_replay_is_deterministic(self, corpus):
        r1 = verify_corpus(corpus)
        r2 = verify_corpus(corpus)
        assert r1 == r2

    def test_close_refl_branch(self, corpus):
        # synthetic split clause: x -> x != 1 or x = x; the disequation branch
        # closes by rewriting its lhs to its rhs, the equation branch conflicts
        # a hypothesis directly
        statements = dict(corpus.statements)
        statements["em"] = Clause(
            "em",
            (
                Literal(parse_term("x -> x"), parse_term("1"), False),
                Literal(parse_term("x"), parse_term("x"), True),
            ),
        )
        statements["selfneq"] = Clause(
            "selfneq", (Literal(parse_term("x"), parse_term("x"), True),)
        )
        env = Environment(statements, axioms=("ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "em"))
        script = ProofScript(
            id="selfneq",
            target="selfneq",
            constants=("c",),
            hypotheses=(Literal(parse_term("c", ["c"]), parse_term("c", ["c"]), False),),
            steps=(
                Split(
                    "em",
                    {"x": parse_term("c", ["c"])},
                    branches=(
                        (Rewrite("ax3", {"x": parse_term("c", ["c"])}, "", L2R), CloseRefl()),
                        (CloseConflict(0),),
                    ),
                ),
            ),
            depends_on=("em", "ax3"),
        )
        assert replay_proof(script, env).id == "selfneq"

    def test_refutation_needs_distinct_constants(self, corpus):
        env = corpus.environment()
        for script in corpus.scripts[:-1]:
            replay_proof(script, env)
        thm = corpus.script("thm")
        # collapse the witnesses: replace constant b by a everywhere
        collapsed = ProofScript(
            id=thm.id,
            target=thm.target,
            constants=("a", "c"),
            hypotheses=(
                Literal(parse_term("a -> a", "ac"), UNIT),
                Literal(parse_term("a -> c", "ac"), UNIT),
                Literal(parse_term("a -> c", "ac"), UNIT, False),
            ),
            steps=thm.steps,
            depends_on=thm.depends_on,
        )
        with pytest.raises(ProofError):
            replay_proof(collapsed, env)

    def test_literal_rewrite_side_must_be_l_or_r(self, corpus):
        # ax5 with y := 1 -> z, then 1 -> z collapsed to z on the rhs of literal 0
        # (x = 1 -> z); a first selector other than L or R names no side
        statements = dict(corpus.statements)
        statements["ax5z"] = Clause(
            "ax5z",
            (
                Literal(parse_term("x"), parse_term("z")),
                Literal(parse_term("x -> (1 -> z)"), UNIT, False),
                Literal(parse_term("(1 -> z) -> x"), UNIT, False),
            ),
        )
        env = Environment(statements, axioms=("ax1", "ax5"))

        def script(at):
            return ProofScript(
                id="ax5z",
                target="ax5z",
                steps=(
                    ClauseInstantiate("ax5", subst(y="1 -> z")),
                    ClauseLiteralRewrite(0, "ax1", subst(x="z"), at),
                ),
                depends_on=("ax1", "ax5"),
            )

        with pytest.raises(ProofError, match=r"\[ax5z\] step 1: .*'X'"):
            replay_proof(script("X"), env)
        assert replay_proof(script("R"), env).id == "ax5z"


class TestCorpusReplay:
    def test_full_corpus_verifies(self, corpus):
        report = verify_corpus(corpus)
        assert len(report) == 13
        assert all(status == "verified" for _, status in report)

    def test_corrupted_step_reported_with_script_and_step(self, corpus, corpus_json):
        from abeforge.corpus import _script_from_json

        obj = next(s for s in corpus_json["scripts"] if s["id"] == "lem10")
        obj["steps"][1]["subst"]["y"] = "x"
        bad = _script_from_json(obj)
        env = corpus.environment()
        with pytest.raises(ProofError) as exc:
            replay_proof(bad, env)
        assert exc.value.script == "lem10"
        assert "does not match" in exc.value.message

    def test_failure_halts_and_skips_rest(self, corpus, corpus_json):
        from abeforge.corpus import Corpus, _script_from_json

        obj = next(s for s in corpus_json["scripts"] if s["id"] == "lem10")
        obj["steps"][1]["dir"] = "R2L"
        scripts = tuple(
            _script_from_json(obj) if s.id == "lem10" else s for s in corpus.scripts
        )
        broken = Corpus(corpus.statements, corpus.axiom_systems, corpus.properties, scripts)
        report = dict(verify_corpus(broken))
        assert report["lem8a"] == "verified"
        assert report["lem10"].startswith("failed")
        assert report["lem11"] == "skipped"
        assert report["thm"] == "skipped"


class TestPerturbation:
    def test_seeded_mutations_all_rejected(self, corpus, corpus_json):
        rejected = 0
        total = 0
        messages = []
        rng = random.Random(20240817)
        for script in corpus_json["scripts"]:
            sites = mutation_sites(script)
            for site in sites:
                total += 1
                bad = mutated_script(script, site, rng)
                env = corpus.environment()
                ok = True
                try:
                    for dep in corpus.scripts:
                        if dep.id == script["id"]:
                            replay_proof(bad, env)
                            break
                        replay_proof(dep, env)
                except ProofError as e:
                    ok = False
                    assert e.script == script["id"]
                    messages.append(str(e))
                if not ok:
                    rejected += 1
        assert total == 142
        assert rejected == total
        # every diagnostic, byte for byte
        digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
        assert digest == "c945c08fdeb4d746556eb90d8246cbe087dcd72a4e17279a1400a4f1d722c97d"


def _bind(pattern, subject, binding) -> bool:
    """One-way matching into `binding`, consistent with what it holds."""
    if isinstance(pattern, Var):
        return binding.setdefault(pattern.name, subject) == subject
    if isinstance(pattern, Arrow):
        return (
            isinstance(subject, Arrow)
            and _bind(pattern.left, subject.left, binding)
            and _bind(pattern.right, subject.right, binding)
        )
    return pattern == subject


def reference_refutation_check(constants, target, hyps):
    """The message the refutation check should raise, or None: the first
    ordering of hyps, by position, that instantiates the negated target
    literal by literal under one binding, then the two constant checks."""
    want = [lit.negate() for lit in clause_form(target).literals]
    if len(want) != len(hyps):
        return f"{len(hyps)} hypotheses for a target with {len(want)} clause literals"
    for order in itertools.permutations(range(len(hyps))):
        binding = {}
        if all(
            w.positive == hyps[k].positive and _bind(w.lhs, hyps[k].lhs, binding) and _bind(w.rhs, hyps[k].rhs, binding)
            for w, k in zip(want, order)
        ):
            break
    else:
        return "hypotheses do not instantiate the negation of the target's clause form"
    images = list(binding.values())
    if any(not isinstance(t, Const) or t.name not in constants for t in images):
        return "target variables must map to declared constants"
    if len({t.name for t in images}) != len(images):
        return "target variables must map to pairwise distinct constants"
    return None


CONSTANTS = ("a", "b", "c", "d")


def random_term(rng, leaves, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)
    return Arrow(random_term(rng, leaves, depth - 1), random_term(rng, leaves, depth - 1))


def random_refutation(rng):
    """(declared constants, target, hypotheses): the negated target
    instantiated, shuffled, and sometimes with a side swapped, a polarity
    flipped or a hypothesis dropped."""
    leaves = [Var(v) for v in ("x", "y", "z")] + [UNIT]
    lits = tuple(
        Literal(random_term(rng, leaves), random_term(rng, leaves), rng.random() < 0.5)
        for _ in range(rng.randint(1, 4))
    )
    target = Clause("target", lits)
    images = {}
    for v in sorted(set().union(*(variables(l.lhs) | variables(l.rhs) for l in lits))):
        if rng.random() < 0.1:
            images[v] = random_term(rng, [Const(c) for c in CONSTANTS] + [UNIT], 1)
        else:
            images[v] = Const(rng.choice(CONSTANTS))
    hyps = [Literal(substitute(l.lhs, images), substitute(l.rhs, images), not l.positive) for l in lits]
    rng.shuffle(hyps)
    for i, h in enumerate(hyps):
        edit = rng.random()
        if edit < 0.1:
            hyps[i] = Literal(h.rhs, h.lhs, h.positive)
        elif edit < 0.15:
            hyps[i] = h.negate()
    if rng.random() < 0.05:
        del hyps[rng.randrange(len(hyps))]
    constants = CONSTANTS if rng.random() < 0.8 else tuple(sorted(rng.sample(CONSTANTS, 3)))
    return constants, target, tuple(hyps)


class TestRefutationCheck:
    def test_agrees_with_reference(self):
        rng = random.Random(19)
        outcomes = set()
        for _ in range(3000):
            constants, target, hyps = random_refutation(rng)
            script = ProofScript("p", target.id, (), constants=constants, hypotheses=hyps)
            try:
                _check_refutation_matches_target(script, target, hyps)
                got = None
            except ProofError as e:
                got = e.message
            assert got == reference_refutation_check(constants, target, hyps), (target, hyps)
            outcomes.add(got and re.sub(r"\d+", "N", got))
        # accepted, count mismatch, no instance, non-constant and repeated image
        assert len(outcomes) == 5

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_thm_with_hypotheses_permuted(self, corpus, corpus_json, order):
        from abeforge.corpus import _script_from_json

        obj = next(s for s in corpus_json["scripts"] if s["id"] == "thm")
        new_index = {old: new for new, old in enumerate(order)}
        obj["hypotheses"] = [obj["hypotheses"][old] for old in order]

        def remap(step):
            # index 3 is the assumed equation of a branch, not a hypothesis
            if step["rule"] == "rewrite" and isinstance(step["by"], int) and step["by"] < 3:
                step["by"] = new_index[step["by"]]
            if step["rule"] == "close-conflict":
                step["hypothesis"] = new_index[step["hypothesis"]]
            for branch in step.get("branches", ()):
                for sub in branch:
                    remap(sub)

        for step in obj["steps"]:
            remap(step)
        env = corpus.environment()
        for script in corpus.scripts[:-1]:
            replay_proof(script, env)
        assert replay_proof(_script_from_json(obj), env).id == "trans"

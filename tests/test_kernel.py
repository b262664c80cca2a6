import hashlib
import itertools
import random
import re
from types import MappingProxyType

import pytest
from hypothesis import given
import hypothesis.strategies as st

from abeforge.corpus import Corpus, _script_from_json, corpus_from_json
from abeforge.kernel import (
    L2R,
    R2L,
    ClauseInstantiate,
    ClauseLiteralRewrite,
    CloseConflict,
    CloseRefl,
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
from abeforge.statements import Clause, Literal, clause_form
from abeforge.terms import (
    UNIT,
    Arrow,
    Const,
    Var,
    parse_term,
    substitute,
    subterm_at,
    variables,
)

from conftest import read_corpus_json, replay_mutants, terms
from reference import positions


def subst(**kw):
    return {v: parse_term(t) for v, t in kw.items()}


@pytest.fixture()
def verified(corpus):
    return corpus.axioms()


class TestVerifyRewrite:
    def test_expand_with_contraction_axiom(self, verified):
        got = verify_rewrite(
            parse_term("x -> y"),
            Rewrite("ax6", subst(x="x -> y", y="z -> x"), "", R2L),
            verified,
        )
        assert got == parse_term("((x -> y) -> (z -> x)) -> (x -> y)")

    def test_collapse_at_inner_position(self, verified):
        got = verify_rewrite(
            parse_term("(z -> ((x -> y) -> x)) -> (x -> y)"),
            Rewrite("ax6", subst(x="x", y="y"), "LR", L2R),
            verified,
        )
        assert got == parse_term("(z -> x) -> (x -> y)")

    def test_ground_collapse_to_unit(self, verified):
        consts = ("b", "c")
        got = verify_rewrite(
            parse_term("(c -> b) -> 1", consts),
            Rewrite("ax2", {"x": parse_term("c -> b", consts)}, "", L2R),
            verified,
        )
        assert got == UNIT

    def test_source_mismatch_reports_both_terms(self, verified):
        with pytest.raises(ProofError) as exc:
            verify_rewrite(parse_term("x -> y"), Rewrite("ax3", subst(x="x"), "", L2R), verified)
        assert "expected" in str(exc.value) and "found" in str(exc.value)

    def test_unknown_justification(self, verified):
        with pytest.raises(ProofError, match="not verified"):
            verify_rewrite(parse_term("x -> y"), Rewrite("nosuch", {}, "", L2R), verified)

    def test_unverified_lemma_rejected(self, verified):
        # lem10 is registered but not yet replayed
        with pytest.raises(ProofError, match="not verified"):
            verify_rewrite(parse_term("x -> y"), Rewrite("lem10", subst(x="x", y="y", z="z"), "", L2R), verified)

    def test_invalid_position(self, verified):
        with pytest.raises(ProofError, match="position"):
            verify_rewrite(parse_term("x -> y"), Rewrite("ax3", subst(x="x"), "LL", L2R), verified)

    def test_disequation_hypothesis_cannot_rewrite(self, verified):
        hyp = Literal(parse_term("x"), parse_term("1"), False)
        with pytest.raises(ProofError, match="disequation"):
            verify_rewrite(parse_term("x"), Rewrite(0, {}, "", L2R), verified, hyps=(hyp,))

    @given(terms(max_leaves=8), st.integers(0, 4))
    def test_step_locality(self, t, seed):
        # a rewrite at position p changes nothing disjoint from p
        from abeforge.corpus import load_corpus

        verified = load_corpus().axioms()
        rng = random.Random(seed)
        pos = rng.choice(positions(t))
        target = subterm_at(t, pos)
        step = Rewrite("ax6", {"x": target, "y": parse_term("w")}, pos, R2L)
        got = verify_rewrite(t, step, verified)
        for p in positions(t):
            if not (p.startswith(pos) or pos.startswith(p)):
                assert subterm_at(got, p) == subterm_at(t, p)


class TestReplayShapes:
    def test_lem10_rewrite_chain(self, corpus, verified):
        assert replay_proof(corpus.script("lem10"), corpus.statements, verified) == corpus.statement("lem10")
        assert "lem10" in verified

    def test_lem14_clause_derivation(self, corpus):
        verified = corpus.axioms()
        for sid in ("ax5-clause", "lem8a", "lem10", "lem11", "lem12", "lem13"):
            replay_proof(corpus.script(sid), corpus.statements, verified)
        assert replay_proof(corpus.script("lem14"), corpus.statements, verified) == corpus.statement("lem14")

    def test_theorem_refutation(self, corpus):
        verified = corpus.axioms()
        for script in corpus.scripts:
            replay_proof(script, corpus.statements, verified)
        assert "trans" in verified

    def test_dependency_order_enforced(self, corpus, verified):
        with pytest.raises(ProofError, match="dependency"):
            replay_proof(corpus.script("lem13"), corpus.statements, verified)

    def test_chain_must_reach_target_rhs(self, corpus, verified):
        script = corpus.script("lem10")
        truncated = ProofScript(
            script.id, script.target, script.steps[:2], depends_on=script.depends_on
        )
        with pytest.raises(ProofError, match="chain ended"):
            replay_proof(truncated, corpus.statements, verified)

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
        verified = {sid: statements[sid] for sid in ("ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "em")}
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
        assert replay_proof(script, statements, verified).id == "selfneq"

    def test_refutation_needs_distinct_constants(self, corpus):
        verified = corpus.axioms()
        for script in corpus.scripts[:-1]:
            replay_proof(script, corpus.statements, verified)
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
            replay_proof(collapsed, corpus.statements, verified)

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
        verified = {sid: statements[sid] for sid in ("ax1", "ax5")}

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
            replay_proof(script("X"), statements, verified)
        assert replay_proof(script("R"), statements, verified).id == "ax5z"


def test_close_refl_renders_itself():
    assert CloseRefl().show(2) == ["    close: reflexivity"]


def failing_at_the_end(script: ProofScript) -> ProofScript:
    """The script with a last step that fails after every step before it
    has been checked: an extra rewrite in a bad direction, an extra
    elimination of a literal that does not exist, or a last branch that
    closes on a hypothesis that does not exist."""
    steps = script.steps
    if script.hypotheses:
        split = steps[0]
        *branches, (*chain, _close) = split.branches
        steps = (Split(split.clause, split.substitution, (*branches, (*chain, CloseConflict(99)))),)
    elif isinstance(steps[0], ClauseInstantiate):
        steps += (LiteralElim(99, ()),)
    else:
        steps += (Rewrite("ax1", {}, "", "sideways"),)
    return ProofScript(script.id, script.target, steps, script.constants, script.hypotheses, script.depends_on)


def with_lem10_reversed(corpus, corpus_json) -> Corpus:
    """The corpus with lem10's second rewrite turned R2L, which fails."""
    obj = next(s for s in corpus_json["scripts"] if s["id"] == "lem10")
    obj["steps"][1]["dir"] = "R2L"
    scripts = tuple(_script_from_json(obj) if s.id == "lem10" else s for s in corpus.scripts)
    return Corpus(corpus.statements, corpus.axiom_systems, scripts)


class TestVerifiedDict:
    """The kernel's one state is the dict of verified statements: a script
    that replays adds its target to it, one that fails leaves it as it was,
    and the statements a script's target is looked up in are only read."""

    def test_a_script_failing_at_its_last_step_leaves_verified_as_it_was(self, corpus):
        verified = corpus.axioms()
        for script in corpus.scripts:
            before = dict(verified)
            with pytest.raises(ProofError, match="99|sideways"):
                replay_proof(failing_at_the_end(script), corpus.statements, verified)
            assert verified == before
            replay_proof(script, corpus.statements, verified)

    def test_a_script_missing_a_dependency_leaves_verified_as_it_was(self, corpus):
        verified = corpus.axioms()
        for script in corpus.scripts:
            for dep in script.depends_on:
                without = {sid: st for sid, st in verified.items() if sid != dep}
                before = dict(without)
                with pytest.raises(ProofError, match=re.escape(f"dependency {dep!r} is not verified")):
                    replay_proof(script, corpus.statements, without)
                assert without == before
            replay_proof(script, corpus.statements, verified)

    def test_a_passing_script_adds_exactly_its_target(self, corpus):
        verified = corpus.axioms()
        for script in corpus.scripts:
            before = dict(verified)
            assert replay_proof(script, corpus.statements, verified) == corpus.statement(script.target)
            assert verified == {**before, script.target: corpus.statement(script.target)}

    def test_the_statements_are_never_written(self, corpus):
        snapshot = dict(corpus.statements)
        read_only = MappingProxyType(corpus.statements)  # a write raises TypeError
        verified = corpus.axioms()
        for script in corpus.scripts:
            with pytest.raises(ProofError):
                replay_proof(failing_at_the_end(script), read_only, verified)
            replay_proof(script, read_only, verified)
        verify_corpus(corpus)
        assert corpus.statements == snapshot

    def test_axioms_gives_a_fresh_dict_each_call(self, corpus):
        verified = corpus.axioms()
        replay_proof(corpus.script("lem10"), corpus.statements, verified)
        assert "lem10" not in corpus.axioms()
        assert set(corpus.axioms()) == {"ax1", "ax2", "ax3", "ax4", "ax5", "ax6"}

    def test_two_runs_on_a_failing_corpus_give_one_report(self, corpus, corpus_json):
        broken = with_lem10_reversed(corpus, corpus_json)
        report = verify_corpus(broken)
        assert dict(report)["lem10"].startswith("failed")
        assert verify_corpus(broken) == report


class TestCorpusReplay:
    def test_full_corpus_verifies(self, corpus):
        report = verify_corpus(corpus)
        assert len(report) == 13
        assert all(status == "verified" for _, status in report)

    def test_corrupted_step_reported_with_script_and_step(self, corpus, corpus_json):
        obj = next(s for s in corpus_json["scripts"] if s["id"] == "lem10")
        obj["steps"][1]["subst"]["y"] = "x"
        bad = _script_from_json(obj)
        verified = corpus.axioms()
        with pytest.raises(ProofError) as exc:
            replay_proof(bad, corpus.statements, verified)
        assert exc.value.script == "lem10"
        assert "does not match" in exc.value.message

    def test_failure_halts_and_skips_rest(self, corpus, corpus_json):
        report = dict(verify_corpus(with_lem10_reversed(corpus, corpus_json)))
        assert report["lem8a"] == "verified"
        assert report["lem10"].startswith("failed")
        assert report["lem11"] == "skipped"
        assert report["thm"] == "skipped"


def thm_with(**fields) -> dict:
    """The built-in script thm (as JSON), renamed and with `fields` replaced."""
    thm = next(s for s in read_corpus_json()["scripts"] if s["id"] == "thm")
    return {**thm, "id": "thm2", **fields}


def thm_with_branch(bi: int, branch: list) -> dict:
    """thm2 with branch `bi` of its split replaced by `branch`."""
    split = thm_with()["steps"][0]
    branches = list(split["branches"])
    branches[bi] = branch
    return thm_with(steps=[{**split, "branches": branches}])


def equation(lhs, rhs, polarity="="):
    return {"lhs": lhs, "polarity": polarity, "rhs": rhs}


# x -> y = 1 ==> y -> x = 1, which fails in the 2-element implicative aBE
# algebra; the split on ax3 at a has one branch, which assumes a -> a = 1
CONVERSE = {
    "id": "converse",
    "kind": "quasi",
    "hypotheses": [equation("x -> y", "1")],
    "conclusion": equation("y -> x", "1"),
}


def converse_by(branch: list) -> dict:
    return {
        "id": "converse",
        "target": "converse",
        "constants": ["a", "b"],
        "depends_on": ["ax3"],
        "hypotheses": [equation("a -> b", "1"), equation("b -> a", "1", "!=")],
        "steps": [{"rule": "split", "clause": "ax3", "subst": {"x": "a"}, "branches": [branch]}],
    }


X_TO_ONE = {"rule": "rewrite", "by": "ax3", "subst": {"x": "x"}}

# (statements to add, script, the step and message of the ProofError it raises)
CRAFTED = {
    "rewrite by an absent hypothesis": (
        [], {"id": "h", "target": "ax3", "steps": [{"rule": "rewrite", "by": 0}]},
        0, "no hypothesis with index 0",
    ),
    "empty script": ([], {"id": "z", "target": "ax3", "steps": []}, None, "empty script"),
    "rewrite chain for a clause": (
        [], {"id": "w", "target": "lem8a", "depends_on": ["ax3"], "steps": [X_TO_ONE]},
        None, "rewrite chains only prove identities",
    ),
    "bad direction": (
        [], {"id": "d", "target": "ax3", "depends_on": ["ax3"], "steps": [{**X_TO_ONE, "dir": "up"}]},
        0, "bad direction 'up'",
    ),
    "close step in a rewrite chain": (
        [], {"id": "c", "target": "ax3", "depends_on": ["ax3"], "steps": [X_TO_ONE, {"rule": "close-refl"}]},
        1, "expected a rewrite, got CloseRefl",
    ),
    "rewrite in a clause derivation": (
        [],
        {"id": "r", "target": "ax5", "depends_on": ["ax3", "ax5"],
         "steps": [{"rule": "clause-instantiate", "clause": "ax5"}, X_TO_ONE]},
        1, "step kind Rewrite not allowed in a clause derivation",
    ),
    "elimination chain short of the literal rhs": (
        [],
        {"id": "e", "target": "ax5", "depends_on": ["ax5"],
         "steps": [{"rule": "clause-instantiate", "clause": "ax5", "subst": {"x": "x", "y": "x"}},
                   {"rule": "literal-elim", "literal": 1, "chain": []}]},
        1, "elimination chain ended at 'x -> x', literal rhs is '1'",
    ),
    "hypothesis with a variable": (
        [], thm_with(hypotheses=[equation("x -> b", "1"), equation("b -> c", "1"), equation("a -> c", "1", "!=")]),
        None, "hypothesis 0 is not ground",
    ),
    "refutation of two splits": (
        [], thm_with(steps=thm_with()["steps"] * 2), None, "a refutation is a single case split",
    ),
    "empty branch": ([], thm_with_branch(1, []), "branch 1", "branch has no steps"),
    "close-refl short of the assumed rhs": (
        [], thm_with_branch(1, [{"rule": "close-refl"}]), "branch 1", "chain ended at 'b -> c', assumed rhs is '1'",
    ),
    "conflict chain short of the denied rhs": (
        [], thm_with_branch(0, [{"rule": "close-conflict", "hypothesis": 2}]),
        "branch 0", "chain established a -> c = a -> c, hypothesis 2 denies a -> c = 1",
    ),
    # the two below verified the false converse without their checks
    "close-refl on an assumed equation": (
        [CONVERSE], converse_by([{"rule": "rewrite", "by": 2}, {"rule": "close-refl"}]),
        "branch 0", "close-refl needs an assumed disequation",
    ),
    "chain before a disequation's conflict": (
        [], thm_with_branch(1, [X_TO_ONE, {"rule": "close-conflict", "hypothesis": 1}]),
        "branch 1", "disequation branches close without a chain",
    ),
    "branch without a close step": (
        [CONVERSE], converse_by([{"rule": "rewrite", "by": 2}]),
        "branch 0", "branch must end in a close step, got Rewrite",
    ),
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_script_rejected(case):
    # each script loads, and is replayed after the built-in ones
    statements, script, step, message = CRAFTED[case]
    obj = read_corpus_json()
    obj["statements"] += statements
    obj["scripts"].append(script)
    corpus = corpus_from_json(obj)
    verified = corpus.axioms()
    for built_in in corpus.scripts[:-1]:
        replay_proof(built_in, corpus.statements, verified)
    with pytest.raises(ProofError) as exc:
        replay_proof(corpus.scripts[-1], corpus.statements, verified)
    assert (exc.value.script, exc.value.step, exc.value.message) == (script["id"], step, message)


@pytest.mark.parametrize(
    "step, where",
    [(3, "step 3"), ("step 1 elim.0", "step 1 elim.0"), ("branch 0.2", "branch 0.2"), (None, "script")],
)
def test_each_failure_location_is_named_once(step, where):
    # a step number gets its kind; a location that names its kind is kept
    assert str(ProofError("s", step, "m")) == f"[s] {where}: m"


class TestPerturbation:
    def test_seeded_mutations_all_rejected(self, corpus, corpus_json):
        report = list(replay_mutants(corpus, corpus_json["scripts"], random.Random(20240817), 1))
        assert len(report) == 142
        assert all(status.startswith(f"failed: [{sid}]") for sid, status in report)
        # every diagnostic, byte for byte
        messages = [status.removeprefix("failed: ") for _, status in report]
        digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
        assert digest == "54384c272df63b5062d41fc1828ab4990ba3d45ec75bded45904832564d54ddd"


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
        verified = corpus.axioms()
        for script in corpus.scripts[:-1]:
            replay_proof(script, corpus.statements, verified)
        assert replay_proof(_script_from_json(obj), corpus.statements, verified).id == "trans"

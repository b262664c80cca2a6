"""Proof-script replay: rewrite chains, clause derivations, refutations.

The kernel checks scripts, it never searches.  Rewriting is only ever done
with verified identities and ground hypothesis equations; clauses enter a
proof through explicit instantiation or a single case split.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from ._record import record
from .statements import (
    Clause,
    Identity,
    Literal,
    Statement,
    clause_form,
    clauses_equal,
    instantiate,
    literal_eq,
)
from .terms import (
    Const,
    PositionError,
    Term,
    format_term,
    match_pattern,
    replace_at,
    substitute,
    subterm_at,
    variables,
)

__all__ = [
    "Rewrite",
    "ClauseInstantiate",
    "LiteralElim",
    "ClauseLiteralRewrite",
    "Split",
    "CloseConflict",
    "CloseRefl",
    "ProofScript",
    "Environment",
    "ProofError",
    "verify_rewrite",
    "replay_proof",
    "verify_corpus",
]

L2R = "L2R"
R2L = "R2L"


@record(frozen=True, slots=True)
class Rewrite:
    """Apply one equation (a verified identity or a ground hypothesis) at a position.

    `justification` is a statement id, or an int index into the hypothesis pool.
    """

    justification: Union[str, int]
    substitution: Mapping[str, Term]
    position: str = ""
    direction: str = L2R


@record(frozen=True, slots=True)
class ClauseInstantiate:
    clause: str
    substitution: Mapping[str, Term]


@record(frozen=True, slots=True)
class LiteralElim:
    """Delete a not-equal literal by proving its two sides equal inline."""

    index: int
    chain: tuple[Rewrite, ...]


@record(frozen=True, slots=True)
class ClauseLiteralRewrite:
    """Rewrite inside one literal; the position's first selector picks the side
    (L = literal lhs, R = literal rhs), the rest descends into that term."""

    index: int
    justification: str
    substitution: Mapping[str, Term]
    position: str
    direction: str = L2R


@record(frozen=True, slots=True)
class Split:
    """Case split on an instantiated ground clause; one branch per literal."""

    clause: str
    substitution: Mapping[str, Term]
    branches: tuple[tuple["BranchStep", ...], ...]


@record(frozen=True, slots=True)
class CloseConflict:
    hypothesis: int


@record(frozen=True, slots=True)
class CloseRefl:
    pass


BranchStep = Union[Rewrite, CloseConflict, CloseRefl]
Step = Union[Rewrite, ClauseInstantiate, LiteralElim, ClauseLiteralRewrite, Split]


@record(frozen=True, slots=True)
class ProofScript:
    id: str
    target: str
    steps: tuple[Step, ...]
    constants: tuple[str, ...] = ()
    hypotheses: tuple[Literal, ...] = ()
    depends_on: tuple[str, ...] = ()
    comment: str = ""


class ProofError(Exception):
    """Replay failure, pointing at the script and step that broke."""

    def __init__(self, script: str, step: object, message: str):
        self.script = script
        self.step = step
        self.message = message
        where = f"step {step}" if step is not None else "script"
        super().__init__(f"[{script}] {where}: {message}")


class Environment:
    """Append-only registry of statements, with a verified subset.

    Axioms are admitted as verified up front; everything else gets in only
    through replay_proof.
    """

    def __init__(self, statements: Mapping[str, Statement], axioms: Sequence[str] = ()):
        self._statements = dict(statements)
        self._verified: dict[str, Statement] = {ax: self._statements[ax] for ax in axioms}

    def statement(self, sid: str) -> Statement:
        if sid not in self._statements:
            raise KeyError(f"unknown statement id {sid!r}")
        return self._statements[sid]

    def is_verified(self, sid: str) -> bool:
        return sid in self._verified

    def verified(self, sid: str) -> Statement:
        return self._verified[sid]

    def admit(self, st: Statement):
        self._verified[st.id] = st


def _resolve_equation(
    script_id: str,
    step_no: object,
    step: Rewrite,
    env: Environment,
    hyps: Sequence[Literal],
) -> tuple[Term, Term]:
    """The (source, target) pair of the justifying equation, before direction."""
    just = step.justification
    if isinstance(just, int):
        if not 0 <= just < len(hyps):
            raise ProofError(script_id, step_no, f"no hypothesis with index {just}")
        hyp = hyps[just]
        if not hyp.positive:
            raise ProofError(script_id, step_no, f"hypothesis {just} is a disequation, cannot rewrite with it")
        if step.substitution:
            raise ProofError(script_id, step_no, "hypothesis rewrites take no substitution")
        return hyp.lhs, hyp.rhs
    if not env.is_verified(just):
        raise ProofError(script_id, step_no, f"justification {just!r} is not verified")
    st = env.verified(just)
    if not isinstance(st, Identity):
        raise ProofError(script_id, step_no, f"justification {just!r} is not an identity")
    return st.lhs, st.rhs


def verify_rewrite(
    current: Term,
    step: Rewrite,
    env: Environment,
    hyps: Sequence[Literal] = (),
    script_id: str = "<adhoc>",
    step_no: object = None,
) -> Term:
    """Check one rewrite step against `current` and return the rewritten term."""
    src, dst = _resolve_equation(script_id, step_no, step, env, hyps)
    if step.direction == R2L:
        src, dst = dst, src
    elif step.direction != L2R:
        raise ProofError(script_id, step_no, f"bad direction {step.direction!r}")
    src = substitute(src, step.substitution)
    dst = substitute(dst, step.substitution)
    try:
        found = subterm_at(current, step.position)
    except PositionError as e:
        raise ProofError(script_id, step_no, f"invalid position {step.position!r}: {e}") from e
    if found != src:
        raise ProofError(
            script_id,
            step_no,
            "instantiated source does not match: "
            f"expected {format_term(src)!r}, found {format_term(found)!r}",
        )
    return replace_at(current, step.position, dst)


def _run_chain(
    start: Term,
    chain: Sequence[Rewrite],
    env: Environment,
    hyps: Sequence[Literal],
    script_id: str,
    label: str,
) -> Term:
    cur = start
    for i, st in enumerate(chain):
        if not isinstance(st, Rewrite):
            raise ProofError(script_id, f"{label}.{i}", f"expected a rewrite, got {type(st).__name__}")
        cur = verify_rewrite(cur, st, env, hyps, script_id, f"{label}.{i}")
    return cur


def _replay_identity(script: ProofScript, target: Identity, env: Environment):
    final = _run_chain(target.lhs, script.steps, env, (), script.id, "step")
    if final != target.rhs:
        raise ProofError(
            script.id,
            None,
            f"chain ended at {format_term(final)!r}, target rhs is {format_term(target.rhs)!r}",
        )


def _replay_clause(script: ProofScript, target: Statement, env: Environment):
    steps = script.steps
    first = steps[0]
    if not isinstance(first, ClauseInstantiate):
        raise ProofError(script.id, 0, "clause derivations must start with clause-instantiate")
    if not env.is_verified(first.clause):
        raise ProofError(script.id, 0, f"clause {first.clause!r} is not verified")
    base = env.verified(first.clause)
    literals = list(clause_form(instantiate(base, first.substitution)).literals)

    for no, step in enumerate(steps[1:], start=1):
        if isinstance(step, LiteralElim):
            if not 0 <= step.index < len(literals):
                raise ProofError(script.id, no, f"no literal with index {step.index}")
            lit = literals[step.index]
            if lit.positive:
                raise ProofError(script.id, no, "only not-equal literals can be eliminated")
            final = _run_chain(lit.lhs, step.chain, env, (), script.id, f"step {no} elim")
            if final != lit.rhs:
                raise ProofError(
                    script.id,
                    no,
                    f"elimination chain ended at {format_term(final)!r}, "
                    f"literal rhs is {format_term(lit.rhs)!r}",
                )
            del literals[step.index]
        elif isinstance(step, ClauseLiteralRewrite):
            if not 0 <= step.index < len(literals):
                raise ProofError(script.id, no, f"no literal with index {step.index}")
            if step.position[:1] not in ("L", "R"):
                raise ProofError(
                    script.id, no, f"literal rewrite position {step.position!r} must start with a side (L or R)"
                )
            lit = literals[step.index]
            side, rest = step.position[0], step.position[1:]
            term = lit.lhs if side == "L" else lit.rhs
            rw = Rewrite(step.justification, step.substitution, rest, step.direction)
            new = verify_rewrite(term, rw, env, (), script.id, no)
            if side == "L":
                literals[step.index] = Literal(new, lit.rhs, lit.positive)
            else:
                literals[step.index] = Literal(lit.lhs, new, lit.positive)
        else:
            raise ProofError(script.id, no, f"step kind {type(step).__name__} not allowed in a clause derivation")

    want = clause_form(target).literals
    if not clauses_equal(literals, want):
        got = " or ".join(str(l) for l in literals)
        exp = " or ".join(str(l) for l in want)
        raise ProofError(script.id, None, f"final clause {got!r} differs from target {exp!r}")


def _is_ground(t: Term) -> bool:
    return not variables(t)


def _replay_refutation(script: ProofScript, target: Statement, env: Environment):
    hyps = script.hypotheses
    for i, h in enumerate(hyps):
        if not (_is_ground(h.lhs) and _is_ground(h.rhs)):
            raise ProofError(script.id, None, f"hypothesis {i} is not ground")
    if len(script.steps) != 1 or not isinstance(script.steps[0], Split):
        raise ProofError(script.id, None, "a refutation is a single case split")
    split = script.steps[0]
    if not env.is_verified(split.clause):
        raise ProofError(script.id, 0, f"clause {split.clause!r} is not verified")
    base = env.verified(split.clause)
    literals = clause_form(instantiate(base, split.substitution)).literals
    for lit in literals:
        if not (_is_ground(lit.lhs) and _is_ground(lit.rhs)):
            raise ProofError(script.id, 0, "split clause instance must be ground")
    if len(split.branches) != len(literals):
        raise ProofError(
            script.id, 0, f"split has {len(split.branches)} branches for {len(literals)} literals"
        )
    for bi, (lit, branch) in enumerate(zip(literals, split.branches)):
        _close_branch(script, env, hyps, lit, branch, bi)

    # All branches closed: the split clause is exhaustive, so the assumed
    # hypotheses are contradictory and the target quasi-identity holds.
    _check_refutation_matches_target(script, target, hyps)


def _close_branch(
    script: ProofScript,
    env: Environment,
    hyps: tuple[Literal, ...],
    assumed: Literal,
    branch: tuple[BranchStep, ...],
    bi: int,
):
    label = f"branch {bi}"
    if not branch:
        raise ProofError(script.id, label, "branch has no steps")
    *chain, close = branch
    pool = list(hyps)
    if assumed.positive:
        pool.append(assumed)  # referencable as hypothesis index len(hyps)

    if isinstance(close, CloseRefl):
        if assumed.positive:
            raise ProofError(script.id, label, "close-refl needs an assumed disequation")
        final = _run_chain(assumed.lhs, chain, env, pool, script.id, label)
        if final != assumed.rhs:
            raise ProofError(
                script.id,
                label,
                f"chain ended at {format_term(final)!r}, assumed rhs is {format_term(assumed.rhs)!r}",
            )
        return
    if isinstance(close, CloseConflict):
        j = close.hypothesis
        if not 0 <= j < len(hyps):
            raise ProofError(script.id, label, f"no hypothesis with index {j}")
        hyp = hyps[j]
        if not assumed.positive:
            if chain:
                raise ProofError(script.id, label, "disequation branches close without a chain")
            if not hyp.positive or not literal_eq(hyp, assumed.negate()):
                raise ProofError(
                    script.id,
                    label,
                    f"assumed {assumed} does not conflict hypothesis {j} ({hyp})",
                )
            return
        if hyp.positive:
            raise ProofError(script.id, label, f"hypothesis {j} is an equation, no conflict possible")
        final = _run_chain(hyp.lhs, chain, env, pool, script.id, label)
        if final != hyp.rhs:
            raise ProofError(
                script.id,
                label,
                f"chain established {format_term(hyp.lhs)} = {format_term(final)}, "
                f"hypothesis {j} denies {format_term(hyp.lhs)} = {format_term(hyp.rhs)}",
            )
        return
    raise ProofError(script.id, label, f"branch must end in a close step, got {type(close).__name__}")


def _check_refutation_matches_target(script: ProofScript, target: Statement, hyps: tuple[Literal, ...]):
    """The assumed literals must be exactly: target hypotheses plus negated conclusion,
    with the target's variables replaced one-to-one by the declared constants."""
    want = [lit.negate() for lit in clause_form(target).literals]
    got = list(hyps)
    if len(want) != len(got):
        raise ProofError(
            script.id, None, f"{len(got)} hypotheses for a target with {len(want)} clause literals"
        )
    # One-way check: match each target literal pattern against one hypothesis,
    # accumulating a consistent variable -> constant-term renaming.
    binding: dict[str, Term] = {}

    def try_assign(idx: int) -> bool:
        if idx == len(want):
            return True
        pat = want[idx]
        for k, hyp in enumerate(got):
            if hyp is None or hyp.positive != pat.positive:
                continue
            trial = dict(binding)
            ok = _match_into(pat.lhs, hyp.lhs, trial) and _match_into(pat.rhs, hyp.rhs, trial)
            if not ok:
                continue
            got[k] = None
            saved = dict(binding)
            binding.clear()
            binding.update(trial)
            if try_assign(idx + 1):
                return True
            binding.clear()
            binding.update(saved)
            got[k] = hyp
        return False

    def _match_into(pat: Term, sub: Term, acc: dict[str, Term]) -> bool:
        m = match_pattern(pat, sub)
        if m is None:
            return False
        for v, img in m.items():
            if v in acc and acc[v] != img:
                return False
        acc.update(m)
        return True

    if not try_assign(0):
        raise ProofError(
            script.id,
            None,
            "hypotheses do not instantiate the negation of the target's clause form",
        )
    # The witnesses must be fresh: one distinct declared constant per target
    # variable, or the refutation only covers a special case.
    images = list(binding.values())
    if any(not isinstance(t, Const) or t.name not in script.constants for t in images):
        raise ProofError(script.id, None, "target variables must map to declared constants")
    if len({t.name for t in images}) != len(images):
        raise ProofError(script.id, None, "target variables must map to pairwise distinct constants")


def replay_proof(script: ProofScript, env: Environment) -> Statement:
    """Replay one script; on success the target joins the verified environment."""
    for dep in script.depends_on:
        if not env.is_verified(dep):
            raise ProofError(script.id, None, f"dependency {dep!r} is not verified")
    target = env.statement(script.target)
    if not script.steps:
        raise ProofError(script.id, None, "empty script")
    if script.hypotheses:
        _replay_refutation(script, target, env)
    elif isinstance(script.steps[0], ClauseInstantiate):
        _replay_clause(script, target, env)
    elif isinstance(target, Identity):
        _replay_identity(script, target, env)
    else:
        raise ProofError(script.id, None, "rewrite chains only prove identities")
    env.admit(target)
    return target


def verify_corpus(corpus) -> list[tuple[str, str]]:
    """Replay every script in dependency order.

    Returns [(script id, status)] with status in {"verified", "failed: ...",
    "skipped"}; the first failure halts replay.
    """
    env = corpus.environment()
    report: list[tuple[str, str]] = []
    failed = False
    for script in corpus.scripts:
        if failed:
            report.append((script.id, "skipped"))
            continue
        try:
            replay_proof(script, env)
            report.append((script.id, "verified"))
        except ProofError as e:
            report.append((script.id, f"failed: {e}"))
            failed = True
    return report

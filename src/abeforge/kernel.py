"""Proof-script replay: rewrite chains, clause derivations, refutations.

The kernel checks scripts, it never searches.  Rewriting is only ever done
with verified identities and ground hypothesis equations; clauses enter a
proof through explicit instantiation or a single case split.  Each script
and step record renders itself as `replay --show` prints it.  The kernel's
one state is the dict of verified statements, which only a successful
`replay_proof` extends; `instantiate` works on clause forms.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from ._record import record
from .statements import (
    Identity,
    Literal,
    Statement,
    clause_form,
    clauses_equal,
    instantiate,
    literal_eq,
)
from .terms import (
    UNIT,
    Arrow,
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
    "ProofError",
    "verify_rewrite",
    "replay_proof",
    "verify_corpus",
]

L2R = "L2R"
R2L = "R2L"


def _substitution(step) -> str:
    return ", ".join(f"{v} := {format_term(t)}" for v, t in step.substitution.items())


@record
class Rewrite:
    """Apply one equation (a verified identity or a ground hypothesis) at a position.

    `justification` is a statement id, or an int index into the hypothesis pool.
    """

    justification: Union[str, int]
    substitution: Mapping[str, Term]
    position: str = ""
    direction: str = L2R

    def show(self, indent: int) -> list[str]:
        """The step as `replay --show` prints it, `indent` levels deep."""
        by = f"hyp {self.justification}" if isinstance(self.justification, int) else self.justification
        at = self.position or "root"
        return [f"{'  ' * indent}rewrite {by} [{_substitution(self)}] at {at} {self.direction}"]


@record
class ClauseInstantiate:
    clause: str
    substitution: Mapping[str, Term]

    def show(self, indent: int) -> list[str]:
        return [f"{'  ' * indent}instantiate clause {self.clause} [{_substitution(self)}]"]


@record
class LiteralElim:
    """Delete a not-equal literal by proving its two sides equal inline."""

    index: int
    chain: tuple[Rewrite, ...]

    def show(self, indent: int) -> list[str]:
        lines = [f"{'  ' * indent}eliminate literal {self.index} by:"]
        for step in self.chain:
            lines.extend(step.show(indent + 1))
        return lines


@record
class ClauseLiteralRewrite:
    """Rewrite inside one literal; the position's first selector picks the side
    (L = literal lhs, R = literal rhs), the rest descends into that term."""

    index: int
    justification: str
    substitution: Mapping[str, Term]
    position: str
    direction: str = L2R

    def show(self, indent: int) -> list[str]:
        return [
            f"{'  ' * indent}rewrite literal {self.index} with {self.justification} [{_substitution(self)}] "
            f"at {self.position} {self.direction}"
        ]


@record
class Split:
    """Case split on an instantiated ground clause; one branch per literal."""

    clause: str
    substitution: Mapping[str, Term]
    branches: tuple[tuple["BranchStep", ...], ...]

    def show(self, indent: int) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}split on {self.clause} [{_substitution(self)}]"]
        for i, branch in enumerate(self.branches):
            lines.append(f"{pad}  branch {i}:")
            for step in branch:
                lines.extend(step.show(indent + 2))
        return lines


@record
class CloseConflict:
    hypothesis: int

    def show(self, indent: int) -> list[str]:
        return [f"{'  ' * indent}close: conflicts hypothesis {self.hypothesis}"]


@record
class CloseRefl:
    def show(self, indent: int) -> list[str]:
        return [f"{'  ' * indent}close: reflexivity"]


BranchStep = Union[Rewrite, CloseConflict, CloseRefl]
Step = Union[Rewrite, ClauseInstantiate, LiteralElim, ClauseLiteralRewrite, Split]


@record
class ProofScript:
    id: str
    target: str
    steps: tuple[Step, ...]
    constants: tuple[str, ...] = ()
    hypotheses: tuple[Literal, ...] = ()
    depends_on: tuple[str, ...] = ()
    comment: str = ""

    def show(self, target: Statement) -> list[str]:
        """The script as `replay --show` prints it; `target` is the
        statement with the id it names as its target."""
        lines = [f"script {self.id}  (target {self.target}: {target})"]
        if self.comment:
            lines.append(f"  # {self.comment}")
        if self.constants:
            lines.append(f"  constants: {', '.join(self.constants)}")
        for i, h in enumerate(self.hypotheses):
            lines.append(f"  hypothesis {i}: {h}")
        if self.depends_on:
            lines.append(f"  depends on: {', '.join(self.depends_on)}")
        for step in self.steps:
            lines.extend(step.show(1))
        return lines


class ProofError(Exception):
    """Replay failure, pointing at the script and step that broke: step is
    the number of one of the script's steps, a location that names its own
    kind, such as "branch 0.1", or None for the script as a whole."""

    def __init__(self, script: str, step: object, message: str):
        self.script = script
        self.step = step
        self.message = message
        where = "script" if step is None else f"step {step}" if isinstance(step, int) else step
        super().__init__(f"[{script}] {where}: {message}")


def _resolve_equation(
    script_id: str,
    step_no: object,
    step: Rewrite,
    verified: Mapping[str, Statement],
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
    if just not in verified:
        raise ProofError(script_id, step_no, f"justification {just!r} is not verified")
    st = verified[just]
    if not isinstance(st, Identity):
        raise ProofError(script_id, step_no, f"justification {just!r} is not an identity")
    return st.lhs, st.rhs


def verify_rewrite(
    current: Term,
    step: Rewrite,
    verified: Mapping[str, Statement],
    hyps: Sequence[Literal] = (),
    script_id: str = "<adhoc>",
    step_no: object = None,
) -> Term:
    """Check one rewrite step against `current` and return the rewritten term."""
    src, dst = _resolve_equation(script_id, step_no, step, verified, hyps)
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
    verified: Mapping[str, Statement],
    hyps: Sequence[Literal],
    script_id: str,
    label: Optional[str],
) -> Term:
    """The term that rewriting start along the chain ends at; the chain's
    i-th step is reported as `label.i`, or as step i when label is None and
    the chain is the script's own steps."""
    cur = start
    for i, st in enumerate(chain):
        at = i if label is None else f"{label}.{i}"
        if not isinstance(st, Rewrite):
            raise ProofError(script_id, at, f"expected a rewrite, got {type(st).__name__}")
        cur = verify_rewrite(cur, st, verified, hyps, script_id, at)
    return cur


def _clause_instance(
    script_id: str, step: Union[ClauseInstantiate, Split], verified: Mapping[str, Statement]
) -> tuple[Literal, ...]:
    """The verified clause that step 0 names, instantiated, in clause form."""
    if step.clause not in verified:
        raise ProofError(script_id, 0, f"clause {step.clause!r} is not verified")
    return instantiate(verified[step.clause], step.substitution)


def _replay_clause(script: ProofScript, target: Statement, verified: Mapping[str, Statement]):
    """A clause derivation; `replay_proof` picks it when step 0 is a ClauseInstantiate."""
    literals = list(_clause_instance(script.id, script.steps[0], verified))

    for no, step in enumerate(script.steps[1:], start=1):
        if isinstance(step, LiteralElim):
            if not 0 <= step.index < len(literals):
                raise ProofError(script.id, no, f"no literal with index {step.index}")
            lit = literals[step.index]
            if lit.positive:
                raise ProofError(script.id, no, "only not-equal literals can be eliminated")
            end = _run_chain(lit.lhs, step.chain, verified, (), script.id, f"step {no} elim")
            if end != lit.rhs:
                msg = f"elimination chain ended at {format_term(end)!r}, literal rhs is {format_term(lit.rhs)!r}"
                raise ProofError(script.id, no, msg)
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
            new = verify_rewrite(term, rw, verified, (), script.id, no)
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


def _replay_refutation(script: ProofScript, target: Statement, verified: Mapping[str, Statement]):
    hyps = script.hypotheses
    for i, h in enumerate(hyps):
        if variables(h.lhs) or variables(h.rhs):
            raise ProofError(script.id, None, f"hypothesis {i} is not ground")
    if len(script.steps) != 1 or not isinstance(script.steps[0], Split):
        raise ProofError(script.id, None, "a refutation is a single case split")
    split = script.steps[0]
    literals = _clause_instance(script.id, split, verified)
    for lit in literals:
        if variables(lit.lhs) or variables(lit.rhs):
            raise ProofError(script.id, 0, "split clause instance must be ground")
    if len(split.branches) != len(literals):
        raise ProofError(
            script.id, 0, f"split has {len(split.branches)} branches for {len(literals)} literals"
        )
    for bi, (lit, branch) in enumerate(zip(literals, split.branches)):
        _close_branch(script, verified, hyps, lit, branch, bi)

    # All branches closed: the split clause is exhaustive, so the assumed
    # hypotheses are contradictory and the target quasi-identity holds.
    _check_refutation_matches_target(script, target, hyps)


def _close_branch(
    script: ProofScript,
    verified: Mapping[str, Statement],
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
        end = _run_chain(assumed.lhs, chain, verified, pool, script.id, label)
        if end != assumed.rhs:
            msg = f"chain ended at {format_term(end)!r}, assumed rhs is {format_term(assumed.rhs)!r}"
            raise ProofError(script.id, label, msg)
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
        end = _run_chain(hyp.lhs, chain, verified, pool, script.id, label)
        if end != hyp.rhs:
            lhs = format_term(hyp.lhs)
            msg = f"chain established {lhs} = {format_term(end)}, hypothesis {j} denies {lhs} = {format_term(hyp.rhs)}"
            raise ProofError(script.id, label, msg)
        return
    raise ProofError(script.id, label, f"branch must end in a close step, got {type(close).__name__}")


def _check_refutation_matches_target(script: ProofScript, target: Statement, hyps: tuple[Literal, ...]):
    """The assumed literals must be exactly: target hypotheses plus negated conclusion,
    with the target's variables replaced one-to-one by the declared constants."""
    want = [lit.negate() for lit in clause_form(target).literals]
    if len(want) != len(hyps):
        raise ProofError(
            script.id, None, f"{len(hyps)} hypotheses for a target with {len(want)} clause literals"
        )
    binding = _first_instance(want, hyps)
    if binding is None:
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


def _packed(literals: Sequence[Literal]) -> Term:
    """The sides of the literals as one term, so that one match binds them all."""
    packed: Term = UNIT
    for lit in literals:
        packed = Arrow(packed, Arrow(lit.lhs, lit.rhs))
    return packed


def _first_instance(
    want: Sequence[Literal], got: Sequence[Literal], chosen: tuple[int, ...] = ()
) -> Optional[dict[str, Term]]:
    """The binding of the first ordering of got, by position, that starts
    with chosen and whose i-th literal instantiates want[i] for every i
    under one one-way binding, or None.  An ordering is dropped at its first
    literal of the wrong polarity or that does not match."""
    i = len(chosen)
    binding = match_pattern(_packed(want[:i]), _packed([got[k] for k in chosen]))
    if binding is None or i == len(want):
        return binding
    for k, hyp in enumerate(got):
        if k not in chosen and hyp.positive == want[i].positive:
            found = _first_instance(want, got, chosen + (k,))
            if found is not None:
                return found
    return None


def replay_proof(
    script: ProofScript, statements: Mapping[str, Statement], verified: dict[str, Statement]
) -> Statement:
    """Replay one script; on success, and only then, its target joins `verified`."""
    for dep in script.depends_on:
        if dep not in verified:
            raise ProofError(script.id, None, f"dependency {dep!r} is not verified")
    if script.target not in statements:
        raise KeyError(f"unknown statement id {script.target!r}")
    target = statements[script.target]
    if not script.steps:
        raise ProofError(script.id, None, "empty script")
    if script.hypotheses:
        _replay_refutation(script, target, verified)
    elif isinstance(script.steps[0], ClauseInstantiate):
        _replay_clause(script, target, verified)
    elif isinstance(target, Identity):
        end = _run_chain(target.lhs, script.steps, verified, (), script.id, None)
        if end != target.rhs:
            msg = f"chain ended at {format_term(end)!r}, target rhs is {format_term(target.rhs)!r}"
            raise ProofError(script.id, None, msg)
    else:
        raise ProofError(script.id, None, "rewrite chains only prove identities")
    verified[target.id] = target
    return target


def verify_corpus(corpus) -> list[tuple[str, str]]:
    """Replay every script in dependency order.

    Returns [(script id, status)] with status in {"verified", "failed: ...",
    "skipped"}; the first failure halts replay.
    """
    verified = corpus.axioms()
    report: list[tuple[str, str]] = []
    failed = False
    for script in corpus.scripts:
        if failed:
            report.append((script.id, "skipped"))
            continue
        try:
            replay_proof(script, corpus.statements, verified)
            report.append((script.id, "verified"))
        except ProofError as e:
            report.append((script.id, f"failed: {e}"))
            failed = True
    return report

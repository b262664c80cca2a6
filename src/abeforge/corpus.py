"""The corpus: statements, axiom systems and proof scripts.

The built-in corpus is the file data/corpus.json, which the package reads
as its own corpus.json (a symlink in the source tree, a copy once built).
It loads through the same checks as any other corpus file.  The reader
below (corpus_from_json) is the one owner of the format: nothing writes a
Corpus back to JSON, and `corpus export` copies the built-in file's bytes.

Statement ids: ax1..ax6 (the defining axioms), trans (the transitivity
quasi-identity), lem8a/lem8b and lem10..lem18 (the lemma chain), plus the
model-checkable commutativity identity.  Scripts: one per lemma, the
antisymmetry clause-form note (script id "ax5-clause"), and the concluding
refutation (script id "thm", target "trans") -- 13 in total.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from ._record import record
from .kernel import (
    L2R,
    ClauseInstantiate,
    ClauseLiteralRewrite,
    CloseConflict,
    CloseRefl,
    LiteralElim,
    ProofScript,
    Rewrite,
    Split,
)
from .statements import AxiomSystem, Clause, Identity, Literal, QuasiIdentity, Statement
from .terms import Term, parse_term

__all__ = ["Corpus", "CorpusError", "load_corpus", "corpus_from_json"]

AXIOM_IDS = ("ax1", "ax2", "ax3", "ax4", "ax5", "ax6")
BUILTIN_PATH = Path(__file__).with_name("corpus.json")


class CorpusError(ValueError):
    pass


@record
class Corpus:
    statements: Mapping[str, Statement]
    axiom_systems: Mapping[str, AxiomSystem]
    scripts: tuple[ProofScript, ...]

    def statement(self, sid: str) -> Statement:
        if sid not in self.statements:
            raise CorpusError(f"unknown statement id {sid!r}")
        return self.statements[sid]

    def axiom_system(self, name: str) -> AxiomSystem:
        if name not in self.axiom_systems:
            raise CorpusError(f"unknown axiom system {name!r}")
        return self.axiom_systems[name]

    def script(self, sid: str) -> ProofScript:
        for s in self.scripts:
            if s.id == sid:
                return s
        raise CorpusError(f"unknown script id {sid!r}")

    def axioms(self) -> dict[str, Statement]:
        """A fresh dict of the six axioms, verified before any script replays."""
        return {sid: self.statements[sid] for sid in AXIOM_IDS}


def load_corpus(path: str | None = None) -> Corpus:
    """The corpus in a file of the exchange format; by default the built-in one."""
    try:
        with open(BUILTIN_PATH if path is None else path, "r", encoding="utf-8") as fh:
            return corpus_from_json(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorpusError(f"cannot read corpus file: {e}") from e
    except RecursionError as e:
        # the JSON decoder and the term parser recurse once per level
        raise CorpusError("corpus file is nested too deeply") from e


def _validate(corpus: Corpus):
    for sid in AXIOM_IDS:
        if sid not in corpus.statements:
            raise CorpusError(f"missing axiom {sid!r}")
    for name, system in corpus.axiom_systems.items():
        for sid in system.members:
            if sid not in corpus.statements:
                raise CorpusError(f"axiom system {name!r} references unknown id {sid!r}")
    seen: set[str] = set(AXIOM_IDS)
    script_ids: set[str] = set()
    for script in corpus.scripts:
        if script.id in script_ids:
            raise CorpusError(f"duplicate script id {script.id!r}")
        script_ids.add(script.id)
        if script.target not in corpus.statements:
            raise CorpusError(f"script {script.id!r} targets unknown id {script.target!r}")
        for dep in script.depends_on:
            if dep not in corpus.statements:
                raise CorpusError(f"script {script.id!r} depends on unknown id {dep!r}")
            if dep not in seen:
                raise CorpusError(f"script {script.id!r} depends on {dep!r} before it is proved")
        seen.add(script.target)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}
_REQUIRED = object()


def _typed(value, kinds, what: str):
    """value, if it has one of the JSON types `kinds`; else CorpusError.

    No field of the format is a boolean, and JSON's true is not an integer."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        want = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise CorpusError(f"{what} must be {want}, not {type(value).__name__}")
    return value


def _get(obj: dict, key: str, kinds, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise CorpusError(f"missing field {key!r}")
        return default
    return _typed(obj[key], kinds, f"field {key!r}")


def _strings(obj: dict, key: str) -> tuple[str, ...]:
    return tuple(_typed(v, str, f"an entry of {key!r}") for v in _get(obj, key, list, []))


def _objects(obj: dict, key: str, default=_REQUIRED) -> list[dict]:
    return [_typed(v, dict, f"an entry of {key!r}") for v in _get(obj, key, list, default)]


def _lit_from_json(obj: dict, consts=()) -> Literal:
    polarity = _get(obj, "polarity", str)
    if polarity not in ("=", "!="):
        raise CorpusError(f"bad literal polarity {polarity!r}")
    lhs, rhs = _get(obj, "lhs", str), _get(obj, "rhs", str)
    return Literal(parse_term(lhs, consts), parse_term(rhs, consts), polarity == "=")


def _lits_from_json(obj: dict, key: str, consts=(), default=_REQUIRED) -> tuple[Literal, ...]:
    return tuple(_lit_from_json(l, consts) for l in _objects(obj, key, default))


def _statement_from_json(obj: dict) -> Statement:
    try:
        kind = _get(obj, "kind", str)
        sid = _get(obj, "id", str)
        if kind == "identity":
            return Identity(sid, parse_term(_get(obj, "lhs", str)), parse_term(_get(obj, "rhs", str)))
        if kind == "clause":
            return Clause(sid, _lits_from_json(obj, "literals"))
        if kind == "quasi":
            return QuasiIdentity(
                sid, _lits_from_json(obj, "hypotheses"), _lit_from_json(_get(obj, "conclusion", dict))
            )
    except ValueError as e:  # CorpusError, TermSyntaxError, or a rejected statement
        raise CorpusError(f"bad statement object: {e}") from e
    raise CorpusError(f"unknown statement kind {kind!r}")


def _subst_from_json(obj: dict, consts) -> dict[str, Term]:
    return {
        v: parse_term(_typed(t, str, f"the term for {v!r}"), consts)
        for v, t in _get(obj, "subst", dict, {}).items()
    }


def _steps_from_json(steps: list, consts) -> tuple:
    return tuple(_step_from_json(s, consts) for s in steps)


def _step_from_json(obj: dict, consts=()):
    """One step; raises CorpusError, or TermSyntaxError on a bad term."""
    rule = _get(_typed(obj, dict, "a step"), "rule", str)
    if rule == "rewrite":
        return Rewrite(
            _get(obj, "by", (str, int)),
            _subst_from_json(obj, consts),
            _get(obj, "at", str, ""),
            _get(obj, "dir", str, L2R),
        )
    if rule == "clause-instantiate":
        return ClauseInstantiate(_get(obj, "clause", str), _subst_from_json(obj, consts))
    if rule == "literal-elim":
        return LiteralElim(_get(obj, "literal", int), _steps_from_json(_get(obj, "chain", list), consts))
    if rule == "clause-literal-rewrite":
        return ClauseLiteralRewrite(
            _get(obj, "literal", int),
            _get(obj, "by", (str, int)),
            _subst_from_json(obj, consts),
            _get(obj, "at", str),
            _get(obj, "dir", str, L2R),
        )
    if rule == "split":
        branches = tuple(
            _steps_from_json(_typed(br, list, "a branch"), consts) for br in _get(obj, "branches", list)
        )
        return Split(_get(obj, "clause", str), _subst_from_json(obj, consts), branches)
    if rule == "close-conflict":
        return CloseConflict(_get(obj, "hypothesis", int))
    if rule == "close-refl":
        return CloseRefl()
    raise CorpusError(f"unknown step rule {rule!r}")


def _script_from_json(obj: dict) -> ProofScript:
    try:
        target = _get(obj, "target", str)
        consts = _strings(obj, "constants")
        return ProofScript(
            id=_get(obj, "id", str, target),
            target=target,
            constants=consts,
            hypotheses=_lits_from_json(obj, "hypotheses", consts, []),
            steps=_steps_from_json(_get(obj, "steps", list), consts),
            depends_on=_strings(obj, "depends_on"),
            comment=_get(obj, "comment", str, ""),
        )
    except ValueError as e:  # CorpusError, TermSyntaxError, or a reserved constant
        raise CorpusError(f"bad script object: {e}") from e


def corpus_from_json(obj: dict) -> Corpus:
    """The corpus a parsed file describes.  Every field is type-checked here,
    so a corpus that loads replays to a verdict; anything else raises
    CorpusError."""
    _typed(obj, dict, "a corpus file")
    statements: dict[str, Statement] = {}
    for sobj in _objects(obj, "statements", []):
        st = _statement_from_json(sobj)
        if st.id in statements:
            raise CorpusError(f"duplicate statement id {st.id!r}")
        statements[st.id] = st
    members = _get(obj, "axiom_systems", dict, {})
    systems = {name: AxiomSystem(name, _strings(members, name)) for name in members}
    corpus = Corpus(statements, systems, tuple(_script_from_json(s) for s in _objects(obj, "scripts", [])))
    _validate(corpus)
    return corpus


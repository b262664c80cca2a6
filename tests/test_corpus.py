import json
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from abeforge.corpus import CorpusError, corpus_from_json, load_corpus
from abeforge.kernel import (
    ClauseInstantiate,
    ClauseLiteralRewrite,
    LiteralElim,
    Rewrite,
    Split,
    verify_corpus,
)
from conftest import BASIS, axiom_closures, child_env, read_corpus_json, with_corollaries


def test_registry_counts(corpus):
    axioms = [sid for sid in corpus.statements if sid.startswith("ax")]
    lemmas = [sid for sid in corpus.statements if sid.startswith("lem")]
    assert len(axioms) == 6
    assert len(lemmas) == 11
    assert "trans" in corpus.statements
    assert len(corpus.scripts) == 13


def test_axiom_systems(corpus):
    assert corpus.axiom_system("aBE").members == ("ax1", "ax2", "ax3", "ax4", "ax5")
    assert corpus.axiom_system("implicative-aBE").members == (
        "ax1", "ax2", "ax3", "ax4", "ax5", "ax6",
    )
    with pytest.raises(CorpusError):
        corpus.axiom_system("nosuch")


def test_statement_kinds(corpus):
    assert corpus.statement("ax5").kind == "quasi-identity"
    assert corpus.statement("trans").kind == "quasi-identity"
    assert corpus.statement("lem8a").kind == "clause"
    assert corpus.statement("lem18").kind == "clause"
    for sid in ("ax1", "ax2", "ax3", "ax4", "ax6", "lem10", "lem17", "commutativity"):
        assert corpus.statement(sid).kind == "identity"
        assert len(corpus.statement(sid).literals) == 1


def test_commutativity_has_no_script(corpus):
    assert corpus.statement("commutativity").id == "commutativity"
    with pytest.raises(CorpusError):
        corpus.script("commutativity")


def test_every_script_reference_resolves(corpus):
    for script in corpus.scripts:
        corpus.statement(script.target)
        for dep in script.depends_on:
            corpus.statement(dep)


def test_dependency_order(corpus):
    proved = set(corpus.axiom_system("implicative-aBE").members)
    for script in corpus.scripts:
        assert set(script.depends_on) <= proved | {script.target}
        proved.add(script.target)


def cited(steps):
    """The statement ids that `steps` cite, nested steps included; a rewrite
    by a hypothesis (an int) cites none."""
    ids = set()
    for step in steps:
        if isinstance(step, (Rewrite, ClauseLiteralRewrite)):
            if isinstance(step.justification, str):
                ids.add(step.justification)
        elif isinstance(step, ClauseInstantiate):
            ids.add(step.clause)
        elif isinstance(step, LiteralElim):
            ids |= cited(step.chain)
        elif isinstance(step, Split):
            ids.add(step.clause)
            for branch in step.branches:
                ids |= cited(branch)
    return ids


def undeclared_citations(corpus):
    """{script id: the ids it cites but does not declare in depends_on}."""
    found = {}
    for script in corpus.scripts:
        extra = cited(script.steps) - set(script.depends_on)
        if extra:
            found[script.id] = extra
    return found


def test_each_script_cites_only_what_it_declares(corpus):
    # the kernel checks only that each declared dependency is verified
    for scripts in (corpus, corpus_from_json(with_corollaries())):
        assert all(cited(script.steps) for script in scripts.scripts)
        assert undeclared_citations(scripts) == {}


def test_corollaries_replay(tmp_path):
    # commutativity, (x -> y) -> y = (y -> x) -> x, from ax3, ax4, ax5 and lem17;
    # the join lemma, (y -> z) -> z = (((y -> z) -> z) -> y) -> y; BCK's
    # first axiom, (x -> y) -> (y -> z) -> x -> z = 1, from the join lemma;
    # transitivity again, from BCK's first axiom and ax1; BCK's x -> y -> x = 1
    # and x -> (x -> y) -> y = 1; ax1 and ax2 from ax3 and ax6; and ax5 from
    # ax1 and commutativity
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(with_corollaries()), encoding="utf-8")
    argv = [sys.executable, "-m", "abeforge.cli", "replay", "--script", str(path)]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(
        "commutativity: verified\njoin: verified\nbck1: verified\ntrans-bck1: verified\nk: verified\n"
        "bck2: verified\nax1-from-ax3-ax6: verified\nax2-from-ax3-ax6: verified\nax5-from-tarski: verified\n"
        "22/22 verified\n"
    )


def script_json(corpus_json, sid):
    return next(s for s in corpus_json["scripts"] if s["id"] == sid)


# cited by a top-level rewrite, inside a literal-elim chain, inside a split branch
@pytest.mark.parametrize("script_id, dep", [("lem11", "lem10"), ("lem14", "lem13"), ("thm", "ax4")])
def test_undeclared_citation_is_named(corpus_json, script_id, dep):
    script = script_json(corpus_json, script_id)
    script["depends_on"].remove(dep)
    assert undeclared_citations(corpus_from_json(corpus_json)) == {script_id: {dep}}


def test_axioms_each_result_rests_on():
    # the table in the README: the axioms each result rests on, and the
    # same with ax1 and ax2 read through their derivations from ax3 and ax6;
    # only the results that cite the join lemma or ax1 need ax1
    def ax(*ks):
        return {f"ax{k}" for k in ks}

    merged = corpus_from_json(with_corollaries())
    closures, from_basis = axiom_closures(merged), axiom_closures(merged, BASIS)
    assert {sid: (closures[sid], from_basis[sid]) for sid in closures} == {
        "ax5-clause": (ax(5), ax(5)),
        "lem8a": (ax(2, 3, 4, 5), ax(3, 4, 5, 6)),
        "lem8b": (ax(3, 4, 5), ax(3, 4, 5)),
        "lem10": (ax(4, 6), ax(4, 6)),
        "lem11": (ax(4, 6), ax(4, 6)),
        "lem12": (ax(2, 3, 4, 6), ax(3, 4, 6)),
        "lem13": (ax(2, 3, 4, 6), ax(3, 4, 6)),
        "lem14": (ax(2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "lem15": (ax(4, 6), ax(4, 6)),
        "lem16": (ax(2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "lem17": (ax(2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "lem18": (ax(2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "thm": (ax(2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "commutativity": (ax(2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "join": (ax(1, 2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "bck1": (ax(1, 2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "trans-bck1": (ax(1, 2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
        "k": (ax(2, 3, 4), ax(3, 4, 6)),
        "bck2": (ax(3, 4), ax(3, 4)),
        "ax1-from-ax3-ax6": (ax(3, 6), ax(3, 6)),
        "ax2-from-ax3-ax6": (ax(3, 6), ax(3, 6)),
        "ax5-from-tarski": (ax(1, 2, 3, 4, 5, 6), ax(3, 4, 5, 6)),
    }


def test_full_replay(corpus):
    assert all(status == "verified" for _, status in verify_corpus(corpus))


def test_builtin_corpus_found_from_any_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = verify_corpus(load_corpus())
    assert [status for _, status in report] == ["verified"] * 13


def test_unknown_dependency_rejected(corpus_json):
    corpus_json["scripts"][3]["depends_on"].append("lem99")
    with pytest.raises(CorpusError, match="lem99"):
        corpus_from_json(corpus_json)


def test_a_properties_key_is_not_read(corpus_json):
    # like any other key the loader does not read, even one naming no statement
    corpus_json["properties"].append("nosuch")
    assert corpus_from_json(corpus_json) == corpus_from_json(read_corpus_json())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: script_json(obj, "lem8a").update(target="nosuch"), "script 'lem8a' targets unknown id 'nosuch'"),
        (
            lambda obj: script_json(obj, "lem10")["depends_on"].append("lem11"),
            "script 'lem10' depends on 'lem11' before it is proved",
        ),
        (lambda obj: obj["statements"][0].update(kind="frob"), "unknown statement kind 'frob'"),
        (
            lambda obj: obj.update(axiom_systems={"X": ["nosuch"]}),
            "axiom system 'X' references unknown id 'nosuch'",
        ),
    ],
)
def test_loader_names_what_is_wrong(corpus_json, edit, message):
    edit(corpus_json)
    with pytest.raises(CorpusError) as exc:
        corpus_from_json(corpus_json)
    assert str(exc.value) == message


def test_unknown_step_rule_rejected(corpus_json):
    corpus_json["scripts"][0]["steps"][0]["rule"] = "frobnicate"
    with pytest.raises(CorpusError, match="frobnicate"):
        corpus_from_json(corpus_json)


def test_bad_polarity_rejected(corpus_json):
    corpus_json["statements"][4]["hypotheses"][0]["polarity"] = "=="
    with pytest.raises(CorpusError):
        corpus_from_json(corpus_json)


def test_duplicate_statement_id_rejected(corpus_json):
    corpus_json["statements"].append(corpus_json["statements"][0])
    with pytest.raises(CorpusError, match="duplicate"):
        corpus_from_json(corpus_json)


def test_duplicate_script_id_rejected(corpus_json):
    corpus_json["scripts"].append(next(s for s in corpus_json["scripts"] if s["id"] == "lem10"))
    with pytest.raises(CorpusError, match="duplicate script id 'lem10'"):
        corpus_from_json(corpus_json)


def field_paths(obj, prefix=()):
    """The key path of every value below the top level of a JSON tree."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


FIELD_PATHS = list(field_paths(read_corpus_json()))
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 20),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


# 150 draws take well under 2 s.  Before fields were type-checked, eleven
# wrong-typed values for each of the 606 fields raised something other than
# CorpusError, at load or during replay, in 906 of 6,666 cases.
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELD_PATHS), JSON_VALUES)
def test_any_field_replaced_loads_and_replays_or_is_rejected(path, value):
    # a corpus file either loads and replays to a verdict or is rejected at load
    obj = read_corpus_json()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        corpus = corpus_from_json(obj)
    except CorpusError:
        return
    assert [sid for sid, _ in verify_corpus(corpus)] == [s.id for s in corpus.scripts]

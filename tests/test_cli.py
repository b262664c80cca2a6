import copy
import gc
import json
import pathlib
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from abeforge.cli import BUDGET_HELP
from conftest import DATA_CORPUS, child_env, run_cli


def write_model(tmp_path, obj, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


M2 = {"size": 2, "unit": 1, "table": [[1, 1], [0, 1]]}
BAD_AX3 = {"size": 2, "unit": 1, "table": [[0, 1], [0, 1]]}
BAD_AX2 = {"size": 2, "unit": 1, "table": [[0, 0], [0, 1]]}
# files that are not valid UTF-8 JSON, or that the decoder cannot descend into
UNREADABLE = {
    "non-utf8": b"\xff\xfe{",
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
    "over-long-integer": b'{"size": ' + b"1" * 5000 + b"}",
}


def assert_input_error(result):
    assert result.exit_code == 3
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def without_ax6(obj) -> dict:
    """The parsed corpus file `obj` less ax6, its system memberships, and
    every script that depends on ax6 or on a statement proved from it."""
    obj["statements"] = [st for st in obj["statements"] if st["id"] != "ax6"]
    obj["axiom_systems"] = {name: [m for m in ms if m != "ax6"] for name, ms in obj["axiom_systems"].items()}
    gone, kept = {"ax6"}, []
    for script in obj["scripts"]:
        if gone.intersection(script["depends_on"]):
            gone.add(script["target"])
        else:
            kept.append(script)
    obj["scripts"] = kept
    return obj


def write_deep_corpus(tmp_path, obj, arrows) -> str:
    """`obj` plus an identity `1 -> t = t`, t nesting `arrows` arrows, and its
    one-step script by ax1, written to a file."""
    t = "x -> " * arrows + "x"
    obj["statements"].append({"id": "deep", "kind": "identity", "lhs": f"1 -> {t}", "rhs": t})
    step = {"rule": "rewrite", "by": "ax1", "dir": "L2R", "at": "", "subst": {"x": t}}
    obj["scripts"].append({"id": "deep", "target": "deep", "depends_on": ["ax1"], "constants": [],
                           "hypotheses": [], "steps": [step]})
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestReplay:
    def test_full_corpus(self):
        result = run_cli("replay")
        assert result.exit_code == 0
        assert "13/13 verified" in result.stdout

    def test_json_emit(self):
        result = run_cli("replay", "--emit", "json")
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["verified"] == obj["total"] == 13

    def test_show_refutation(self):
        result = run_cli("replay", "--show", "thm")
        assert result.exit_code == 0
        assert "split on lem18" in result.stdout
        assert "branch 1" in result.stdout

    @pytest.mark.parametrize("sid", ["ax5", "lem10"])
    def test_show_takes_no_json(self, sid):
        # --show prints text only, so asking it for JSON is an input error
        result = run_cli("replay", "--show", sid, "--emit", "json")
        assert_input_error(result)
        assert result.stderr.count("\n") == 1

    def test_show_empty_id_is_an_unknown_id(self):
        # an empty id is looked up like any other, not read as no --show
        result = run_cli("replay", "--show", "")
        assert_input_error(result)
        assert result.stderr == "error: unknown statement id ''\n"

    def test_show_with_emit_text_is_show(self):
        assert run_cli("replay", "--show", "ax5", "--emit", "text") == run_cli("replay", "--show", "ax5")

    def test_broken_script_file(self, tmp_path, corpus_json):
        corpus_json["scripts"][3]["steps"][1]["subst"]["y"] = "x"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(corpus_json))
        result = run_cli("replay", "--script", str(path))
        assert result.exit_code == 2
        assert "failed" in result.stdout

    def test_malformed_file_exits_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        result = run_cli("replay", "--script", str(path))
        assert result.exit_code == 3

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_file_exits_3(self, tmp_path, kind):
        path = tmp_path / "corpus.json"
        path.write_bytes(UNREADABLE[kind])
        assert_input_error(run_cli("replay", "--script", str(path)))

    # at 600 arrows the parser reads the term and the kernel's comparisons
    # run out of stack; at 2,000 the parser refuses it
    @pytest.mark.parametrize("arrows, emit", [(600, "text"), (600, "json"), (2000, "text")])
    def test_too_deep_a_term_exits_3(self, tmp_path, corpus_json, arrows, emit):
        result = run_cli("replay", "--script", write_deep_corpus(tmp_path, corpus_json, arrows), "--emit", emit)
        assert_input_error(result)
        assert result.stderr == "error: corpus file is nested too deeply\n"

    def test_show_reads_a_term_too_deep_to_replay(self, tmp_path, corpus_json):
        result = run_cli("replay", "--script", write_deep_corpus(tmp_path, corpus_json, 600), "--show", "deep")
        assert result.exit_code == 0
        assert result.stdout.startswith("script deep  (target deep: 1 -> x -> ")

    def test_wrong_typed_field_exits_3(self, tmp_path, corpus_json):
        corpus_json["scripts"][3]["steps"][0]["at"] = ["L"]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus_json))
        assert_input_error(run_cli("replay", "--script", str(path)))

    @pytest.mark.parametrize("case", ["empty", "no-ax6", "ax6-still-a-member"])
    def test_file_missing_an_axiom_exits_3(self, tmp_path, corpus_json, case):
        # a system that still lists the missing axiom does not change the message
        obj, missing = ({}, "ax1") if case == "empty" else (without_ax6(copy.deepcopy(corpus_json)), "ax6")
        if case == "ax6-still-a-member":
            obj["axiom_systems"] = corpus_json["axiom_systems"]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(obj))
        result = run_cli("replay", "--script", str(path))
        assert_input_error(result)
        assert result.stderr == f"error: missing axiom {missing!r}\n"

    def test_duplicate_script_id_exits_3(self, tmp_path, corpus_json):
        corpus_json["scripts"].append(next(s for s in corpus_json["scripts"] if s["id"] == "lem10"))
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus_json))
        result = run_cli("replay", "--script", str(path))
        assert_input_error(result)
        assert result.stderr == "error: duplicate script id 'lem10'\n"


class TestEnumerate:
    def test_json_report(self):
        result = run_cli("enumerate", "--axioms", "implicative-aBE", "--max-size", "4", "--emit", "json")
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["axioms"] == "implicative-aBE"
        assert [s["count"] for s in obj["sizes"]] == [1, 1, 1, 2]
        assert all(s["millis"] is None for s in obj["sizes"])

    def test_timings_add_millis_and_change_nothing_else(self):
        args = ("enumerate", "--axioms", "aBE", "--max-size", "3")
        timed, plain = run_cli(*args, "--timings", "--emit", "json"), run_cli(*args, "--emit", "json")
        timed_text, plain_text = run_cli(*args, "--timings"), run_cli(*args)
        assert {r.exit_code for r in (timed, plain, timed_text, plain_text)} == {0}
        obj = json.loads(timed.stdout)
        assert all(isinstance(s["millis"], float) and s["millis"] >= 0 for s in obj["sizes"])
        for s in obj["sizes"]:
            s["millis"] = None
        assert obj == json.loads(plain.stdout)
        rows, untimed_rows = timed_text.stdout.splitlines(), plain_text.stdout.splitlines()
        assert len(rows) == len(untimed_rows) == 5
        assert rows[1] == untimed_rows[1] + f" {'millis':>10}"
        for row, untimed in zip(rows[2:], untimed_rows[2:]):
            assert row.startswith(untimed) and float(row[len(untimed):]) >= 0

    def test_text_table(self):
        result = run_cli("enumerate", "--axioms", "aBE", "--max-size", "3")
        assert result.exit_code == 0
        assert "axiom system: aBE" in result.stdout

    def test_unknown_system(self):
        result = run_cli("enumerate", "--axioms", "nosuch", "--max-size", "2")
        assert result.exit_code == 3

    def test_budget_exceeded_reported_with_exit_0(self):
        result = run_cli(
            "enumerate", "--axioms", "aBE", "--max-size", "4",
            "--budget-nodes", "10", "--emit", "json",
        )
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["sizes"][-1]["exceeded"] is True

    @pytest.mark.parametrize("budget", [1, 9, 10, 100, 600])
    def test_budget_bounds_the_whole_run(self, budget):
        # aBE needs 0, 0, 9, 208 and 4,985 nodes at sizes 1..5
        result = run_cli(
            "enumerate", "--axioms", "aBE", "--max-size", "5",
            "--budget-nodes", str(budget), "--emit", "json",
        )
        assert result.exit_code == 0
        sizes = json.loads(result.stdout)["sizes"]
        assert sum(s["nodes"] for s in sizes) <= budget
        assert sizes[-1]["exceeded"] is True

    def test_negative_budget_exit_3(self):
        result = run_cli("enumerate", "--axioms", "aBE", "--max-size", "3", "--budget-nodes", "-1")
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "error: --budget-nodes must be >= 0\n"

    def test_largest_size_with_budget_one_lists_every_size(self):
        result = run_cli(
            "enumerate", "--axioms", "aBE", "--max-size", "16",
            "--budget-nodes", "1", "--emit", "json",
        )
        assert result.exit_code == 0
        sizes = json.loads(result.stdout)["sizes"]
        assert [s["n"] for s in sizes] == list(range(1, 17))
        assert sum(s["nodes"] for s in sizes) <= 1
        assert all(s["exceeded"] for s in sizes[2:])


# where a field of M2 can be replaced, and what by
M2_PATHS = [("size",), ("unit",), ("table",), ("table", 0), ("table", 1), ("table", 0, 0), ("table", 1, 1)]
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.integers(-2, 3) | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5,
)


class TestCheck:
    def test_good_model_with_property(self, tmp_path):
        path = write_model(tmp_path, M2)
        result = run_cli("check", "--model", path, "--axioms", "implicative-aBE", "--property", "trans")
        assert result.exit_code == 0
        assert "model: yes" in result.stdout
        assert "trans: holds" in result.stdout

    def test_axiom_violation_exit_4(self, tmp_path):
        path = write_model(tmp_path, BAD_AX3)
        result = run_cli("check", "--model", path, "--axioms", "implicative-aBE")
        assert result.exit_code == 4
        assert "ax3 violated" in result.stdout
        assert "x=0" in result.stdout

    @pytest.mark.parametrize("model", [M2, BAD_AX2], ids=["model", "not-a-model"])
    def test_unknown_property_exit_3(self, tmp_path, model):
        # the property is looked up before the model is checked
        path = write_model(tmp_path, model)
        result = run_cli("check", "--model", path, "--axioms", "aBE", "--property", "nosuch")
        assert_input_error(result)
        assert result.stderr == "error: unknown statement id 'nosuch'\n"

    def test_truncated_json_exit_3(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"size": 2, "unit"')
        result = run_cli("check", "--model", str(path), "--axioms", "aBE")
        assert result.exit_code == 3

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_file_exits_3(self, tmp_path, kind):
        path = tmp_path / "model.json"
        path.write_bytes(UNREADABLE[kind])
        assert_input_error(run_cli("check", "--model", str(path), "--axioms", "aBE"))

    def test_non_integer_entry_exits_3(self, tmp_path):
        path = write_model(tmp_path, {"size": 2, "unit": 1, "table": [[1.7, 1], [0, 1]]})
        assert_input_error(run_cli("check", "--model", path, "--axioms", "aBE"))

    @pytest.mark.parametrize(
        "key, value, message",
        [("size", True, "size must be an integer, not bool"), ("unit", "1", "unit must be an integer, not str")],
        ids=["size", "unit"],
    )
    def test_non_integer_size_or_unit_names_the_field_once(self, tmp_path, key, value, message):
        path = write_model(tmp_path, {**M2, key: value})
        result = run_cli("check", "--model", path, "--axioms", "aBE")
        assert_input_error(result)
        assert result.stderr == f"error: bad model file: {message}\n"

    def test_size_zero_exits_3(self, tmp_path):
        path = write_model(tmp_path, {"size": 0, "unit": 0, "table": []})
        result = run_cli("check", "--model", path, "--axioms", "aBE")
        assert_input_error(result)
        assert result.stderr == "error: bad model file: size must be >= 1\n"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(M2_PATHS), ANY_JSON)
    def test_any_field_replaced_is_checked_or_rejected(self, path, value):
        # a model file is checked (exit 0 or 4) or rejected with exit 3
        obj = copy.deepcopy(M2)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "model.json")
            path.write_text(json.dumps(obj))
            result = run_cli("check", "--model", str(path), "--axioms", "aBE")
        assert result.exit_code in (0, 3, 4)
        assert "Traceback" not in result.stderr
        if result.exit_code == 3:
            assert result.stderr.startswith("error: ")


# JSON documents of any shape, whose object keys are often the ones the
# corpus and model formats read, so that some documents get past the top level
FORMAT_KEYS = (
    "statements", "axiom_systems", "properties", "scripts", "kind", "id", "lhs", "rhs", "literals",
    "hypotheses", "conclusion", "polarity", "target", "constants", "steps", "depends_on", "rule",
    "by", "subst", "at", "dir", "size", "unit", "table",
)
ANY_DOCUMENT = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-2, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
WHOLE_FILE_COMMANDS = {
    "replay": ("replay", "--script"),
    "check": ("check", "--axioms", "aBE", "--model"),
}


def run_on_file(command: str, data: bytes):
    """`command` on a file holding `data`, as the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "input.json")
        path.write_bytes(data)
        result = run_cli(*WHOLE_FILE_COMMANDS[command], str(path))
    return result.exit_code, result.stderr


def assert_verdict_or_one_error(code: int, stderr: str):
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr
    if code == 3:
        assert stderr.startswith("error: ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert stderr.count("bad model file:") <= 1


class TestWholeFileFuzz:
    """Any file given to `replay --script` or `check --model` gets a verdict
    or one line of error with exit 3, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(WHOLE_FILE_COMMANDS)), st.binary(max_size=64))
    def test_arbitrary_bytes(self, command, data):
        assert_verdict_or_one_error(*run_on_file(command, data))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(WHOLE_FILE_COMMANDS)), ANY_DOCUMENT)
    def test_arbitrary_json_documents(self, command, document):
        assert_verdict_or_one_error(*run_on_file(command, json.dumps(document).encode()))


class TestSearch:
    def test_implicative_trans_none(self):
        result = run_cli("search", "--axioms", "implicative-aBE", "--violates", "trans", "--max-size", "5")
        assert result.exit_code == 0
        assert "none up to 5" in result.stdout

    def test_commutativity_none(self):
        result = run_cli(
            "search", "--axioms", "implicative-aBE", "--violates", "commutativity",
            "--max-size", "5",
        )
        assert result.exit_code == 0

    def test_abe_counterexample_reverifies(self, tmp_path, corpus):
        result = run_cli(
            "search", "--axioms", "aBE", "--violates", "trans", "--max-size", "5",
            "--emit", "json",
        )
        assert result.exit_code == 4
        obj = json.loads(result.stdout)
        assert obj["status"] == "counterexample"
        # the reported model must itself pass check and violate the property
        path = write_model(tmp_path, obj["model"])
        check = run_cli("check", "--model", path, "--axioms", "aBE", "--property", "trans")
        assert check.exit_code == 4

    def test_bad_property(self):
        result = run_cli("search", "--axioms", "aBE", "--violates", "nosuch", "--max-size", "2")
        assert result.exit_code == 3

    BUDGETED = ("search", "--axioms", "aBE", "--violates", "commutativity", "--max-size", "4",
                "--budget-nodes", "5")

    def test_budget_exceeded_reported_with_exit_0(self):
        # sizes 1 and 2 need no nodes and hold no counterexample; size 3 needs 9
        result = run_cli(*self.BUDGETED)
        assert result.exit_code == 0
        assert result.stdout == "node budget exceeded at size 3\n"
        result = run_cli(*self.BUDGETED, "--emit", "json")
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert (obj["status"], obj["size"], obj["max_size"]) == ("exceeded", 3, 4)

    @pytest.mark.parametrize("name, max_size, failing", [("aBE", 4, 12), ("implicative-aBE", 5, 0)])
    def test_agrees_with_enumerate_on_every_statement(self, corpus, name, max_size, failing):
        # both report the first model, by size then canonical form, that
        # falsifies a statement
        size = ("--axioms", name, "--max-size", str(max_size), "--emit", "json")
        props = [arg for sid in corpus.statements for arg in ("--property", sid)]
        enumerated = run_cli("enumerate", *size, *props)
        assert enumerated.exit_code == 0
        verdicts = json.loads(enumerated.stdout)["properties"]
        assert [v["id"] for v in verdicts] == list(corpus.statements)
        assert sum(v["status"] == "counterexample" for v in verdicts) == failing
        for verdict in verdicts:
            result = run_cli("search", *size, "--violates", verdict["id"])
            obj = json.loads(result.stdout)
            if verdict["status"] == "holds":
                assert (result.exit_code, obj["status"]) == (0, "none")
            else:
                assert (result.exit_code, obj["status"]) == (4, "counterexample")
                assert (obj["model"], obj["witness"]) == (verdict["model"], verdict["witness"])

    def test_budget_is_shared_by_the_sizes(self):
        # trans first fails at size 4, which needs 208 nodes after the 9 of
        # size 3; a budget of 216 covers each size alone but not both
        args = ("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "4", "--emit", "json")
        result = run_cli(*args, "--budget-nodes", "216")
        obj = json.loads(result.stdout)
        assert (result.exit_code, obj["status"], obj["size"]) == (0, "exceeded", 4)
        result = run_cli(*args, "--budget-nodes", "217")
        assert result.exit_code == 4
        assert json.loads(result.stdout)["status"] == "counterexample"

    def test_negative_budget_exit_3(self):
        result = run_cli(
            "search", "--axioms", "aBE", "--violates", "trans", "--max-size", "3",
            "--budget-nodes", "-1",
        )
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "error: --budget-nodes must be >= 0\n"


class TestOracle:
    def test_forced_size_two(self):
        result = run_cli("oracle", "--axioms", "implicative-aBE", "--size", "2")
        assert result.exit_code == 0
        assert "labeled 1, classes 1" in result.stdout

    def test_size_three_matches_enumerator(self):
        result = run_cli("oracle", "--axioms", "aBE", "--size", "3", "--emit", "json")
        obj = json.loads(result.stdout)
        assert (obj["labeled"], obj["classes"]) == (5, 3)

    def test_over_bound_exit_3(self):
        result = run_cli("oracle", "--axioms", "aBE", "--size", "4")
        assert result.exit_code == 3

    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_size_below_one_exit_3(self, size):
        result = run_cli("oracle", "--axioms", "aBE", "--size", size)
        assert_input_error(result)
        assert result.stderr == "error: size must be >= 1\n"


class TestCorpusCommands:
    def test_export_and_reload(self, tmp_path):
        out = tmp_path / "corpus.json"
        result = run_cli("corpus", "export", "--out", str(out))
        assert result.exit_code == 0
        assert out.read_bytes() == DATA_CORPUS.read_bytes()
        replay = run_cli("replay", "--script", str(out))
        assert replay.exit_code == 0

    def test_export_onto_the_builtin_file(self, tmp_path, monkeypatch):
        # --out naming the file export reads leaves it whole
        builtin = tmp_path / "corpus.json"
        builtin.write_bytes(DATA_CORPUS.read_bytes())
        monkeypatch.setattr("abeforge.cli.BUILTIN_PATH", builtin)
        result = run_cli("corpus", "export", "--out", str(builtin))
        assert result.exit_code == 0
        assert builtin.read_bytes() == DATA_CORPUS.read_bytes()

    @pytest.mark.parametrize("target", ["missing-dir", "dir"])
    def test_export_to_unwritable_path_exits_3(self, tmp_path, target):
        out = tmp_path / "nosuch" / "corpus.json" if target == "missing-dir" else tmp_path
        result = run_cli("corpus", "export", "--out", str(out))
        assert_input_error(result)
        assert result.stderr.startswith(f"error: cannot write {out}: ")

    def test_show_statement(self):
        result = run_cli("corpus", "show", "ax5")
        assert result.exit_code == 0
        assert "quasi-identity" in result.stdout

    def test_show_script(self):
        result = run_cli("corpus", "show", "lem10")
        assert result.exit_code == 0
        assert "rewrite ax6" in result.stdout

    def test_show_script_as_the_file_has_it(self):
        # corpus show prints the statement, then the script as replay --show does
        shown = run_cli("corpus", "show", "lem13").stdout
        replayed = run_cli("replay", "--script", str(DATA_CORPUS), "--show", "lem13").stdout
        assert "rewrite lem11 [t := y, x := x, y := (x -> y) -> y, z := y] at root L2R" in replayed
        assert shown.endswith(replayed)

    def test_show_unknown(self):
        result = run_cli("corpus", "show", "lem99")
        assert result.exit_code == 3


class TestDeterminism:
    COMMANDS = [
        ("replay", "--emit", "json"),
        ("enumerate", "--axioms", "implicative-aBE", "--max-size", "4", "--emit", "json"),
        ("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "4", "--emit", "json"),
        ("oracle", "--axioms", "implicative-aBE", "--size", "3", "--emit", "json"),
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_json(self, args):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout


MALFORMED = {
    "no-command": (),
    "unknown-command": ("frob",),
    "corpus-without-subcommand": ("corpus",),
    "missing-axioms": ("enumerate", "--max-size", "3"),
    "max-size-not-an-integer": ("enumerate", "--axioms", "aBE", "--max-size", "x"),
    "unknown-emit": ("replay", "--emit", "xml"),
    "negative-budget": ("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "3", "--budget-nodes", "-1"),
    "unknown-option": ("replay", "--frob"),
    "option-prefix": ("enumerate", "--axioms", "aBE", "--max", "3"),
    "budget-not-an-integer": ("enumerate", "--axioms", "aBE", "--max-size", "3", "--budget-nodes", "abc"),
}

# what --help must list for each command: every option, and the help text it has
HELP = {
    (): ("replay", "enumerate", "check", "search", "oracle", "corpus"),
    ("replay",): ("--script", "verify a corpus file instead of the built-in one",
                  "--show", "pretty-print one script or statement and exit", "--emit"),
    ("enumerate",): ("--axioms", "--max-size", "--property", "also model-check these statement ids", "--emit",
                     "--budget-nodes", BUDGET_HELP, "--timings", "include wall-clock timings (not byte-stable)"),
    ("check",): ("--model", "--axioms", "--property", "--emit"),
    ("search",): ("--axioms", "--violates", "--max-size", "--emit", "--budget-nodes", BUDGET_HELP),
    ("oracle",): ("--axioms", "--size", "--emit"),
    ("corpus",): ("export", "show"),
    ("corpus", "export"): ("--out",),
    ("corpus", "show"): ("SID",),
}


# command lines made of the real command and option names, values of the kind
# each option takes, and junk; `corpus export` is left out, as it writes a file
FUZZ_IDS = ("ax1", "ax5", "lem10", "thm", "trans", "commutativity")
FUZZ_SIZES = ("-1", "0", "1", "2", "3")
FUZZ_FILES = (str(DATA_CORPUS), "{model}", "{not-a-model}")
FUZZ_VALUES = {
    "--script": FUZZ_FILES,
    "--show": FUZZ_IDS,
    "--emit": ("text", "json"),
    "--axioms": ("aBE", "implicative-aBE"),
    "--max-size": FUZZ_SIZES,
    "--property": FUZZ_IDS,
    "--budget-nodes": FUZZ_SIZES,
    "--model": FUZZ_FILES,
    "--violates": FUZZ_IDS,
    "--size": FUZZ_SIZES,
}
FUZZ_JUNK = ("", "nosuch", "--", "-x", "=", "--frob", "--timings", "--help", "corpus", "show")
# each command, the words it needs and the words it may take
FUZZ_COMMANDS = {
    ("replay",): ((), ("--script", "--show", "--emit")),
    ("enumerate",): (("--axioms", "--max-size"), ("--property", "--emit", "--budget-nodes", "--timings")),
    ("check",): (("--model", "--axioms"), ("--property", "--emit")),
    ("search",): (("--axioms", "--violates", "--max-size"), ("--emit", "--budget-nodes")),
    ("oracle",): (("--axioms", "--size"), ("--emit",)),
    ("corpus", "show"): ((), FUZZ_IDS),
}
FUZZ_ANY = st.sampled_from(sorted(FUZZ_VALUES) + list(FUZZ_JUNK))


def fuzz_words(word):
    """`word` and, for an option that takes a value, a value of its kind or junk."""
    if word not in FUZZ_VALUES:
        return st.just([word])
    return st.tuples(st.just(word), st.sampled_from(FUZZ_VALUES[word] + FUZZ_JUNK[:2])).map(list)


def fuzz_argv(command):
    """`command`, the words it needs, some it may take, and maybe one of any
    kind, in any order."""
    needed, optional = FUZZ_COMMANDS[command]
    words = st.builds(
        lambda some, more: [*needed, *some, *more],
        st.lists(st.sampled_from(optional), unique=True, max_size=len(optional)),
        st.lists(FUZZ_ANY, max_size=1),
    )
    pairs = words.flatmap(st.permutations).flatmap(lambda ws: st.tuples(*map(fuzz_words, ws)))
    return pairs.map(lambda ws: [*command, *(w for pair in ws for w in pair)])


FUZZ_ARGV = st.sampled_from(sorted(FUZZ_COMMANDS)).flatmap(fuzz_argv)


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    return {"{model}": write_model(tmp, M2), "{not-a-model}": write_model(tmp, BAD_AX3, "bad.json")}


class TestCommandLine:
    @settings(max_examples=80, deadline=None)
    @given(FUZZ_ARGV)
    def test_any_command_line_exits_with_a_verdict_or_one_error(self, fuzz_models, argv):
        # run_cli fails on any exception but SystemExit; exit 3 comes exactly
        # with one `error: ` line on stderr
        result = run_cli(*(fuzz_models.get(word, word) for word in argv))
        assert result.exit_code in (0, 2, 3, 4)
        one_error = result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert (result.exit_code == 3) == one_error
        if result.exit_code != 3:
            assert result.stderr == ""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_command_line_is_one_error_line(self, case):
        result = run_cli(*MALFORMED[case])
        assert_input_error(result)
        assert result.stderr.count("\n") == 1
        if case == "budget-not-an-integer":
            assert "invalid int value: 'abc'" in result.stderr

    @pytest.mark.parametrize("command", [("enumerate",), ("search", "--violates", "trans")], ids=lambda c: c[0])
    @pytest.mark.parametrize("max_size, bound", [("0", ">= 1"), ("17", "<= 16"), (str(10**20), "<= 16")])
    def test_max_size_outside_the_searchable_range(self, command, max_size, bound):
        result = run_cli(*command, "--axioms", "aBE", "--max-size", max_size, "--budget-nodes", "1")
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == f"error: --max-size must be {bound}\n"

    @pytest.mark.parametrize("command, option", [("enumerate", "--property"), ("search", "--violates")],
                             ids=["enumerate", "search"])
    def test_bad_input_is_reported_in_one_order(self, command, option):
        # the system first, then the property ids, then --max-size, then
        # --budget-nodes
        bounds = ("--max-size", "0", "--budget-nodes", "-1")
        result = run_cli(command, option, "nope", "--axioms", "nope", *bounds)
        assert result.stderr == "error: unknown axiom system 'nope'\n"
        result = run_cli(command, option, "nope", "--axioms", "aBE", *bounds)
        assert (result.exit_code, result.stderr) == (3, "error: unknown statement id 'nope'\n")
        result = run_cli(command, option, "trans", "--axioms", "aBE", *bounds)
        assert result.stderr == "error: --max-size must be >= 1\n"

    @pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "top")
    def test_help_lists_every_option(self, command):
        result = run_cli(*command, "--help")
        assert (result.exit_code, result.stderr) == (0, "")
        text = " ".join(result.stdout.split())
        for item in HELP[command]:
            assert item in text

    def test_main_leaves_the_collector_of_its_caller_alone(self):
        # the freeze that spares the exit-time collections waits for the exit
        assert run_cli("replay", "--emit", "json").exit_code == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_closed_pipe_exits_1_without_traceback(self, tmp_path, corpus_json):
        # a script long enough that its listing fills the pipe: the command is
        # still writing when the reader closes its end after one line
        script = next(s for s in corpus_json["scripts"] if s["id"] == "lem10")
        script["steps"] *= 1000
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus_json))
        argv = [sys.executable, "-m", "abeforge.cli", "replay", "--script", str(path), "--show", "lem10"]
        with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"script lem10 ")
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, stderr) == (1, b"")

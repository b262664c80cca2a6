"""Golden output of the command line: the SHA-256 of (exit code, stdout,
stderr) for a fixed set of command lines, in text and in JSON.

The other CLI tests match parts of the output; these pin all of it, so that
a change in any rendering shows.  A digest is recomputed by running the
command line and hashing `json.dumps([code, stdout, stderr])`.  `--help` and
usage errors are left out: argparse renders them differently from one Python
version to the next.
"""

import hashlib
import json

import pytest

from conftest import DATA_CORPUS, read_corpus_json, run_cli

# model files, written to a temporary directory; their paths never reach the output
MODELS = {
    "m2": {"size": 2, "unit": 1, "table": [[1, 1], [0, 1]]},
    "bad-ax3": {"size": 2, "unit": 1, "table": [[0, 1], [0, 1]]},
    # the aBE counterexample to transitivity that `search` finds
    "trans-ce": {"size": 4, "unit": 3, "table": [[3, 0, 3, 3], [3, 3, 2, 3], [0, 1, 3, 3], [0, 1, 2, 3]]},
}

ENUM_PROPS = ("--property", "trans", "--property", "commutativity")

# command line (with {name} for a file in the temporary directory): digest
GOLDEN = {
    ("replay",): "122f5d0c78bbc26c30cc8765a8648a9efda6e22912821d6401620f9b358234c7",
    ("replay", "--emit", "json"): "4bd2433d20c20a6298f71abbe3ee664c9561e533f4b7933b22e00a29ff14f1bf",
    ("replay", "--script", "{corpus}"): "122f5d0c78bbc26c30cc8765a8648a9efda6e22912821d6401620f9b358234c7",
    ("replay", "--script", "{broken}"): "1cbeead4cab841272b5d74ec4150a9d27e43ccdbf41fb4cb0a7a870332d8ab71",
    ("replay", "--script", "{broken}", "--emit", "json"): "0dc5bfb2d7c5bf344866df5183d1508956dfb7e5293ddc05598f4577720b603d",
    ("replay", "--show", "thm"): "43d0dcb387a4142bae196b76cdfd427dcc4c7c35740ad13bcfc07eb6f6191fbb",
    ("replay", "--show", "lem13"): "bd4805b7c58b02c5b7276eb2469be0a7f6013ed1cbfbcc2efd9d4a81cd354d41",
    ("replay", "--show", "lem8a"): "83c4feaf6cb0aa8954bab35329869c22ab41d6bf0a42a12d65c265858ca248fb",
    ("replay", "--show", "ax5"): "778dc658f98a411e5093d9f7d80be569a5fb2faa90623a20b34731a7dd5a55ce",
    ("replay", "--show", "nosuch"): "824d8f44e1961b57f0f77bd8ec5d25e98aacc6afa78f602c287d95e7213e8c45",
    ("enumerate", "--axioms", "aBE", "--max-size", "4"): "ab257826e7cf257823dbcf5c7cd03e0f66608c171fb488b31203d010764ac309",
    ("enumerate", "--axioms", "aBE", "--max-size", "4", "--emit", "json"): "7b99e277ba088e41bd90538c3ac99a1b938286fa3d99c0854f56c6fcf55f1c13",
    ("enumerate", "--axioms", "implicative-aBE", "--max-size", "5", *ENUM_PROPS): "f6afd8fc3f14f535b7f08036d964cfc326f25c785e4524ae1018f0831c6d287a",
    ("enumerate", "--axioms", "implicative-aBE", "--max-size", "5", *ENUM_PROPS, "--emit", "json"): "7f6d3f957ec53a363e792e57e63b477c03b992275288b499253121f7af36f5b3",
    ("enumerate", "--axioms", "aBE", "--max-size", "4", *ENUM_PROPS): "66017e6b720284f3501ebb1e8eb1589e144c1e069643acfb846e6ecc919a6bef",
    ("enumerate", "--axioms", "aBE", "--max-size", "4", *ENUM_PROPS, "--emit", "json"): "3d20b02e1d79304ce96090b6d69004be2a94eb6ecfc5d1c334e3a516b4d1e182",
    ("enumerate", "--axioms", "aBE", "--max-size", "5", "--budget-nodes", "100"): "521fc7c870e7096aa2c22b03060c03d743ef22d34bdde9a932079a9124c34cc2",
    ("enumerate", "--axioms", "aBE", "--max-size", "5", "--budget-nodes", "100", "--emit", "json"): "ba01b66237f0745626539e650068e6a831f4a169305ff884f952dd3c79614919",
    ("enumerate", "--axioms", "nosuch", "--max-size", "2"): "3a3addc34a184697f02a0547b72088eb4f4101647d357a64730c59f0221c482a",
    ("check", "--model", "{m2}", "--axioms", "implicative-aBE"): "26aeda051cfc5afc4577461eff6b1548bc0faf2191975daf8ef6d2d8638bcc76",
    ("check", "--model", "{m2}", "--axioms", "implicative-aBE", "--emit", "json"): "a4b1b13e5e39ec32ae29adca620a313b23bab10bbcffde916460b294a3578f23",
    ("check", "--model", "{m2}", "--axioms", "implicative-aBE", "--property", "trans"): "87b2220d38fe5b67f2121a84e973d95bb1becd7f31a8ab12dde81f8f25738fbe",
    ("check", "--model", "{m2}", "--axioms", "implicative-aBE", "--property", "trans", "--emit", "json"): "cbc8409dab781f9fd912dc925be06db5f81e57730e4e6a024fb00b2ffd11a4ed",
    ("check", "--model", "{bad-ax3}", "--axioms", "implicative-aBE", "--property", "trans"): "b222c5ca8a897d8772e0ba1c3a2bf9abbeb70a8226ef8ff1e9c2720dc536aa56",
    ("check", "--model", "{bad-ax3}", "--axioms", "implicative-aBE", "--emit", "json"): "30e0f090763f96c106310f9c817d8883ac7b16bd0dd10784db54dcebc81a702c",
    ("check", "--model", "{trans-ce}", "--axioms", "aBE", "--property", "trans"): "a37a43d4b1fa0086fee755d4d02284b53a0918d0f72c3d31686ae3ded8352dbc",
    ("check", "--model", "{trans-ce}", "--axioms", "aBE", "--property", "trans", "--emit", "json"): "8f11a555c297ff9c3639ed9e154faf428694c5f43f54f0695aacf758eb15eb38",
    ("check", "--model", "{m2}", "--axioms", "aBE", "--property", "nosuch"): "824d8f44e1961b57f0f77bd8ec5d25e98aacc6afa78f602c287d95e7213e8c45",
    ("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "5"): "7c95b0090238ebc0357a95e55d5c94031f16b157211c1067a8f5bd7870ae6e11",
    ("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "5", "--emit", "json"): "fe9f84fe21c3e0209959c5c8c720f0f3581a08f367d375d36d21dd702a9c7942",
    ("search", "--axioms", "implicative-aBE", "--violates", "trans", "--max-size", "5"): "7fd3ff7a9177f69c7f869f62f8bc5632e3cddac98d3a2228567aefc3ba53c5bf",
    ("search", "--axioms", "implicative-aBE", "--violates", "trans", "--max-size", "5", "--emit", "json"): "8302be39825cd0ed91723194623dfe6fe2a99dac1d7f09205649e57a5f3c9c9c",
    ("search", "--axioms", "aBE", "--violates", "commutativity", "--max-size", "4", "--budget-nodes", "5"): "53f77be462608af4d2a3f2576f6d8247fc27776da630396a01569dcb081ca783",
    ("search", "--axioms", "aBE", "--violates", "commutativity", "--max-size", "4", "--budget-nodes", "5",
     "--emit", "json"): "e0907e1f2f8c8ffc323ebcfbadf77e57346fb711c2fc0a12b9230b2aadb1a5b7",
    ("search", "--axioms", "aBE", "--violates", "trans", "--max-size", "0"): "d63cecda4a5cfcf526bfba841899d3bddda3e2dc279d11565cb448348141cd01",
    ("oracle", "--axioms", "aBE", "--size", "3"): "39fc11cf240c62b316dc02be170d055620df9ee4e348ce51a329e25b488219bf",
    ("oracle", "--axioms", "aBE", "--size", "3", "--emit", "json"): "cfb1f9c47e3c9bcea5299fac316bc75e8b7237db8e669a27b9e32c21cf64bf06",
    ("oracle", "--axioms", "aBE", "--size", "4"): "c6f23057a27a1b9bf5b93b5b5c54c5e2b6851a36660e32d93973cc4cde70bb17",
    ("corpus", "show", "ax4"): "b653d2bb1abb0bfd48558f04dd12d2d0228be1b6126f5120b74108e4df6005a2",
    ("corpus", "show", "ax5"): "fff1227a66b4d962be5054e508a2d4e409fd6283e421e761aa6dfeef834897f3",
    ("corpus", "show", "trans"): "22c15cd5bf4f4c24ac4d7f22e43d375cbc4676a1b2123888974612dcff40f757",
    ("corpus", "show", "lem18"): "e608176d5fd709a7075201d195152d6f01d7fff4530c4e6ffbb0a1558c8cb116",
    ("corpus", "show", "ax5-clause"): "6e600299e0bb5ab4a2115aa508bfd81f7048433785115c9ed479611395f44f16",
    ("corpus", "show", "lem99"): "743816db8aa783d0de4ce4a68e8ae7e63866779e5ab757fdebdbea09dd587c2a",
    ("corpus", "export", "--out", "corpus.json"): "48c856955bbbacf5ada8ee9066625a41a3f026004492e25e08e7e33b1b58929d",
}


@pytest.fixture()
def files(tmp_path, monkeypatch):
    """{name: path} of the input files; the working directory is tmp_path."""
    monkeypatch.chdir(tmp_path)
    paths = {"corpus": str(DATA_CORPUS)}
    broken = read_corpus_json()
    broken["scripts"][3]["steps"][1]["subst"]["y"] = "x"
    for name, obj in [*MODELS.items(), ("broken", broken)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def digest(args, files) -> str:
    result = run_cli(*(arg.format_map(files) for arg in args))
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


@pytest.mark.parametrize("args", GOLDEN, ids=" ".join)
def test_output_is_unchanged(args, files):
    assert digest(args, files) == GOLDEN[args]

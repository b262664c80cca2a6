"""`enumerate --emit json` byte for byte against the benchmark's reference
outputs in perfbench/reference/, which this test only reads.

Node counts change with any search change, so they are blanked on both
sides before the comparison.
"""

import json
import re
from pathlib import Path

from conftest import run_cli

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

# Every corpus statement, in registry order: 7 hold in every aBE model up to
# size 5 and 12 have a counterexample.
ABE_PROPERTIES = (
    "ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "trans", "lem8a", "lem8b",
    "lem10", "lem11", "lem12", "lem13", "lem14", "lem15", "lem16", "lem17",
    "lem18", "commutativity",
)

_NODES = re.compile(r'"nodes": (\d+|null)')


def enumerate_json(axioms, max_size, properties):
    args = ["enumerate", "--axioms", axioms, "--max-size", str(max_size), "--emit", "json"]
    for prop in properties:
        args += ["--property", prop]
    result = run_cli(*args)
    assert result.exit_code == 0
    return _NODES.sub('"nodes": null', result.stdout)


def reference(name):
    return _NODES.sub('"nodes": null', (REFERENCE_DIR / name).read_text(encoding="utf-8"))


def test_abe_up_to_five_matches_reference():
    assert enumerate_json("aBE", 5, ABE_PROPERTIES) == reference("enum-abe.json")


def test_implicative_up_to_six_matches_reference():
    # trans and commutativity hold up to size 7, so dropping size 7 from the
    # reference leaves the size-6 output
    ref = json.loads(reference("enum-implicative.json"))
    assert {p["status"] for p in ref["properties"]} == {"holds"}
    ref["sizes"] = [s for s in ref["sizes"] if s["n"] <= 6]
    expected = json.dumps(ref, sort_keys=True) + "\n"
    assert enumerate_json("implicative-aBE", 6, ("trans", "commutativity")) == expected

"""`replay` starts without the model layers or generated record code."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import abeforge.cli
try:
    abeforge.cli.main(["replay", "--emit", "json"], prog_name="abeforge")
except SystemExit as e:
    assert e.code == 0, e.code
unwanted = ("abeforge.search", "abeforge.models", "abeforge._core", "dataclasses")
print(" ".join(m for m in unwanted if m in sys.modules))
"""


def test_replay_imports_no_model_layer_and_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    *report, loaded = out.splitlines()
    assert '"verified": 13' in report[0]
    assert loaded == ""

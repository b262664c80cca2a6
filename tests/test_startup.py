"""`replay` starts without the model layers, generated record code or any
module from outside the standard library, and the CLI exits with a frozen
heap, or with 1 and nothing on stderr when its reader has gone."""

import os
import subprocess
import sys

from conftest import child_env

# main() called both ways its callers call it: positionally, and with
# args= as the benchmark's tracer does
PROBE = """
import sys
before = set(sys.modules)
import abeforge.cli

def run(*args, **kwargs):
    try:
        abeforge.cli.main(*args, **kwargs)
    except SystemExit as e:
        assert e.code == 0, e.code
    else:
        raise AssertionError("main returned without SystemExit")

run(["replay", "--emit", "json"], prog_name="abeforge")
run(args=["replay", "--emit", "json"], prog_name="abeforge")
unwanted = ("abeforge.search", "abeforge.models", "abeforge._core", "dataclasses")
print(" ".join(m for m in unwanted if m in sys.modules))
# top-level packages that abeforge loaded from outside the standard library
loaded = {m.partition(".")[0] for m in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"abeforge"})))
"""


def test_replay_imports_no_model_layer_and_no_dataclasses():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    *reports, loaded, third_party = out.splitlines()
    assert len(reports) == 2
    assert all('"verified": 13' in report for report in reports)
    assert loaded == ""
    assert third_party == ""


# an exit handler registered before main runs after the ones main registers
EXIT_PROBE = """
import atexit, gc
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0))
import abeforge.cli
abeforge.cli.main(["corpus", "show", "ax1"])
"""


def test_exit_freezes_the_heap_before_the_last_collections():
    out = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "frozen: True"


def test_a_reader_gone_before_the_first_write_exits_1_in_silence():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "abeforge.cli", "replay", "--emit", "json"],
            env=child_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")

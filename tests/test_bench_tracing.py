"""The benchmark's traced run wraps every span target in every namespace
that binds it.  A renamed target, or one held where the tracer cannot
reach it, would otherwise only show up in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "bench")!r}, {str(ROOT / "src")!r}]
import thinshell
import thinshell.cli  # the benchmark loads the CLI before it installs the tracer
from tracer import SPAN_NAMES, Tracer
assert thinshell.__file__.startswith({str(ROOT / "src")!r}), thinshell.__file__
tracer = Tracer()
tracer.install()
print(json.dumps({{"missing": tracer.missing, "unwrapped": tracer.unwrapped(),
                  "spans": list(SPAN_NAMES), "bindings": tracer.bindings}}))
"""


def test_tracer_installs_against_src():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["unwrapped"] == []
    # every span target is bound somewhere, at least in its own module
    for span in result["spans"]:
        assert f"thinshell.{span}" in result["bindings"], span

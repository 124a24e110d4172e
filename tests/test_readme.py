"""The README's library quick start runs as written and prints what it says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first fenced Python block under "## Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comment():
    code = quick_start()
    tv_shown, bound_shown = re.search(r"# ([0-9.]+) <= ([0-9.]+)", code).groups()
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    tv, bound, passed = out.getvalue().split()
    assert f"{float(tv):.{len(tv_shown) - 2}f}" == tv_shown
    assert f"{float(bound):.{len(bound_shown) - 2}f}" == bound_shown
    assert passed == "True"
    # the route reads c_hat alone, so the integrability scan never runs
    assert "prereqs" not in namespace["model"]._cache

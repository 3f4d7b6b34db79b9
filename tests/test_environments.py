"""Two runs of other test files in a child process, each under a condition this process cannot take back.

- With every SIMD target numpy dispatches to switched off, the artifacts, the
  fast paths and the float text are unchanged: the bytes do not depend on
  which sort or arithmetic kernel numpy picks, nor the writer's uint64
  arithmetic on the CPU's vector width.
- With scipy, hypothesis and mpmath refused at import, every command and
  script still runs and writes the golden artifacts: the runtime takes
  numpy alone. The refusal is an import hook (a MetaPathFinder that raises
  ImportError), since blocking through sys.modules breaks pytest's
  assertion rewriting. It is a sitecustomize module in a directory put
  first on PYTHONPATH, so every Python process the child starts in turn,
  such as the pytest runs of scripts/mutants.py, refuses them too.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a sitecustomize module, which Python imports at startup: refuses the test-only packages wherever they are imported
_REFUSE_TEST_ONLY = """
import importlib.abc
import sys


class RefuseTestOnly(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis", "mpmath"):
            raise ImportError(f"{name} is refused: the commands and scripts take numpy alone")


sys.meta_path.insert(0, RefuseTestOnly())
"""


# run in the child before pytest: the variable took effect
_CHECK_SIMD_OFF = """
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

assert not any(__cpu_features__[target] for target in __cpu_dispatch__), "a SIMD target is still dispatched to"
"""


def _pytest(files: list[str], prelude: str = "", first_on_path: str = "", **env: str) -> str:
    """Run pytest on `files` in a child process with `env` added, after `prelude` and with `first_on_path` first
    on its PYTHONPATH; its output if every test passed."""
    code = prelude + "\nimport pytest\nraise SystemExit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n"
    path = os.pathsep.join(p for p in (first_on_path, os.path.join(ROOT, "src"), ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code, *files],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc.stdout


def test_artifacts_do_not_depend_on_simd_dispatch():
    from numpy._core._multiarray_umath import __cpu_dispatch__

    # the target names differ between numpy releases and numpy refuses one it does not know, so the list is its own
    files = ["tests/test_golden.py", "tests/test_fast_paths.py", "tests/test_float_text.py"]
    out = _pytest(files, prelude=_CHECK_SIMD_OFF, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    assert " passed" in out and "skipped" not in out, out


def test_commands_and_scripts_run_on_numpy_alone(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(_REFUSE_TEST_ONLY, encoding="utf-8")
    out = _pytest(["tests/test_golden.py", "tests/test_scripts.py"], first_on_path=str(tmp_path))
    assert " passed" in out and "skipped" not in out, out

"""Importing the validation loop loads no scipy beyond ``scipy.sparse``.

Algorithm 1's loop runs on numpy and ``scipy.sparse``. The two other
scipy subpackages ``src/`` calls, ``scipy.stats`` (Appendix B's
``pearsonr``) and ``scipy.linalg`` (Appendix E's ``solve_triangular``),
are imported inside the one function that calls each. At module scope
they loaded about 415 more scipy modules and about 49 MB into every
process that imported the loop.

Each check starts a fresh interpreter, so modules the test session has
already imported do not count. The allowed set is what ``import
scipy.sparse`` alone loads in the same interpreter, which keeps the test
independent of the scipy version. ``repro.partitioning`` is left out: its
own functions use ``scipy.sparse.linalg`` and ``csgraph``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SUBPACKAGES = ("core", "process", "guidance", "streaming", "state",
               "metrics", "workers", "experts", "scenarios", "experiments",
               "telemetry", "simulation", "io", "costmodel")


def _scipy_modules_after(statement: str) -> set[str]:
    """The ``scipy`` modules loaded after ``statement`` runs in a fresh
    interpreter with ``src/`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = (f"{statement}\n"
              "import sys\n"
              "print('\\n'.join(name for name in sys.modules\n"
              "                 if name.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    return set(result.stdout.split())


def test_importing_the_loop_loads_no_scipy_beyond_sparse():
    allowed = _scipy_modules_after("import scipy.sparse")
    loaded = _scipy_modules_after("import repro\n" + "\n".join(
        f"import repro.{name}" for name in SUBPACKAGES))
    extra = sorted(loaded - allowed)
    assert not extra, (f"{len(extra)} scipy modules beyond scipy.sparse, "
                       f"e.g. {extra[:10]}")

"""The package must not pull in ``scipy.stats`` or ``scipy.optimize``.

Together they are most of a fresh interpreter's import time and
start-up memory, and neither is needed to simulate or serve: the normal
and Student-t functions come from ``scipy.special`` (the same bits), and
the two root/minimize solvers import ``scipy.optimize`` where they run.
A module-level import creeping back would also put a lazy import inside
the first timed pass of a benchmark, so this runs a smoke sweep, a smoke
fault-mode serve and a smoke ``bench`` in a fresh interpreter and
checks ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
import repro
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["run", "figure3", "--scale", "smoke"])
    main(["serve", "--speeds", "1,2,3", "--utilization", "0.6",
          "--duration", "2000", "--resolve-period", "100",
          "--faults", "mtbf=500,mttr=50", "--json"])
    main(["bench", "--scale", "smoke", "--output", "BENCH_probe.json"])
print(json.dumps(sorted(
    m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules
)))
"""


def test_sweep_and_faulted_serve_leave_scipy_stats_and_optimize_unimported(
    tmp_path,
):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []

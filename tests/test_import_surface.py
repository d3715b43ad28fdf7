"""Which heavy scipy stacks a process loads, by the path it runs.

``scipy.sparse.linalg`` (SuperLU) loads with the first factored solve,
``scipy.linalg`` (LAPACK) with the dense oracle, and ``scipy.sparse.csgraph``
never: a run on the conjugate-gradient path, contour export included,
needs numpy and ``scipy.sparse`` alone.  Each case runs in a fresh
interpreter, since this test session has long since imported all three.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import membrane_opt as mo

HEAVY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")


def _heavy_modules(setup, action):
    """The HEAVY modules loaded after ``setup`` and after ``action``,
    both run in one fresh interpreter."""
    loaded = f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    script = ("import json, sys\nimport numpy as np\nimport membrane_opt.cli\n"
              "import membrane_opt as mo\n" + textwrap.dedent(setup) + loaded
              + textwrap.dedent(action) + loaded)
    env = {**os.environ, "PYTHONPATH": str(Path(mo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    before, after = proc.stdout.splitlines()[-2:]
    return json.loads(before), json.loads(after)


def test_conjugate_gradient_path_and_contours_load_no_heavy_stack():
    before, after = _heavy_modules("""
        plate = mo.build_grid(mo.square_spec(1.0 / 8, dimension=3))
        spec = mo.ProblemSpec(grid=plate, rho_min=0.5, rho_max=2.0,
                              mass=mo.domain_volume(plate), order=4)
        square = mo.build_grid(mo.square_spec(1.0 / 8))
        x, y = square.coordinates().T
        phi = x * (1.0 - x) * y * (1.0 - y)
        level = float(np.median(phi))
    """, """
        assert spec.stiffness.factor is None
        mo.minimize(spec)
        contours = mo.extract_contour(phi, level, square)
        assert contours.region_components == 1
        assert mo.count_components(np.flatnonzero(phi <= level), square) == 1
    """)
    assert before == after == []


def test_factored_solve_loads_superlu():
    before, after = _heavy_modules("""
        g = mo.build_grid(mo.square_spec(1.0 / 8))
        spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=mo.domain_volume(g))
    """, """
        assert spec.stiffness.factored
        mo.minimize(spec)
    """)
    assert before == []
    assert "scipy.sparse.linalg" in after and "scipy.sparse.csgraph" not in after


def test_oracle_loads_lapack():
    before, after = _heavy_modules("""
        g = mo.build_grid(mo.square_spec(1.0, side=3.0))
        spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=5.0)
    """, """
        mo.enumerate_optimal(spec)
    """)
    assert before == []
    assert "scipy.linalg" in after and "scipy.sparse.csgraph" not in after

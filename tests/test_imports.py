"""Which commands load the heavy modules: only the closed-form `ft` loads
scipy (fourierlab.ft_sphere_radial imports scipy.special.jv), and only the
quadrature oracle, fourierlab.ft_quadrature, loads numpy.polynomial.  No
command but the closed-form `ft` (scipy.special loads concurrent.futures)
loads a pool module, concurrent.futures, queue or multiprocessing: the Monte
Carlo drawing thread is a bare threading.Thread, and numpy loads threading.
Checked in a fresh interpreter, since the test session itself has loaded
these long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import configeo

HEAVY = ("scipy", "numpy.f2py", "numpy.polynomial", "concurrent.futures", "queue", "multiprocessing")

# after the imports, after each command in turn, in one interpreter
SCRIPT = """
import json, sys, tempfile
import configeo, configeo.cli
loaded = {"import": [m for m in HEAVY if m in sys.modules]}
with tempfile.TemporaryDirectory() as out:
    for argv in COMMANDS:
        code = configeo.cli.main(argv + ["--seed", "1", "--out", out])
        loaded[argv[0]] = [m for m in HEAVY if m in sys.modules] if code == 0 else code
print(json.dumps(loaded))
"""

COMMANDS = [
    ["count", "--kind", "lattice", "--d", "2", "--m", "4", "--family", "simplex", "--k", "1",
     "--t", "0.5", "--delta", "0.01"],
    ["energy", "--kind", "uniform_random", "--d", "2", "--n", "50", "--s-grid", "1;1.9"],
    ["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex", "--k", "1",
     "--schedule", "10;20;40", "--t", "0.3"],
    ["gen", "--kind", "lattice", "--d", "2", "--m", "3"],
    ["dim", "--kind", "lattice", "--d", "2", "--m", "10", "--scales", "0.5;0.25;0.125"],
    ["curvature"],
    ["ft", "--kind", "chain_spheres", "--d", "3", "--rmin", "1", "--rmax", "10", "--nradii", "5",
     "--samples", "10000"],
]

FT_CLOSED = ["ft", "--kind", "sphere", "--d", "3", "--rmin", "1", "--rmax", "10", "--nradii", "5"]


def _fresh(code: str):
    """The last stdout line of code, run in a fresh interpreter, as JSON."""
    src = str(Path(configeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"HEAVY = {HEAVY!r}\n{code}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded():
    return _fresh(f"COMMANDS = {COMMANDS!r}\n{SCRIPT}")


def test_importing_the_package_and_cli_leaves_scipy_out(loaded):
    assert loaded["import"] == []


@pytest.mark.parametrize("command", [argv[0] for argv in COMMANDS[:-1]])
def test_every_command_but_ft_leaves_scipy_out(loaded, command):
    assert loaded[command] == []


def test_monte_carlo_ft_command_leaves_scipy_out(loaded):
    # chain_spheres at d = 3: sphere_area takes Gamma(3/2) from math.gamma
    assert loaded["ft"] == []


def test_closed_form_ft_loads_scipy():
    # jv is the one scipy function the package calls, at every d
    assert "scipy" in _fresh(f"COMMANDS = {[FT_CLOSED]!r}\n{SCRIPT}")["ft"]


# the modules loaded after the import, then after one quadrature call
QUADRATURE = """
import json, sys
from configeo.fourierlab import MeasureSpec, ft_quadrature
loaded = [[m for m in HEAVY if m in sys.modules]]
ft_quadrature(MeasureSpec.sphere(3), [1.0, 0.0, 0.0], 16)
loaded.append([m for m in HEAVY if m in sys.modules])
print(json.dumps(loaded))
"""


def test_quadrature_ft_loads_numpy_polynomial_and_nothing_else():
    assert _fresh(QUADRATURE) == [[], ["numpy.polynomial"]]


# sphere_area takes Gamma(d/2) from math.gamma, so no Monte Carlo draw loads
# scipy.special at any d
MONTE_CARLO = """
import json, sys
from configeo.fourierlab import FrequencyPoint, MeasureSpec, ft_montecarlo
for spec in {specs}:
    ft_montecarlo(spec, [FrequencyPoint.of(*([1.0] + [0.0] * (w - 1) for w in spec.block_dims))],
                  0.05, 10**4, 0)
print(json.dumps([m for m in HEAVY if m in sys.modules]))
"""


def test_monte_carlo_at_even_d_leaves_scipy_out():
    # the triangle2d draw among them
    specs = ("(MeasureSpec.triangle2d(), MeasureSpec.chain_spheres(2), MeasureSpec.sphere(4), "
             "MeasureSpec.sphere(52))")
    assert _fresh(MONTE_CARLO.format(specs=specs)) == []


def test_monte_carlo_at_odd_d_leaves_scipy_out():
    specs = ("(MeasureSpec.sphere(3), MeasureSpec.determinant_variety(0.2), MeasureSpec.sphere(51), "
             "MeasureSpec.sphere(53))")
    assert _fresh(MONTE_CARLO.format(specs=specs)) == []

"""The lazy package namespace and what each entry point imports.

Imports are checked in fresh interpreters: inside the test session every
module is already loaded, so a missing function-local import in ``cli`` or a
new module-level import would go unseen there.
"""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import diracspec
from diracspec import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diracspec.__file__)))


def _fresh(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **kwargs)


def test_every_public_name_is_its_submodule_object():
    listing = dir(diracspec)
    assert len(diracspec.__all__) == len(set(diracspec.__all__)) == 73
    for name in diracspec.__all__:
        home = importlib.import_module(f"diracspec.{diracspec._HOME[name]}")
        assert getattr(diracspec, name) is getattr(home, name), name
        assert name in listing


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="SolverConfig"):
        diracspec.SolverConfig
    assert not hasattr(diracspec, "two_spectra_constant")


def test_star_import_binds_every_name():
    ns = {}
    exec("from diracspec import *", ns)
    assert set(diracspec.__all__) <= set(ns)
    assert ns["find_eigenvalues"] is diracspec.eigen.find_eigenvalues


_FOOTPRINT = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("diracspec"))
import diracspec.cli
print(loaded(), "numpy" in sys.modules)
from diracspec import find_eigenvalues
print(loaded())
import diracspec
print(diracspec.halfaxis.surgery is diracspec.surgery)
"""


def test_import_footprint():
    """cli loads no numerical module; one public name loads only its submodule's imports."""
    out, err = _fresh(["-c", _FOOTPRINT]).communicate()
    lines = out.decode().splitlines()
    assert lines == [
        "['diracspec', 'diracspec.cli'] False",
        "['diracspec', 'diracspec.cauchy', 'diracspec.cli', 'diracspec.core', 'diracspec.eigen']",
        "True",
    ], err.decode()


def _write_inputs(d):
    """Small inputs for every subcommand that reads a file: lattice spectra of the zero potential."""
    d.mkdir()
    for name, alpha in (("a.json", 0.0), ("e.json", 0.5)):
        items = [{"n": n, "lambda": n - alpha / math.pi} for n in range(-30, 31)]
        (d / name).write_text(json.dumps({"alpha": alpha, "beta": 0.0, "items": items}))
    # a_1 = pi e^(-1/2): the reconstruction is a closed-form isospectral family
    items = [{"n": n, "lambda": float(n), "a": math.pi * (math.exp(-0.5) if n == 1 else 1.0)}
             for n in range(-8, 9)]
    (d / "spec.json").write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "items": items}))
    (d / "plan.json").write_text(json.dumps({"remove": [0]}))
    return {
        "spectrum": ["--grid", "256", "--nmin", "-3", "--nmax", "3", "--out", "out.json"],
        "two-spectra": ["--spec-a", d / "a.json", "--spec-e", d / "e.json", "--trunc", "20",
                        "--nmin", "-2", "--nmax", "2", "--out", "out.json"],
        "isospectral": ["--grid", "256", "--shift", "1=0.5", "--out", "out.csv"],
        "reconstruct": ["--spec", d / "spec.json", "--trunc", "8", "--grid", "128", "--out", "out.csv"],
        "surgery": ["--plan", d / "plan.json", "--window", "6", "--xmax", "10", "--grid", "256",
                    "--out", "out.csv"],
        "evf": ["--grid", "256", "--gamma", "0.5", "--out", "out.csv"],
        "weyl": ["--mu", "50", "--xmax", "10", "--grid", "256", "--out", "out.json"],
    }


def test_fresh_interpreter_runs_of_every_subcommand_match_in_process(tmp_path, monkeypatch, capsys):
    """``python -m diracspec <command>`` in a new process writes the bytes ``cli.main`` writes."""
    commands = _write_inputs(tmp_path / "in")
    procs = {}
    for cmd, argv in commands.items():
        cwd = tmp_path / "fresh" / cmd
        cwd.mkdir(parents=True)
        procs[cmd] = _fresh(["-m", "diracspec", cmd, *map(str, argv)], cwd=cwd)
    for cmd, argv in commands.items():
        cwd = tmp_path / "warm" / cmd
        cwd.mkdir(parents=True)
        monkeypatch.chdir(cwd)
        assert cli.main([cmd, *map(str, argv)]) == 0, cmd
        assert capsys.readouterr().out == ""
    for cmd, proc in procs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
        assert out == b"", cmd
        fresh, warm = tmp_path / "fresh" / cmd, tmp_path / "warm" / cmd
        names = sorted(p.name for p in warm.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir()) and len(names) == 2, cmd
        for name in names:
            assert (fresh / name).read_bytes() == (warm / name).read_bytes(), (cmd, name)

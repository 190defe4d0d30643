"""Import boundary of the CLI and parity of what replaced SciPy on it.

Every ``python -m repro`` command used to import SciPy (~0.7 s) through
the eager package inits, although only Fig. 2's rank correlation called
it.  These tests pin the boundary: the commands a user runs cold work
with SciPy unimportable, the parser-only commands load no NumPy, the
lazy package inits resolve exactly what the eager ones exported, and
the NumPy Spearman correlation equals SciPy's bit for bit.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

import repro
from repro.experiments.fig2_p100_n18432 import _rank_correlation_cols

SRC = Path(repro.__file__).resolve().parents[1]

#: Installed as ``sitecustomize`` in the child: SciPy cannot be
#: imported, and the heavy modules loaded by exit are reported last
#: on stderr.
BLOCK_SCIPY = '''
import atexit
import sys


class _BlockSciPy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked in this test")
        return None


sys.meta_path.insert(0, _BlockSciPy())
atexit.register(
    lambda: print(
        "heavy:", *sorted({"numpy", "scipy"} & set(sys.modules)),
        file=sys.stderr,
    )
)
'''

#: The commands of the benchmark's ``cli-cold`` mix (the warm-store
#: ``all`` differs from ``all`` only in where points come from).
COLD_COMMANDS = [
    ["--help"],
    ["devices", "list"],
    ["sweep", "--device", "k40c", "--n", "4096"],
    ["sweep", "--device", "p100", "--n", "8192"],
    ["tradeoff", "--device", "p100", "--n", "10240"],
    ["experiment", "fig7"],
    ["experiment", "headline"],
    ["all"],
]

#: Commands that only parse arguments and read the device registry.
PARSER_ONLY = (["--help"], ["devices", "list"])


def _run(argv, tmp_path, *, block: bool) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if block:
        site = tmp_path / "site"
        site.mkdir(exist_ok=True)
        (site / "sitecustomize.py").write_text(BLOCK_SCIPY)
        env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=" ".join)
def test_cold_command_runs_without_scipy(argv, tmp_path):
    reference = _run(argv, tmp_path, block=False)
    blocked = _run(argv, tmp_path, block=True)
    assert reference.returncode == 0, reference.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == reference.stdout
    heavy = blocked.stderr.splitlines()[-1].split()[1:]
    assert "scipy" not in heavy
    if argv in PARSER_ONLY:
        assert heavy == []


class TestRankCorrelationParity:
    """``_rank_correlation_cols`` is SciPy's ``spearmanr`` statistic."""

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_equals_spearmanr_exactly(self, ties):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2022 + ties)
        for _ in range(300):
            n = int(rng.integers(3, 400))
            if ties:
                a = rng.integers(0, 6, n).astype(float)
                b = rng.integers(0, 9, n).astype(float)
            else:
                a = rng.random(n)
                b = a * rng.random(n) + 0.1 * rng.random(n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # constant-input draws
                expected = stats.spearmanr(a, b).statistic
            got = _rank_correlation_cols(a, b)
            assert got == expected or (np.isnan(got) and np.isnan(expected))

    @pytest.mark.parametrize(
        ("a", "b"),
        [
            ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]),
            ([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 2.0, 3.0, 4.0], [np.nan, 2.0, 3.0, 4.0]),
        ],
        ids=["constant-a", "constant-b", "nan-a", "nan-b"],
    )
    def test_undefined_is_nan(self, a, b):
        assert np.isnan(_rank_correlation_cols(np.array(a), np.array(b)))


LAZY_PACKAGES = ["simgpu", "measurement", "core", "apps", "sweep", "analysis"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyPackageInit:
    def test_exports_are_the_submodule_objects(self, name):
        package = importlib.import_module(f"repro.{name}")
        listing = dir(package)
        for submodule, exports in package._SUBMODULES.items():
            defining = importlib.import_module(f"repro.{name}.{submodule}")
            for export in exports:
                value = getattr(defining, export)
                assert getattr(package, export) is value
                assert export in listing
                if isinstance(value, (type, FunctionType)):
                    assert value.__module__ == defining.__name__
        assert sorted(package.__all__) == sorted(
            n for names in package._SUBMODULES.values() for n in names
        )

    def test_submodules_resolve_as_attributes(self, name):
        package = importlib.import_module(f"repro.{name}")
        for submodule in package._SUBMODULES:
            assert getattr(package, submodule) is importlib.import_module(
                f"repro.{name}.{submodule}"
            )

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(f"repro.{name}")
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name

    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from repro.{name} import *", namespace)
        package = importlib.import_module(f"repro.{name}")
        assert set(package.__all__) <= set(namespace)

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import oscillab
from oscillab import core, reduction

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("module", [oscillab, core, reduction],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # loading a script runs its imports and definitions, not main()
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps oscillab's functions by module attribute at
    # run time, so a renamed or deleted one breaks every traced benchmark run
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "import tracer, oscillab.cli\n"
            "tracer.install(tracer.Tracer('check'), oscillab.cli)\n")
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                          str(ROOT / "src")], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr

import io
import os
import subprocess
import sys
import types
from pathlib import Path

import ebsbm


def test_all_names_public_api_without_submodules():
    # __all__ once listed every submodule, so a star import rebound io
    assert ebsbm.__all__
    for name in ebsbm.__all__:
        assert not isinstance(getattr(ebsbm, name), types.ModuleType), name
    namespace = {}
    exec("import io\nfrom ebsbm import *", namespace)
    assert namespace["io"] is io
    assert {"run_experiment", "ExperimentConfig", "read_edge_list"} <= set(namespace)


def test_import_leaves_scipy_optimize_out():
    # the package's fit needs no scipy.optimize, whose import alone costs
    # about 0.1-0.2 s of every command's start-up
    src = os.path.dirname(os.path.dirname(ebsbm.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, ebsbm; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


FALSIFIED_THEN_PLAIN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_after():
    pass
'''


def test_falsified_property_does_not_end_the_session(tmp_path):
    # under the repo's warning filters, hypothesis's report of a falsified
    # property once raised mypy_extensions' TypedDict DeprecationWarning
    # inside a pytest hook: an INTERNALERROR that skipped every later test
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_pair.py").write_text(FALSIFIED_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert run.returncode == 1 and "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]

import io
import os
import subprocess
import sys
import types

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

import io
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

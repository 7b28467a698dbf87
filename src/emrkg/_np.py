"""numpy, loaded on its first attribute access.

Modules take ``np`` from here (``from emrkg._np import np``) and never
``import numpy``, so a subcommand that makes no array pays nothing for
numpy at start-up. This is the standard library's recipe "Implementing
lazy imports"; a numpy that is already loaded is used as it is.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

"""The package's public surface."""

import gridseg


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks `from gridseg import *`
    missing = [name for name in gridseg.__all__ if not hasattr(gridseg, name)]
    assert missing == [] and len(set(gridseg.__all__)) == len(gridseg.__all__)

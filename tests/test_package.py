"""The package's public export list."""

import consensim


def test_star_import_exports_exactly_the_listed_package_names():
    namespace: dict = {}
    exec("from consensim import *", namespace)
    del namespace["__builtins__"]
    assert len(consensim.__all__) == len(set(consensim.__all__))
    assert set(namespace) == set(consensim.__all__)
    for name, value in namespace.items():
        assert value.__module__.split(".")[0] == "consensim", name

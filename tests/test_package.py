import waferspr


def test_every_exported_name_imports():
    # A stale name in __all__ makes the star import raise AttributeError.
    namespace = {}
    exec("from waferspr import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(waferspr.__all__)
    assert len(set(waferspr.__all__)) == len(waferspr.__all__)

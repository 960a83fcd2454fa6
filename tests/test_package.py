import ctrkd


def test_star_import_gives_exactly_the_exported_names():
    namespace = {}
    exec("from ctrkd import *", namespace)  # AttributeError on a name that does not resolve
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(ctrkd.__all__)) == sorted(ctrkd.__all__)

import pmdg


def test_public_surface_is_sorted_unique_and_complete():
    names = pmdg.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(pmdg, name), name
    namespace: dict = {}
    exec("from pmdg import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)

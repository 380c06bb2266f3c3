import qrank


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import itself fail
    namespace: dict = {}
    exec("from qrank import *", namespace)
    assert sorted(set(qrank.__all__) - namespace.keys()) == []

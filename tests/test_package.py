import attopmm


def test_every_public_name_resolves():
    assert len(set(attopmm.__all__)) == len(attopmm.__all__)
    missing = [name for name in attopmm.__all__ if not hasattr(attopmm, name)]
    assert not missing, missing
    namespace = {}
    exec("from attopmm import *", namespace)
    assert set(attopmm.__all__) <= set(namespace)

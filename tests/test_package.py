import pckad


def test_every_exported_name_resolves():
    # `from pckad import *` fails on a name left in __all__ after its import goes
    missing = [name for name in pckad.__all__ if not hasattr(pckad, name)]
    assert missing == []

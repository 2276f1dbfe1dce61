"""The package's public names."""

import chowline


def test_every_public_name_resolves():
    missing = [name for name in chowline.__all__
               if not hasattr(chowline, name)]
    assert missing == []
    assert len(set(chowline.__all__)) == len(chowline.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chowline import *", namespace)
    assert set(chowline.__all__) <= set(namespace)

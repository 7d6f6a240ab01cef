import hapdock


def test_every_exported_name_resolves():
    missing = [name for name in hapdock.__all__ if not hasattr(hapdock, name)]
    assert missing == []
    assert len(set(hapdock.__all__)) == len(hapdock.__all__)

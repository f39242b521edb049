import mot3d


def test_every_public_name_resolves():
    assert [name for name in mot3d.__all__ if not hasattr(mot3d, name)] == []
    assert len(set(mot3d.__all__)) == len(mot3d.__all__)

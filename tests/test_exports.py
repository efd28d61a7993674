import normtower


def test_every_exported_name_resolves():
    missing = [name for name in normtower.__all__ if not hasattr(normtower, name)]
    assert not missing
    assert len(set(normtower.__all__)) == len(normtower.__all__)

import polyaig


def test_every_exported_name_resolves():
    missing = [name for name in polyaig.__all__ if not hasattr(polyaig, name)]
    assert not missing
    assert len(set(polyaig.__all__)) == len(polyaig.__all__)

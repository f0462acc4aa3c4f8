import qcorr


def test_every_exported_name_resolves():
    missing = [name for name in qcorr.__all__ if not hasattr(qcorr, name)]
    assert missing == []
    assert len(set(qcorr.__all__)) == len(qcorr.__all__)

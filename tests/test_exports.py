import pdhgsdp


def test_every_export_resolves():
    missing = [name for name in pdhgsdp.__all__ if not hasattr(pdhgsdp, name)]
    assert missing == []

"""The package's export list names exactly its public attributes."""

import inspect

import zsseq


def test_every_export_resolves():
    for name in zsseq.__all__:
        assert hasattr(zsseq, name), name


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(zsseq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(zsseq.__all__)

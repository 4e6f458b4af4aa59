"""The package's public namespace."""

import types

import mrfsdp


def test_star_import_binds_no_module():
    namespace = {}
    exec("from mrfsdp import *", namespace)
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    # the old per-method result names stay
    assert namespace["FusesResult"] is namespace["DarsResult"] is mrfsdp.SolveResult

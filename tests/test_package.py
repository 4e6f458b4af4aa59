"""The package's public namespace."""

import types

import mrfsdp


def test_star_import_binds_no_module():
    namespace = {}
    exec("from mrfsdp import *", namespace)
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    # the old per-method result names stay
    assert namespace["FusesResult"] is namespace["DarsResult"] is mrfsdp.SolveResult


def test_unused_names_are_not_exported():
    # no caller used these; the manifold references live in the tests, and
    # the kernel is the generator's one edge model
    for name in ("pm_to_labeling", "zo_to_labeling",
                 "InfeasibleAssignmentError", "riemannian_gradient",
                 "riemannian_hessian_vec", "manifold_residual",
                 "tangent_residual", "ConstantWeights", "UniformWeights",
                 "binary_weight_from_features"):
        assert not hasattr(mrfsdp, name), name

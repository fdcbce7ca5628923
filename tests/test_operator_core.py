"""Ladder operators, coordinate pairs, and the quantized distance spectrum."""

import numpy as np
import pytest

from ncplane import (
    CommutatorReport,
    DissipativeParams,
    MagneticParams,
    NcParams,
    build_ladder,
    build_xy,
    commutator,
    commutator_table,
    cyclotron_operators,
    distance_spectrum,
    doubled_operators,
    hermiticity_defect,
    require_dim,
    tensor_operators,
)
from ncplane.dissipative_dynamics import _doubled_factors
from ncplane.landau import _cyclotron_factors


def test_ladder_matrix_elements():
    Z, Zdag = build_ladder(5)
    for n in range(1, 5):
        assert Z[n - 1, n] == np.sqrt(n)
    # everything off the first superdiagonal vanishes
    assert np.count_nonzero(Z) == 4
    assert np.array_equal(Zdag, Z.conj().T)


def test_ladder_commutator_dim3():
    Z, Zdag = build_ladder(3)
    C = commutator(Z, Zdag)
    # sqrt(2)*sqrt(2) rounds to 2 + 4e-16, so compare at float precision
    np.testing.assert_allclose(np.diag(C), [1.0, 1.0, -2.0], rtol=1e-15)
    assert np.count_nonzero(C - np.diag(np.diag(C))) == 0


def test_ladder_commutator_artifact_scales_with_dim():
    for dim in (2, 4, 7, 16):
        Z, Zdag = build_ladder(dim)
        C = commutator(Z, Zdag)
        clean = np.diag(C)[:-1]
        np.testing.assert_allclose(clean.real, 1.0, rtol=0, atol=1e-14)
        assert C[dim - 1, dim - 1] == pytest.approx(-(dim - 1))


def test_dimension_guard():
    with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
        require_dim(1)
    with pytest.raises(ValueError):
        build_ladder(0)
    require_dim(2)  # boundary value is fine


def test_commutator_rejects_mismatched_shapes():
    a = np.eye(3)
    b = np.eye(4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator(a, b)


def test_params_validation():
    with pytest.raises(ValueError):
        NcParams(L=0.0)
    with pytest.raises(ValueError):
        NcParams(L=1.0, hbar=-1.0)
    p = NcParams(L=0.5)
    assert p.L2 == 0.25


def test_xy_are_hermitian():
    params = NcParams(L=1.3)
    X, Y = build_xy(params, 8)
    assert hermiticity_defect(X) < 1e-14
    assert hermiticity_defect(Y) < 1e-14
    # the bare ladder operator is not Hermitian, sanity check the defect measure
    Z, _ = build_ladder(8)
    assert hermiticity_defect(Z) > 0.9


def test_xy_commutator_leading_block():
    for L in (1.0, 2.0):
        params = NcParams(L=L)
        X, Y = build_xy(params, 6)
        C = commutator(X, Y)
        assert C[0, 0] == pytest.approx(1j * L**2)
        assert C[1, 1] == pytest.approx(1j * L**2)
        assert C[5, 5] == pytest.approx(-5j * L**2)


def test_vacuum_uncertainty_product():
    # ground state of the number operator saturates Delta X * Delta Y = L^2 / 2
    params = NcParams(L=0.7)
    X, Y = build_xy(params, 12)
    e0 = np.zeros(12)
    e0[0] = 1.0
    var_x = e0 @ (X @ X) @ e0 - (e0 @ X @ e0) ** 2
    var_y = e0 @ (Y @ Y) @ e0 - (e0 @ Y @ e0) ** 2
    product = np.sqrt(var_x.real * var_y.real)
    assert product == pytest.approx(params.L2 / 2, rel=1e-12)


def test_distance_spectrum_frozen_values():
    np.testing.assert_allclose(
        distance_spectrum(NcParams(L=1.0), 4), [1.0, 3.0, 5.0, 7.0], rtol=1e-12
    )
    np.testing.assert_allclose(
        distance_spectrum(NcParams(L=0.5), 3), [0.25, 0.75, 1.25], rtol=1e-12
    )


def test_distance_spectrum_is_sorted_and_scaled():
    values = distance_spectrum(NcParams(L=2.0), 10)
    assert np.all(np.diff(values) > 0)
    np.testing.assert_allclose(values, 4.0 * (2 * np.arange(10) + 1), rtol=1e-10)
    # unsorted: each step that forms the values keeps their order, at any scale
    for L in (1e-160, 1e-3, 1e150):
        assert np.all(np.diff(distance_spectrum(NcParams(L=L), 1000)) > 0)


def test_commutator_table_report():
    params = NcParams(L=1.0)
    dim = 5
    X, Y = build_xy(params, dim)
    report = commutator_table([[("X", X), ("Y", Y)]], dim)
    assert isinstance(report, CommutatorReport)
    assert report.labels == ("X", "Y")
    assert report.leading[0, 1] == pytest.approx(1j)
    assert report.leading[1, 0] == pytest.approx(-1j)
    assert report.artifact[0, 1] == pytest.approx(-(dim - 1) * 1j)
    assert report.max_clean_deviation() < 1e-13
    assert report.dim == dim


def test_commutator_table_names_a_matrix_of_the_wrong_shape():
    X, Y = build_xy(NcParams(L=1.0), 5)
    with pytest.raises(ValueError, match="operator 'W' must be 5 x 5, got shape \\(4, 4\\)"):
        commutator_table([[("X", X), ("Y", Y)], [("W", np.eye(4))]], 5)


def test_commutator_table_needs_a_clean_block():
    X, Y = build_xy(NcParams(L=1.0), 2)
    with pytest.raises(ValueError, match="dim must be >= 3, got 2"):
        commutator_table([[("X", X), ("Y", Y)]], 2)


FAMILIES = {
    "magnetic": (_cyclotron_factors, cyclotron_operators, MagneticParams(B=0.7, hbar=1.3)),
    "dissipative": (_doubled_factors, doubled_operators, DissipativeParams(M=1.3, R=0.4, hbar=0.9)),
}


@pytest.mark.parametrize("dim", range(3, 9))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_factor_table_matches_tensor_space_brackets(family, dim):
    """The per-factor table reads what the dim^2 x dim^2 brackets say."""
    factors, operators, params = FAMILIES[family]
    groups = factors(params, dim)
    ops = tensor_operators(groups, dim)
    for label, m in operators(params, dim).items():
        assert np.array_equal(m, ops[label])
    report = commutator_table(groups, dim)
    assert report.labels == tuple(ops)
    group_of = [g for g, group in enumerate(groups) for _ in group]
    scale = max(abs(report.leading).max(), abs(report.artifact).max())
    tol = dict(rel=1e-13, abs=1e-13 * scale)
    for i, a in enumerate(report.labels):
        for j, b in enumerate(report.labels):
            c = commutator(ops[a], ops[b])
            if group_of[i] != group_of[j]:
                assert report.leading[i, j] == 0 and report.artifact[i, j] == 0
                assert np.abs(c).max() <= 1e-13 * scale
            elif i != j:
                assert c[0, 0] == pytest.approx(report.leading[i, j], **tol)
                assert c[-1, -1] == pytest.approx(report.artifact[i, j], **tol)


@pytest.mark.parametrize("call, match", [
    (lambda: require_dim(4.0), "dim must be an integer, got float"),
    (lambda: commutator(np.ones(3), np.eye(3)), "first operand is not square"),
    (lambda: commutator(np.eye(2), np.ones((2, 3))), "second operand is not square"),
], ids=["dim-float", "first-not-square", "second-not-square"])
def test_input_checks_raise_value_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()

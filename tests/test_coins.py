"""Tests for the quantum coin builder."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mapwalk
from mapwalk.coins import (CoinSpec, coin_matrix, coin_in_position_basis, twisted_dft,
                           unitarity_defect, _harper_matrix, _unitary)
from oracles import harper_matrix_direct

TOL = 1e-10


def test_dft_m2_is_hadamard():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(coin_matrix(CoinSpec("dft", 2)), expected, atol=1e-14)


def test_dft_m2_squares_to_identity():
    U = coin_matrix(CoinSpec("dft", 2))
    np.testing.assert_allclose(U @ U, np.eye(2), atol=1e-14)


def test_dft_m4_square_matches_brute_force_sum():
    # Oracle: (U^2)_{ag} = (1/M) sum_b exp(2 pi i b (a+g) / M), evaluated term
    # by term; it collapses to 1 when (a+g) % M == 0 and 0 otherwise.
    M = 4
    oracle = np.empty((M, M), dtype=complex)
    for a in range(M):
        for g in range(M):
            acc = 0.0 + 0.0j
            for b in range(M):
                acc += np.exp(2j * np.pi * (a * b + b * g) / M)
            oracle[a, g] = acc / M
    U = coin_matrix(CoinSpec("dft", M))
    np.testing.assert_allclose(U @ U, oracle, atol=1e-12)
    expected = np.array([[1 if (a + g) % M == 0 else 0 for g in range(M)]
                         for a in range(M)], dtype=complex)
    np.testing.assert_allclose(oracle, expected, atol=1e-12)


@pytest.mark.parametrize("M", [2, 4, 6, 10, 32, 64, 128])
def test_dft_fourth_power_is_identity(M):
    U = coin_matrix(CoinSpec("dft", M))
    U4 = np.linalg.matrix_power(U, 4)
    assert np.max(np.abs(U4 - np.eye(M))) < TOL


@pytest.mark.parametrize("M", [-2, 0, 1, 3, 7])
def test_dft_rejects_bad_dimension(M):
    with pytest.raises(ValueError):
        CoinSpec("dft", M)


def test_harper_g0_is_diagonal_kinetic_phase():
    M = 8
    U = coin_matrix(CoinSpec("harper", M, g=0.0, tau=1.0, phi=0.0))
    idx = np.arange(M)
    expected = np.diag(np.exp(-1j * M * np.cos(2 * np.pi * idx / M)))
    np.testing.assert_allclose(U, expected, atol=1e-12)


def test_harper_m1_relaxed_single_entry():
    # All indices collapse to 0: kinetic and kick phases are both exp(-i).
    U = _harper_matrix(1, g=1.0, tau=1.0, phi=0.0)
    np.testing.assert_allclose(U, [[np.exp(-2j)]], atol=1e-14)


def test_harper_m20_unitary():
    U = coin_matrix(CoinSpec("harper", 20, g=2.0, tau=1.0, phi=0.2))
    assert unitarity_defect(U) < TOL


@pytest.mark.parametrize("M", [2, 4, 10, 20, 64, 128])
@pytest.mark.parametrize("g", [0.0, 0.05, 1.0, 2.0])
@pytest.mark.parametrize("phi", [0.0, 0.2, 0.5])
def test_harper_fft_and_direct_paths_agree(M, g, phi):
    fast = _harper_matrix(M, g, 1.0, phi)
    slow = harper_matrix_direct(M, g, 1.0, phi)
    assert np.max(np.abs(fast - slow)) < TOL


def test_harper_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CoinSpec("harper", 3)  # odd M
    with pytest.raises(ValueError):
        CoinSpec("harper", 4, tau=0.0)
    with pytest.raises(ValueError):
        CoinSpec("harper", 4, tau=-1.0)


def test_baker_m2_unitary():
    B = coin_matrix(CoinSpec("baker", 2, phi=0.5))
    assert unitarity_defect(B) < TOL


def test_baker_m2_is_hadamard_up_to_basis_phases():
    # Derived by expanding the 2x2 product: B = D1 H D2 with the diagonal
    # phase matrices below, i.e. the Hadamard coin after phase
    # redefinitions of the basis states on both sides.
    B = coin_matrix(CoinSpec("baker", 2, phi=0.5))
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    D1 = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    D2 = np.diag([1.0, 1.0j])
    np.testing.assert_allclose(B, D1 @ H @ D2, atol=1e-12)


def test_baker_m4_determinant_modulus_one():
    B = coin_matrix(CoinSpec("baker", 4, phi=0.5))
    assert abs(abs(np.linalg.det(B)) - 1.0) < TOL


@pytest.mark.parametrize("M", [1, 3, 9])
def test_baker_rejects_odd_dimension(M):
    with pytest.raises(ValueError):
        CoinSpec("baker", M)


@pytest.mark.parametrize("M", [2, 4, 10, 64, 128])
@pytest.mark.parametrize("kind,kwargs", [
    ("dft", {}),
    ("harper", {"g": 2.0, "phi": 0.2}),
    ("baker", {}),
])
def test_all_builders_unitary_up_to_m128(M, kind, kwargs):
    U = coin_matrix(CoinSpec(kind, M, **kwargs))
    assert unitarity_defect(U) < TOL


def test_coin_spec_validation():
    with pytest.raises(ValueError, match="^kind: must be one of dft, harper, baker, got 'x'$"):
        CoinSpec("x", 2)
    with pytest.raises(ValueError,
                       match="^kind: must be one of dft, harper, baker, got 'standard'$"):
        CoinSpec("standard", 4)
    with pytest.raises(ValueError):
        CoinSpec("dft", 4, g=-0.5)
    with pytest.raises(ValueError):
        CoinSpec("dft", 4, phi=1.0)
    with pytest.raises(ValueError):
        CoinSpec("dft", 4, phi=-0.1)


def test_resolved_phi_defaults():
    assert CoinSpec("dft", 4).resolved_phi == 0.0
    assert CoinSpec("harper", 4).resolved_phi == 0.0
    assert CoinSpec("baker", 4).resolved_phi == 0.5
    assert CoinSpec("baker", 4, phi=0.25).resolved_phi == 0.25


def test_twisted_dft_symmetric_and_unitary():
    G = twisted_dft(6, 0.5)
    np.testing.assert_allclose(G, G.T, atol=1e-14)
    assert unitarity_defect(G) < TOL


def test_coin_basis_rotation_round_trip():
    U = coin_matrix(CoinSpec("harper", 8, g=1.0, phi=0.2))
    V = coin_in_position_basis(U, 0.2)
    assert unitarity_defect(V) < TOL
    F = np.conj(twisted_dft(8, 0.2))
    np.testing.assert_allclose(F.conj().T @ V @ F, U, atol=1e-12)


def test_coin_matrices_are_read_only():
    harper = coin_matrix(CoinSpec("harper", 4, g=2.0, phi=0.2))
    for U in (coin_matrix(CoinSpec("dft", 4)), harper, coin_matrix(CoinSpec("baker", 4)),
              coin_in_position_basis(harper, 0.2)):
        with pytest.raises(ValueError):
            U[0, 0] = 0.0


@pytest.mark.parametrize("M", [2, 4, 10, 64])
def test_dft_matrix_ignores_phi(M):
    # the DFT coin has no boundary phase: a set phi must leave every byte as it was
    U = coin_matrix(CoinSpec("dft", M, phi=0.3))
    assert U.tobytes() == coin_matrix(CoinSpec("dft", M)).tobytes()


@pytest.mark.parametrize("g, tau, field", [(math.nan, 1.0, "g:"), (math.inf, 1.0, "g:"),
                                           (1.0, math.nan, "tau:"), (1.0, math.inf, "tau:"),
                                           (1e200, 1e200, "tau*g:"), (1e307, 1.0, "tau*g:"),
                                           (0.5, 1e307, "tau:")])
def test_non_finite_harper_parameters_rejected(g, tau, field):
    # the last two keep tau*g finite, but the phases tau*g*M and tau*M of M = 64 overflow
    with pytest.raises(ValueError, match=f"^{re.escape(field)}"):
        CoinSpec("harper", 64, g=g, tau=tau)


def test_non_unitary_coin_raises_value_error():
    with pytest.raises(ValueError, match="coin matrix not unitary"):
        _unitary(np.ones((2, 2), dtype=np.complex128))
    with pytest.raises(ValueError, match="coin matrix not unitary"):
        _unitary(np.full((2, 2), np.nan, dtype=np.complex128))


def test_unitarity_checks_survive_python_O():
    code = """
import numpy as np
from mapwalk.coins import CoinSpec, _unitary
from mapwalk.walk import WalkConfig, build_dense
assert not __debug__
bad = np.ones((2, 2), dtype=np.complex128)
for name, check in (("coin", lambda: _unitary(bad)),
                    ("walk", lambda: build_dense(WalkConfig(L=4, coin=CoinSpec("dft", 2)), bad))):
    try:
        check()
    except ValueError as exc:
        print(name, "not unitary" in str(exc))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(mapwalk.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["coin", "True", "walk", "True"]

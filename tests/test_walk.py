"""Tests for the walk operator and its evolution."""

import math
from dataclasses import fields

import numpy as np
import pytest

from mapwalk.coins import CoinSpec, coin_in_position_basis, coin_matrix
from mapwalk.observables import site_probabilities
from mapwalk.walk import (WalkConfig, build_dense, build_momentum_blocks, _apply_blocks,
                          _block_stack, momentum_to_site)

TOL = 1e-10

ALL_COINS = [
    CoinSpec("dft", 2), CoinSpec("dft", 4),
    CoinSpec("harper", 2, g=2.0, phi=0.2), CoinSpec("harper", 4, g=0.5),
    CoinSpec("baker", 2), CoinSpec("baker", 4),
]


def coin_averaged_probs_dense(E, L, M, t):
    """Forward dense evolution of the M coin-basis starts, averaged."""
    psi = np.zeros((L * M, M), dtype=complex)
    psi[np.arange(M), np.arange(M)] = 1.0
    for _ in range(t):
        psi = E @ psi
    return (np.abs(psi) ** 2).reshape(L, M, M).sum(axis=(1, 2)) / M


def momentum_column(L, M, coin):
    """|site 0> x |coin> in the momentum basis, as an (L, M, 1) column per momentum."""
    psi = np.zeros((L, M, 1), dtype=complex)
    psi[:, coin, 0] = 1.0 / np.sqrt(L)
    return psi


def step_column(blocks, psi, steps):
    """The columns psi (L, M, 1) after ``steps`` steps: E_k^steps times column k."""
    return np.linalg.matrix_power(_block_stack(blocks), steps) @ psi


def block(blocks, k):
    """E_k = D_k U, the block the factored set stands for."""
    return _block_stack(blocks)[k]


def test_dense_single_step_hand_computed():
    # Hadamard coin on 4 sites: U sends |0> to (|0>+|1>)/sqrt(2); the coin-0
    # component hops left to site 3, the coin-1 component right to site 1.
    config = WalkConfig(L=4, coin=CoinSpec("dft", 2))
    E = build_dense(config, coin_matrix(config.coin))
    start = np.zeros(8, dtype=complex)
    start[0 * 2 + 0] = 1.0
    out = E @ start
    expected = np.zeros(8, dtype=complex)
    expected[3 * 2 + 0] = 1 / np.sqrt(2)
    expected[1 * 2 + 1] = 1 / np.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("coin", ALL_COINS)
def test_dense_operator_unitary(coin):
    config = WalkConfig(L=5, coin=coin)
    E = build_dense(config, coin_matrix(coin))
    assert np.max(np.abs(E.conj().T @ E - np.eye(5 * coin.M))) < TOL


def test_dense_two_site_lattice_norm():
    config = WalkConfig(L=2, coin=CoinSpec("dft", 2))
    E = build_dense(config, coin_matrix(config.coin))
    for idx in range(4):
        vec = np.zeros(4, dtype=complex)
        vec[idx] = 1.0
        out = E @ (E @ vec)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < TOL


def test_dense_two_nonzero_blocks_per_block_row():
    config = WalkConfig(L=5, coin=CoinSpec("dft", 4))
    E = build_dense(config, coin_matrix(config.coin))
    M = 4
    for row in range(5):
        occupied = [col for col in range(5)
                    if np.any(np.abs(E[row * M:(row + 1) * M, col * M:(col + 1) * M]) > 0)]
        assert occupied == sorted({(row - 1) % 5, (row + 1) % 5})


def test_block_k0_equals_coin():
    config = WalkConfig(L=7, coin=CoinSpec("dft", 4))
    U = coin_matrix(config.coin)
    blocks = build_momentum_blocks(config, U)
    np.testing.assert_allclose(block(blocks, 0), U, atol=1e-14)


@pytest.mark.parametrize("coin", ALL_COINS)
def test_blocks_unitary(coin):
    blocks = build_momentum_blocks(WalkConfig(L=9, coin=coin), coin_matrix(coin))
    for k in range(9):
        B = block(blocks, k)
        assert np.max(np.abs(B.conj().T @ B - np.eye(coin.M))) < TOL


def test_block_phases_are_exact_at_k0_and_unimodular():
    for L, M in [(2, 2), (9, 4), (400, 64)]:
        config = WalkConfig(L=L, coin=CoinSpec("dft", M))
        blocks = build_momentum_blocks(config, coin_matrix(config.coin))
        stack = _block_stack(blocks)
        assert stack.shape == blocks.shape == (L, M, M)
        assert np.array_equal(stack[0], blocks.coin)
        # each row of E_k is the row of U times a phase of modulus 1
        assert np.max(np.abs(np.abs(stack) - np.abs(blocks.coin))) < 1e-15
        assert not blocks.coin.flags.writeable


def step_coins(M):
    """dft, harper and baker coins of dimension M, and a vertical-partition coin."""
    harper = CoinSpec("harper", M, g=2.0, phi=0.2)
    return {"dft": coin_matrix(CoinSpec("dft", M)), "harper": coin_matrix(harper),
            "baker": coin_matrix(CoinSpec("baker", M)),
            "vertical": coin_in_position_basis(coin_matrix(harper), harper.resolved_phi)}


@pytest.mark.parametrize("M", [2, 4, 64])
@pytest.mark.parametrize("kind", ["dft", "harper", "baker", "vertical"])
def test_apply_blocks_matches_stacked_product(kind, M):
    # oracle: the dense operator in the momentum basis <n|k> = e^{2 pi i nk/L}/sqrt(L),
    # F^dag E F, is block diagonal with the blocks E_k of the stack
    U = step_coins(M)[kind]
    for L in (2, 3, 9):
        config = WalkConfig(L=L, coin=CoinSpec("dft", M))
        F = np.kron(np.exp(2j * np.pi * np.outer(np.arange(L), np.arange(L)) / L) / np.sqrt(L),
                    np.eye(M))
        got = (F.conj().T @ build_dense(config, U) @ F).reshape(L, M, L, M)
        stack = _block_stack(build_momentum_blocks(config, U))
        want = np.zeros((L, M, L, M), dtype=complex)
        want[np.arange(L), :, np.arange(L), :] = stack
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("coin", ALL_COINS)
def test_window_step_matches_dense_amplitudes(coin):
    # amplitude by amplitude, since the coin average of a walk is mirror symmetric: row j of
    # the window at time t is the site -t + 2j mod L, with the starts b in rows and the coin in
    # columns; past the wrap the window keeps R = L // gcd(L, 2) rows, on even and odd rings
    M = coin.M
    U = coin_matrix(coin)
    for L in (4, 5, 11):
        T, R = 3 * L, L // math.gcd(L, 2)
        config = WalkConfig(L=L, coin=coin)
        blocks = build_momentum_blocks(config, U)
        E = build_dense(config, U)
        buffers = np.empty((2, R + 1, M, M), dtype=complex)
        window = buffers[0, :1]
        window[0] = np.eye(M)
        starts = np.eye(L * M, M, dtype=complex)  # the columns |0, b>
        for t in range(1, T + 1):
            window = _apply_blocks(blocks, window, out=buffers[t % 2])
            starts = E @ starts
            rows = min(t + 1, R)
            want = starts.reshape(L, M, M)[(2 * np.arange(rows) - t) % L].transpose(0, 2, 1)
            assert window.shape == (rows, M, M)
            np.testing.assert_allclose(window, want, rtol=0, atol=1e-14)
            assert abs(np.sum(np.abs(window) ** 2) - M) < TOL  # nothing is left off the window


@pytest.mark.parametrize("L", [2, 4, 6])
@pytest.mark.parametrize("coin", ALL_COINS)
def test_block_evolution_matches_dense_oracle(L, coin):
    config = WalkConfig(L=L, coin=coin)
    U = coin_matrix(coin)
    E = build_dense(config, U)
    blocks = build_momentum_blocks(config, U)
    for t in range(21):
        dense_p = coin_averaged_probs_dense(E, L, coin.M, t)
        block_p = site_probabilities(blocks, t).probs
        assert np.max(np.abs(dense_p - block_p)) < TOL


def test_evolve_zero_steps_is_identity():
    # the zeroth power of the stack is E_k^0 = 1 itself, and the plain inverse FFT of it
    # gives the site amplitudes
    config = WalkConfig(L=6, coin=CoinSpec("dft", 4))
    blocks = build_momentum_blocks(config, coin_matrix(config.coin))
    start = np.linalg.matrix_power(_block_stack(blocks), 0)
    np.testing.assert_array_equal(start, np.broadcast_to(np.eye(4), (6, 4, 4)))
    expected = np.zeros((6, 4, 4))
    expected[0] = np.eye(4)
    np.testing.assert_allclose(np.abs(np.fft.ifft(start, axis=0)) ** 2, expected, atol=1e-15)


def test_evolve_hadamard_one_step_support():
    config = WalkConfig(L=100, coin=CoinSpec("dft", 2))
    blocks = build_momentum_blocks(config, coin_matrix(config.coin))
    site = momentum_to_site(step_column(blocks, momentum_column(100, 2, 0), 1))
    support = set(np.nonzero((np.abs(site[:, :, 0]) ** 2).sum(axis=1) > 1e-20)[0])
    assert support == {1, 99}


def test_evolve_period_four_echo_for_large_fourier_coin():
    # Quantum precursor of the classical period-4 rotation: the t=4 return
    # overlap dominates the t=2 one.  Self-conjugate coin rows (0 and M/2)
    # are the exception, so probe a generic row.
    config = WalkConfig(L=100, coin=CoinSpec("dft", 40))
    blocks = build_momentum_blocks(config, coin_matrix(config.coin))
    psi0 = momentum_column(100, 40, 10)
    ov = {}
    psi = psi0
    for t in (1, 2, 3, 4):
        psi = step_column(blocks, psi, 1)
        ov[t] = abs(np.vdot(psi0, psi)) ** 2
    assert ov[4] > ov[2]


def test_evolve_norm_preserved_long_run():
    config = WalkConfig(L=256, coin=CoinSpec("harper", 64, g=2.0, phi=0.2))
    blocks = build_momentum_blocks(config, coin_matrix(config.coin))
    psi = step_column(blocks, momentum_column(256, 64, 0), 1000)
    assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < TOL


def test_translation_covariance():
    coin = CoinSpec("harper", 4, g=1.0, phi=0.2)
    config = WalkConfig(L=6, coin=coin)
    E = build_dense(config, coin_matrix(coin))
    base = coin_averaged_probs_dense(E, 6, 4, 5)
    for s in range(1, 6):
        psi = np.zeros((24, 4), dtype=complex)
        psi[s * 4 + np.arange(4), np.arange(4)] = 1.0
        for _ in range(5):
            psi = E @ psi
        shifted = (np.abs(psi) ** 2).reshape(6, 4, 4).sum(axis=(1, 2)) / 4
        np.testing.assert_allclose(shifted, np.roll(base, s), atol=TOL)


def test_identity_coin_reduces_to_pure_shift_with_period_L():
    # With U = I the walk is S on one index half and S^-1 on the other, so
    # E^L = I on a lattice of L sites.
    L, M = 6, 4
    config = WalkConfig(L=L, coin=CoinSpec("dft", M))
    E = build_dense(config, np.eye(M, dtype=complex))
    rng = np.random.default_rng(31)
    vec = rng.normal(size=L * M) + 1j * rng.normal(size=L * M)
    vec /= np.linalg.norm(vec)
    out = vec
    for _ in range(L):
        out = E @ out
    np.testing.assert_allclose(out, vec, atol=TOL)
    # the bare shift itself is L-periodic
    S = np.roll(np.eye(L), 1, axis=0)
    np.testing.assert_allclose(np.linalg.matrix_power(S, L), np.eye(L), atol=0)


def test_amplitude_agrees_across_representations():
    config = WalkConfig(L=8, coin=CoinSpec("harper", 4, g=1.0))
    U = coin_matrix(config.coin)
    blocks = build_momentum_blocks(config, U)
    E = build_dense(config, U)
    mom = step_column(blocks, momentum_column(8, 4, 1), 7)[:, :, 0]
    dense = np.zeros(8 * 4, dtype=complex)
    dense[0 * 4 + 1] = 1.0
    for _ in range(7):
        dense = E @ dense
    np.testing.assert_allclose(momentum_to_site(mom).reshape(-1), dense, atol=TOL)
    # oracle: the explicit L-point Fourier matrix <n|k> = e^{2 pi i nk/L}/sqrt(L)
    F = np.exp(2j * np.pi * np.outer(np.arange(8), np.arange(8)) / 8) / np.sqrt(8)
    explicit = (F @ mom).reshape(-1)
    np.testing.assert_allclose(explicit, dense, atol=TOL)


def test_amplitude_uniform_momentum_superposition():
    L, M = 8, 2
    data = np.zeros((L, M), dtype=complex)
    data[:, 1] = 1.0 / np.sqrt(L)
    site = momentum_to_site(data)
    assert abs(site[0, 1] - 1.0) < 1e-12
    assert abs(site[3, 1]) < 1e-12
    assert np.max(np.abs(np.delete(site.reshape(-1), 0 * M + 1))) < 1e-12


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(L=1, coin=CoinSpec("dft", 2))
    assert [f.name for f in fields(WalkConfig)] == ["L", "coin"]


def test_coin_dimension_mismatch_raises():
    config = WalkConfig(L=4, coin=CoinSpec("dft", 4))
    message = r"^U: coin matrix shape \(2, 2\) does not match coin dimension M=4$"
    with pytest.raises(ValueError, match=message):
        build_dense(config, coin_matrix(CoinSpec("dft", 2)))
    with pytest.raises(ValueError, match=message):
        build_momentum_blocks(config, coin_matrix(CoinSpec("dft", 2)))


def test_build_dense_rejects_non_unitary_coin():
    config = WalkConfig(L=4, coin=CoinSpec("dft", 2))
    with pytest.raises(ValueError, match="walk operator not unitary"):
        build_dense(config, np.ones((2, 2), dtype=np.complex128))

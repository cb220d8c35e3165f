"""Tests for the walk operator and its evolution."""

from dataclasses import fields

import numpy as np
import pytest

from mapwalk.coins import CoinSpec, coin_matrix, dft_coin
from mapwalk.walk import (WalkConfig, WalkState, build_dense,
                          build_momentum_blocks, evolve, amplitude,
                          basis_state, momentum_to_site)

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


def coin_averaged_probs_blocks(blocks, t):
    psi = np.broadcast_to(np.eye(blocks.M, dtype=complex) / np.sqrt(blocks.L),
                          (blocks.L, blocks.M, blocks.M)).copy()
    for _ in range(t):
        psi = np.matmul(blocks.blocks, psi)
    site = momentum_to_site(psi)
    return (np.abs(site) ** 2).sum(axis=(1, 2)) / blocks.M


def test_dense_single_step_hand_computed():
    # Hadamard coin on 4 sites: U sends |0> to (|0>+|1>)/sqrt(2); the coin-0
    # component hops left to site 3, the coin-1 component right to site 1.
    config = WalkConfig(L=4, coin=CoinSpec("dft", 2))
    E = build_dense(config, dft_coin(2))
    out = E @ basis_state(4, 2, 0, 0).data
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
    E = build_dense(config, dft_coin(2))
    for idx in range(4):
        vec = np.zeros(4, dtype=complex)
        vec[idx] = 1.0
        out = E @ (E @ vec)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < TOL


def test_dense_two_nonzero_blocks_per_block_row():
    config = WalkConfig(L=5, coin=CoinSpec("dft", 4))
    E = build_dense(config, dft_coin(4))
    M = 4
    for row in range(5):
        occupied = [col for col in range(5)
                    if np.any(np.abs(E[row * M:(row + 1) * M, col * M:(col + 1) * M]) > 0)]
        assert occupied == sorted({(row - 1) % 5, (row + 1) % 5})


def test_block_k0_equals_coin():
    config = WalkConfig(L=7, coin=CoinSpec("dft", 4))
    U = dft_coin(4)
    blocks = build_momentum_blocks(config, U)
    np.testing.assert_allclose(blocks.block(0), U, atol=1e-14)


@pytest.mark.parametrize("coin", ALL_COINS)
def test_blocks_unitary(coin):
    blocks = build_momentum_blocks(WalkConfig(L=9, coin=coin), coin_matrix(coin))
    for k in range(9):
        B = blocks.block(k)
        assert np.max(np.abs(B.conj().T @ B - np.eye(coin.M))) < TOL


@pytest.mark.parametrize("L", [2, 4, 6])
@pytest.mark.parametrize("coin", ALL_COINS)
def test_block_evolution_matches_dense_oracle(L, coin):
    config = WalkConfig(L=L, coin=coin)
    U = coin_matrix(coin)
    E = build_dense(config, U)
    blocks = build_momentum_blocks(config, U)
    for t in range(21):
        dense_p = coin_averaged_probs_dense(E, L, coin.M, t)
        block_p = coin_averaged_probs_blocks(blocks, t)
        assert np.max(np.abs(dense_p - block_p)) < TOL


def test_evolve_zero_steps_is_identity():
    config = WalkConfig(L=6, coin=CoinSpec("dft", 4))
    blocks = build_momentum_blocks(config, coin_matrix(config.coin))
    st = basis_state(6, 4, 2, 1, basis="momentum")
    out = evolve(st, blocks, 0)
    np.testing.assert_array_equal(out.data, st.data)
    assert out.time == st.time


def test_evolve_hadamard_one_step_support():
    config = WalkConfig(L=100, coin=CoinSpec("dft", 2))
    blocks = build_momentum_blocks(config, dft_coin(2))
    st = evolve(basis_state(100, 2, 0, 0, basis="momentum"), blocks, 1)
    probs = np.abs(st.to_site().data.reshape(100, 2)) ** 2
    support = set(np.nonzero(probs.sum(axis=1) > 1e-20)[0])
    assert support == {1, 99}


def test_evolve_period_four_echo_for_large_fourier_coin():
    # Quantum precursor of the classical period-4 rotation: the t=4 return
    # overlap dominates the t=2 one.  Self-conjugate coin rows (0 and M/2)
    # are the exception, so probe a generic row.
    config = WalkConfig(L=100, coin=CoinSpec("dft", 40))
    blocks = build_momentum_blocks(config, dft_coin(40))
    st0 = basis_state(100, 40, 0, 10, basis="momentum")
    ov = {}
    st = st0
    for t in (1, 2, 3, 4):
        st = evolve(st, blocks, 1)
        ov[t] = abs(np.vdot(st0.data, st.data)) ** 2
    assert ov[4] > ov[2]


def test_evolve_norm_preserved_long_run():
    config = WalkConfig(L=256, coin=CoinSpec("harper", 64, g=2.0, phi=0.2))
    blocks = build_momentum_blocks(config, coin_matrix(config.coin))
    st = evolve(basis_state(256, 64, 0, 0, basis="momentum"), blocks, 1000)
    assert abs(st.norm_sq() - 1.0) < TOL
    assert st.time == 1000


def test_evolve_representation_mismatch_raises():
    config = WalkConfig(L=4, coin=CoinSpec("dft", 2))
    U = dft_coin(2)
    blocks = build_momentum_blocks(config, U)
    E = build_dense(config, U)
    site_state = basis_state(4, 2, 0, 0)
    with pytest.raises(ValueError):
        evolve(site_state, blocks, 1)
    with pytest.raises(ValueError):
        evolve(site_state.to_momentum(), E, 1)
    evolve(site_state.to_momentum(), blocks, 1)  # converted: fine


def test_evolve_rejects_negative_steps():
    config = WalkConfig(L=4, coin=CoinSpec("dft", 2))
    blocks = build_momentum_blocks(config, dft_coin(2))
    with pytest.raises(ValueError):
        evolve(basis_state(4, 2, basis="momentum"), blocks, -1)


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


def test_amplitude_basis_state():
    st = basis_state(5, 4, 3, 2)
    assert amplitude(st, 3, 2) == 1.0
    others = [amplitude(st, n, a) for n in range(5) for a in range(4) if (n, a) != (3, 2)]
    assert max(abs(x) for x in others) == 0.0


def test_amplitude_agrees_across_representations():
    config = WalkConfig(L=8, coin=CoinSpec("harper", 4, g=1.0))
    U = coin_matrix(config.coin)
    blocks = build_momentum_blocks(config, U)
    E = build_dense(config, U)
    mom = evolve(basis_state(8, 4, 0, 1, basis="momentum"), blocks, 7)
    dense = evolve(basis_state(8, 4, 0, 1), E, 7)
    for n in range(8):
        for a in range(4):
            assert abs(amplitude(mom, n, a) - amplitude(dense, n, a)) < TOL
    # oracle: the explicit L-point Fourier matrix <n|k> = e^{2 pi i nk/L}/sqrt(L)
    F = np.exp(2j * np.pi * np.outer(np.arange(8), np.arange(8)) / 8) / np.sqrt(8)
    explicit = (F @ mom.data).reshape(-1)
    np.testing.assert_allclose(explicit, dense.data, atol=TOL)


def test_amplitude_uniform_momentum_superposition():
    L, M = 8, 2
    data = np.zeros((L, M), dtype=complex)
    data[:, 1] = 1.0 / np.sqrt(L)
    st = WalkState(data, L=L, M=M, basis="momentum")
    assert abs(amplitude(st, 0, 1) - 1.0) < 1e-12
    assert abs(amplitude(st, 3, 1)) < 1e-12


def test_amplitude_out_of_range():
    st = basis_state(4, 2, 0, 0)
    for site, coin in [(-1, 0), (4, 0), (0, -1), (0, 2)]:
        with pytest.raises(IndexError):
            amplitude(st, site, coin)


def test_walk_state_norm_validated():
    bad = np.zeros(8, dtype=complex)
    bad[0] = 0.5
    with pytest.raises(ValueError):
        WalkState(bad, L=4, M=2)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(L=1, coin=CoinSpec("dft", 2))
    assert [f.name for f in fields(WalkConfig)] == ["L", "coin"]


def test_coin_dimension_mismatch_raises():
    config = WalkConfig(L=4, coin=CoinSpec("dft", 4))
    with pytest.raises(ValueError):
        build_dense(config, dft_coin(2))
    with pytest.raises(ValueError):
        build_momentum_blocks(config, dft_coin(2))

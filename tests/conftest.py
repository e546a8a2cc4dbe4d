import numpy as np
import pytest

import segrent as sg


@pytest.fixture
def bell():
    return sg.named_state("bell", (2, 2))


@pytest.fixture
def ghz3():
    return sg.named_state("ghz", (2, 2, 2))


@pytest.fixture
def w3():
    return sg.named_state("w", (2, 2, 2))


def werner_state(p: float) -> sg.DensityMatrix:
    """p * Bell projector + (1 - p) I/4 on two qubits."""
    bell = sg.named_state("bell", (2, 2))
    mat = p * np.outer(bell.amps, bell.amps.conj()) + (1.0 - p) / 4.0 * np.eye(4)
    return sg.DensityMatrix((2, 2), mat)


def dropped_tail_state(m: int, eps: float, seed: int = 5):
    """(psi, (1 - (d - 1) eps) |psi><psi| + eps (I - |psi><psi|)) on m qubits.

    Each of the d - 1 small eigenvalues is below the roof's rank floor, but
    together they miss a trace of 1 by more than 1e-10."""
    psi = sg.random_state("haar-pure", (2,) * m, seed=seed)
    proj = np.outer(psi.amps, psi.amps.conj())
    d = 2 ** m
    return psi, sg.DensityMatrix((2,) * m, (1 - (d - 1) * eps) * proj + eps * (np.eye(d) - proj))


def near_product_state(dims, eps: float, seed: int) -> sg.BoxTensor:
    """A seeded product state plus eps times a seeded Haar state, normalized."""
    amps = (sg.random_state("product", dims, seed=seed).amps
            + eps * sg.random_state("haar-pure", dims, seed=seed + 1).amps)
    return sg.BoxTensor(dims, amps / np.linalg.norm(amps))

"""Closed-form spectra the tests compare numerical eigenvalues against."""

import numpy as np


def dirichlet_chain_eigenvalues(num_cells: int, resolution: int) -> np.ndarray:
    """Analytic spectrum of the 1-d finite-difference Dirichlet Laplacian.

    Interval of length L = num_cells at spacing h = 1/resolution carries
    n*L - 1 interior points with eigenvalues (2/h^2)(1 - cos(k pi h / L)).
    """
    L, n = num_cells, resolution
    h = 1.0 / n
    k = np.arange(1, n * L)
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h / L))

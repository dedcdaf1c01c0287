import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mildflow import (
    StokesSpectrum,
    VectorField,
    assemble_stokes,
    build_hodge,
    build_operators,
    load_mask,
)
from mildflow.stokes import _canonical_clusters, _clusters

DATA = Path(__file__).parent / "data"


def mask_path(name: str) -> str:
    return str(DATA / f"{name}.mask")


@pytest.fixture(scope="session")
def box4():
    return load_mask(mask_path("box4"))


@pytest.fixture(scope="session")
def box4_ops(box4):
    return build_operators(box4)


@pytest.fixture(scope="session")
def box4_hodge(box4_ops):
    return build_hodge(box4_ops)


@pytest.fixture(scope="session")
def box4_spectrum(box4_hodge):
    return assemble_stokes(box4_hodge)


@pytest.fixture(scope="session")
def lmask():
    return load_mask(mask_path("lmask_6x6x3"))


@pytest.fixture(scope="session")
def lmask_hodge(lmask):
    return build_hodge(build_operators(lmask))


def random_vector_field(mask, rng) -> VectorField:
    return VectorField(mask, rng.standard_normal((3, mask.n_cells)))


def random_scalar_values(mask, rng) -> np.ndarray:
    return rng.standard_normal(mask.n_cells)


def dense_reference_spectrum(hodge, basis) -> StokesSpectrum:
    """Stokes spectrum of ``basis^T L basis`` by a dense ``eigh``, with the
    eigenvectors of each cluster rotated as ``assemble_stokes`` rotates them.

    ``basis`` is any orthonormal basis of the divergence-free subspace; the
    returned spectrum's hodge carries it.
    """
    reduced = basis.T @ (hodge.ops.laplacian @ basis)
    eigenvalues, modes = np.linalg.eigh(0.5 * (reduced + reduced.T))
    _, starts, sizes, draw = _clusters(eigenvalues, basis.shape[0])
    vectors = np.ascontiguousarray(modes.T)
    _canonical_clusters(starts, sizes, vectors, basis.T @ draw)
    return StokesSpectrum(dataclasses.replace(hodge, basis=basis), eigenvalues, vectors.T,
                          basis @ vectors.T)

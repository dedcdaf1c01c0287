import ctypes
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, settings
from hypothesis import strategies as st

from mildflow import (
    DomainMask,
    StokesSpectrum,
    VectorField,
    assemble_stokes,
    build_hodge,
    build_operators,
    load_mask,
)
from mildflow.hodge import _openblas
from mildflow.stokes import _clusters

DATA = Path(__file__).parent / "data"

# Hypothesis caches the literals of the local source files in its storage
# directory while it collects a module; keep that cache out of the checkout.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mildflow-hypothesis")

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def masks(draw):
    """Masks of extents 1-5 drawn per axis, with cells drawn one by one and
    at least one occupied."""
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    cells = int(np.prod(dims))
    occupied = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    occupied[draw(st.integers(0, cells - 1))] = True
    return DomainMask(dims, 1.0 / max(dims), np.reshape(occupied, dims))


def mask_path(name: str) -> str:
    return str(DATA / f"{name}.mask")


def load_by_path(relative: str) -> dict:
    """The globals of the Python file at ``relative`` to the repository root, run
    by path (``tools/`` and ``perfbench/`` are not packages), writing no bytecode."""
    return runpy.run_path(str(DATA.parent.parent / relative))


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


@pytest.fixture(scope="session")
def small_sigma_hodge():
    return build_hodge(build_operators(load_mask(mask_path("small_sigma_5x5x5"))))


@pytest.fixture
def column_counts(monkeypatch):
    """``column_counts(owner, name)`` wraps ``owner.name`` for one test and
    returns the column count of each of its calls, in call order: k for a
    (rows, k) batch and 1 for a single field or sample, read off the first
    array argument (``xu`` of ``advect_flat``)."""

    def watch(owner, name):
        real, columns = getattr(owner, name), []

        def counting(*args, **kwargs):
            x = next(arg for arg in args if isinstance(arg, np.ndarray))
            columns.append(1 if x.ndim == 1 else x.shape[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return columns

    return watch


def rough_ops():
    """Operators of an 80%-fill 9^3 mask (571 cells): blocks of about 214 x 71,
    large enough that LAPACK's results depend on the BLAS thread count."""
    occupancy = np.random.default_rng(0).random((9, 9, 9)) < 0.8
    return build_operators(DomainMask((9, 9, 9), 1.0 / 9, occupancy))


def blas_thread_control():
    """The thread-count setter and getter of numpy's OpenBLAS, looked up as
    ``hodge._block_svds`` looks them up (each ``None`` where it is not found)."""
    return (_openblas("openblas_set_num_threads", None, ctypes.c_int),
            _openblas("openblas_get_num_threads", ctypes.c_int))


def random_vector_field(mask, rng) -> VectorField:
    return VectorField(mask, rng.standard_normal((3, mask.n_cells)))


def random_scalar_values(mask, rng) -> np.ndarray:
    return rng.standard_normal(mask.n_cells)


class DenseSpectrum(StokesSpectrum):
    """A spectrum held as its dense (3n, m) eigenfields Y."""

    def __init__(self, hodge, eigenvalues, fields):
        self.hodge, self.eigenvalues, self.margins = hodge, eigenvalues, {}
        self._fields = fields

    @property
    def fields(self):
        return self._fields

    def lift(self, modal):
        return self._fields @ modal

    def project(self, flat):
        return self._fields.T @ flat


def dense_reference_spectrum(hodge, basis) -> DenseSpectrum:
    """Stokes spectrum of ``basis^T L basis`` by a dense ``eigh``, with the
    eigenfields Y_C of each cluster C rotated as ``assemble_stokes`` rotates
    them: to Y_C q, q the Q factor with a positive R diagonal of Y_C^T D_C.

    ``basis`` is any orthonormal basis of the divergence-free subspace.
    """
    reduced = basis.T @ (hodge.ops.laplacian @ basis)
    eigenvalues, modes = np.linalg.eigh(0.5 * (reduced + reduced.T))
    _, starts, sizes, draw = _clusters(eigenvalues, basis.shape[0])
    fields = basis @ modes
    for start, size in zip(starts, sizes):
        cluster = fields[:, start:start + size]
        q, r = np.linalg.qr(cluster.T @ draw[:, :size])
        cluster[:] = cluster @ (q * np.where(np.diag(r) < 0.0, -1.0, 1.0))
    return DenseSpectrum(hodge, eigenvalues, fields)

"""The Stokes operator on the divergence-free subspace and its calculus.

The operator is the vector Dirichlet Laplacian compressed to the
divergence-free subspace: in the orthonormal basis Z it is the symmetric
positive definite matrix  S = Z^T L Z.  An eigendecomposition
S = Q diag(lambda) Q^T turns every function of the operator into a
spectral multiplier, so fractional powers and the semigroup are exact up
to round-off:

    f(S) c = Q (f(lambda) * (Q^T c)).

The spectrum comes from one SVD.  The 7-point Laplacian is symmetric, has
the constant diagonal 6/h^2 and couples only parity blocks (see ``hodge``)
of opposite popcount(k) parity, so with Z = [Z_e | Z_o] split by that parity,

    S = (6/h^2) I - (1/h^2) [[0, C], [C^T, 0]],   C = -h^2 Z_e^T L Z_o,

and the SVD C = U diag(sigma) V^T gives the eigenvalues (6 -+ sigma)/h^2
with eigenvectors [u; +-v]/sqrt(2), plus |m_e - m_o| eigenvalues exactly
6/h^2.  ``hodge.coupling`` builds C and checks all three by counting
nonzeros: an asymmetric L has no spectrum that this SVD gives.

The SVD is built from the Gram matrix, at about half the LAPACK work of
a full SVD of C.  With A = C or C^T, whichever is tall (p columns),
``eigh`` gives A^T A = V w V^T (descending).  The head columns, with
w_i >= ``TAIL``^2 w_max and w_i > 0, give u_i = A v_i / sqrt(w_i):
u_i^T u_j = delta_ij + E_ij / sqrt(w_i w_j), with E of order eps ||C||^2
the backward error of ``eigh``, so these are orthonormal to
eps / ``TAIL``^2.  The tail is not: there E_ij / w_i is not round-off.
A seeded Gaussian draw as wide as the head's complement, projected off
the head twice and orthonormalized by one reduced QR, gives a basis W of
that complement (from the draw alone: columns of A V_tail can be exactly
zero), and one SVD of W^T A V_tail gives the tail's singular
values, its left vectors W times the left factor, and the rotation of
V_tail; the rest of W's rotated columns are the |m_e - m_o| unpaired
vectors.  What this drops is the coupling U_head^T A V_tail, of order
eps ||C|| / ``TAIL``; its largest entry over sigma_max, the
factorization's backward error, and the size of the tail go to
``margins``.  Memory: C is built twice and is not alive during the
eigensolve, whose only dense arrays are the Gram matrix and LAPACK's
workspace; the eigensolve runs in place, through the ``LAPACKE_dsyevd``
of the OpenBLAS that numpy ships (found by ``hodge._openblas``), so the
Gram array becomes V with no copy of it; and U is written into one
preallocated array.  Where that library is not found (numpy 1.x wheels,
other builds), ``np.linalg.eigh`` runs the same ``dsyevd`` on a copy,
with the same bits.

Canonical clusters.  Inside a degenerate eigenspace any orthonormal basis
is an eigenbasis, so ascending eigenvalues whose relative gap is at most
``CLUSTER_TOLERANCE`` form one cluster, and each cluster's eigenvectors
are rotated to a basis that depends only on the eigenspace (the
orthonormalized projection of a fixed seeded Gaussian draw), one block
of the block-diagonal B.  Every result is then independent of the basis
Z, of the factorization and of the BLAS thread count, up to round-off.

Factored form.  Neither Z nor the eigenfields Y = Z Q is formed.  The
eigenvectors are kept as Q = blockdiag(U, V) R, with U and V the
singular vectors of C and R = P B sparse and orthogonal (m x m): the
pairing P has the columns [u_i; +-v_i]/sqrt(2) and the unpaired u_i or
v_j, in ascending eigenvalue order, and B rotates each cluster.
Trajectories live in modal coordinates Q^T c; ``from_modal`` (Q a) and
``to_modal`` (Q^T c) convert between them and Z coordinates with one
sparse product and the U and V products, and ``lift`` (Y a) and
``project`` (Y^T x) compose them with ``hodge.lift_flat`` and
``hodge.coords``, the one place that knows which entries of a flat field
each parity block holds.
All of them take one column or a batch.  ``fields`` and ``modes`` build
the dense Y and Q on demand, and nothing in the pipeline reads them.
The operator applications ``apply_frac_power`` and ``apply_semigroup``
act on coordinate vectors in the Z basis.  The discrete spectrum is
strictly positive, which makes negative powers legal.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .domain import VectorField
from .errors import SpectrumError
from .hodge import HodgeDecomposition, _openblas

#: exp argument beyond which a spectral multiplier would overflow
_EXP_LIMIT = 700.0
#: Relative eigenvalue gap (over lambda_max) up to which eigenvalues share a cluster.
CLUSTER_TOLERANCE = 1e-9
#: Seed of the Gaussian draws that fix the eigenvector basis inside each cluster
#: and the basis of the complement in ``_coupling_svd``.
CLUSTER_SEED = 0
#: Singular values of C below this fraction of the largest are solved by one
#: small SVD inside the complement of the others (see ``_coupling_svd``).
TAIL = 0.1
#: LAPACKE's matrix_layout value for column-major storage.
_LAPACK_COL_MAJOR = 102


@dataclass(eq=False)
class StokesSpectrum:
    """Eigenpairs of the reduced operator Z^T L Z in factored form.

    ``eigenvalues`` are ascending and strictly positive.  The orthonormal
    eigenvectors in Z coordinates are Q = blockdiag(U, V) R with
    U = ``u_mat`` (m_e x m_e), V = ``v_mat`` (m_o x m_o) and R = ``mixing``
    (CSR, orthogonal); ``from_modal`` and ``to_modal`` apply Q and Q^T,
    ``lift`` and ``project`` the eigenfields Y = Z Q and Y^T.  ``fields``
    (Y) and ``modes`` (Q) are built on each read.  ``margins`` records how
    close the clustering and the positivity check came to their thresholds.
    """

    hodge: HodgeDecomposition
    eigenvalues: np.ndarray
    u_mat: np.ndarray
    v_mat: np.ndarray
    mixing: sp.csr_array
    margins: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def astype(self, dtype, gradient_scale: float = 1.0) -> "StokesSpectrum":
        """The spectrum with U, V, the mixing and the Hodge factors it applies
        cast to dtype (shared where they have that dtype already), so that
        ``lift``, ``project`` and ``modal_forcing`` run in dtype on inputs
        in dtype; the gradient is also scaled, as in
        ``HodgeDecomposition.astype``.  The eigenvalues stay float64."""
        return replace(self, hodge=self.hodge.astype(dtype, gradient_scale),
                       u_mat=self.u_mat.astype(dtype, copy=False),
                       v_mat=self.v_mat.astype(dtype, copy=False),
                       mixing=self.mixing.astype(dtype, copy=False))

    def from_modal(self, modal: np.ndarray) -> np.ndarray:
        """Z coordinates Q a of modal coordinates a, (m,) or (m, k)."""
        return _blockdiag(self.u_mat, self.v_mat, self.mixing @ modal)

    def to_modal(self, coords: np.ndarray) -> np.ndarray:
        """Modal coordinates Q^T c of Z coordinates c, (m,) or (m, k)."""
        return self.mixing.T @ _blockdiag(self.u_mat.T, self.v_mat.T, coords)

    def lift(self, modal: np.ndarray) -> np.ndarray:
        """Flat fields Y a of modal coordinates a, (m,) or (m, k) -> (3n,) or (3n, k)."""
        return self.hodge.lift_flat(self.from_modal(modal))

    def project(self, flat: np.ndarray) -> np.ndarray:
        """Modal coordinates Y^T x of flat fields x, (3n,) or (3n, k) -> (m,) or (m, k)."""
        return self.to_modal(self.hodge.coords(flat))

    @property
    def fields(self) -> np.ndarray:
        """The dense (3n, m) eigenfields Y, built on each read."""
        return self.hodge.lift_flat(self.modes)

    @property
    def modes(self) -> np.ndarray:
        """The dense (m, m) eigenvectors Q in Z coordinates, built on each read."""
        return self.from_modal(np.eye(self.dim))

    def eigenfield(self, k: int) -> VectorField:
        """k-th eigenmode as a vector field, normalized in the field norm."""
        unit = np.zeros(self.dim)
        unit[k] = 1.0
        flat = self.lift(unit) / self.hodge.mask.cell_volume ** 0.5
        return VectorField.from_flat(self.hodge.mask, flat)


def _blockdiag(first: np.ndarray, second: np.ndarray, x: np.ndarray) -> np.ndarray:
    """blockdiag(first, second) @ x for x of shape (m,) or (m, k)."""
    split = first.shape[1]
    return np.concatenate([first @ x[:split], second @ x[split:]])


def assemble_stokes(hodge: HodgeDecomposition) -> StokesSpectrum:
    """Eigendecompose the reduced operator Z^T L Z from the parity blocks.

    With Z = [Z_e | Z_o] split by block parity,

        Z^T L Z = (6/h^2) I - (1/h^2) [[0, C], [C^T, 0]],   C = -h^2 Z_e^T L Z_o,

    so one SVD C = U diag(sigma) V^T gives every eigenpair: (6 -+ sigma)/h^2
    with modes [u; +-v]/sqrt(2), and |m_e - m_o| eigenvalues 6/h^2 with
    modes [u; 0] or [0; v] from the unpaired singular vectors.  That SVD
    comes from an in-place ``eigh`` of the Gram matrix of C (``_coupling_svd``):
    the head columns, sigma at least ``TAIL`` sigma_max, are A v / sigma;
    the complement of the head is the span of one seeded Gaussian draw
    projected off it, and one small SVD inside that complement gives the
    tail and the unpaired vectors.  The eigenpairs are kept in factored
    form: U, V and the sparse mixing R = P B, the pairing P of those modes
    times the cluster rotations B (see the module docstring).  Raises
    ``SpectrumError`` if L breaks that structure (``hodge.coupling``), or
    if an eigenvalue is not strictly positive beyond round-off, which
    would signal broken adjointness upstream.
    """
    m_e = hodge.n_even
    u_mat, sigma, v_mat, dropped, tail = _coupling_svd(hodge.coupling)
    eigenvalues, pairing = _coupled_eigenpairs(sigma, m_e, hodge.dim - m_e,
                                               hodge.mask.spacing ** 2)
    # the spectrum scales as 1/h^2, so the round-off floor is relative only
    tol = 1e-12 * eigenvalues[-1]
    if eigenvalues[0] <= tol:
        raise SpectrumError(
            f"reduced operator is not positive definite: min eigenvalue {eigenvalues[0]:.3e}"
        )
    gaps, starts, sizes, draw = _clusters(eigenvalues, 3 * hodge.mask.n_cells)
    scores = StokesSpectrum(hodge, eigenvalues, u_mat, v_mat, pairing).project(draw)
    mixing = pairing @ _cluster_rotations(starts, sizes, scores)
    merged, split = gaps[gaps <= CLUSTER_TOLERANCE], gaps[gaps > CLUSTER_TOLERANCE]
    margins = {
        "cluster_tolerance": CLUSTER_TOLERANCE,
        "max_merged_gap_rel": float(merged.max()) if merged.size else None,
        "min_split_gap_rel": float(split.min()) if split.size else None,
        "lambda_min_over_positivity_tol": float(eigenvalues[0] / tol),
        "max_dropped_coupling_rel": dropped,
        "resolved_tail": tail,
    }
    return StokesSpectrum(hodge, eigenvalues, u_mat, v_mat, mixing, margins)


_INT, _ARRAY = ctypes.c_int64, np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")


def _gram_eigh(gram: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of the exactly symmetric, C-contiguous
    ``gram``, which is overwritten with its orthonormal eigenvectors, one
    per row.  ``LAPACKE_dsyevd`` reads ``gram`` column-major (gram^T = gram)
    and writes the eigenvector columns, rows in C order, in place; where
    ``hodge._openblas`` does not find it, ``np.linalg.eigh`` (the same
    ``dsyevd``, on a copy) runs and its eigenvectors are copied in.
    Raises ``np.linalg.LinAlgError`` if the eigensolve fails."""
    # (matrix layout, jobz, uplo, n, a, lda, w)
    dsyevd = _openblas("LAPACKE_dsyevd", _INT, ctypes.c_int, ctypes.c_char, ctypes.c_char,
                       _INT, _ARRAY, _INT, _ARRAY)
    if dsyevd is None:
        w, vectors = np.linalg.eigh(gram)
        gram[:] = vectors.T
        return w
    w = np.empty(gram.shape[0])
    info = dsyevd(_LAPACK_COL_MAJOR, b"V", b"L", gram.shape[0], gram, max(gram.shape[0], 1), w)
    if info:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACK dsyevd info {info})")
    return w


def _coupling_svd(build):
    """The full SVD C = U diag(sigma) V^T of the coupling C that ``build()``
    returns (the same C on each call), from ``eigh`` of the Gram matrix,
    the head columns normalized, and one small SVD inside the complement of
    the head (see the module docstring).

    C is built twice and is not alive during the eigensolve: the first
    build gives the Gram matrix A^T A and is dropped, so that the Gram
    matrix is the eigensolve's only input and output (``_gram_eigh``: in
    place, or by ``np.linalg.eigh`` and a copy back where numpy's OpenBLAS
    has no ``LAPACKE_dsyevd``) and becomes V; the second gives A V, written
    into one U with the normalized head and the rotated complement, and is
    dropped too.  The complement's basis is the Q of ``np.linalg.qr`` of
    the projected draw.

    Returns U (m_e x m_e) and V (m_o x m_o), both C-contiguous, the
    min(m_e, m_o) singular values sigma (descending up to round-off), the
    largest coupling |U_head^T A v_tail| that the projection drops, over
    sigma_max (``None`` without one), and the size k of the tail.
    """
    coupling = build()
    transposed = coupling.shape[0] < coupling.shape[1]
    tall = coupling.T if transposed else coupling
    rows, p = tall.shape
    right = tall.T @ tall  # one triangle by syrk, mirrored: exactly symmetric
    del coupling, tall  # rebuilt for A V below: the eigensolve holds only the Gram matrix
    w = _gram_eigh(right)[::-1]
    right[:] = right[::-1].T  # descending columns; the eigensolve's workspace is gone
    head = int(np.count_nonzero((w >= TAIL ** 2 * w.max(initial=0.0)) & (w > 0.0)))
    left = np.empty((rows, rows))
    np.matmul(build().T if transposed else build(), right, out=left[:, :p])
    u_head = left[:, :head]
    u_head /= np.sqrt(w[:head])
    # an orthonormal basis of the head's complement, from a draw projected twice
    draw = np.random.default_rng(CLUSTER_SEED).standard_normal((rows, rows - head))
    for _ in range(2):
        draw -= u_head @ (u_head.T @ draw)
    complement = np.linalg.qr(draw)[0]
    # the tail solved inside the complement; its last columns are unpaired
    rot_left, sigma_tail, rot_right = np.linalg.svd(complement.T @ left[:, head:p])
    cross = u_head.T @ left[:, head:p]
    np.matmul(complement, rot_left, out=left[:, head:])
    right[:, head:] = right[:, head:] @ rot_right.T
    sigma = np.concatenate([np.sqrt(w[:head]), sigma_tail])
    dropped = float(np.abs(cross).max() / sigma[0]) if cross.size else None
    u_mat, v_mat = (right, left) if transposed else (left, right)
    return u_mat, sigma, v_mat, dropped, p - head


def _coupled_eigenpairs(sigma: np.ndarray, m_e: int, m_o: int, h2: float):
    """Ascending eigenvalues of (6 I - [[0, C], [C^T, 0]]) / h^2 and the
    pairing P (CSR), whose columns are their orthonormal eigenvectors in the
    coordinates of blockdiag(U, V) (u_i is coordinate i, v_j coordinate
    m_e + j): [u_i; +-v_i]/sqrt(2) and the unpaired u_i or v_j."""
    p, m = sigma.size, m_e + m_o
    eigenvalues = np.concatenate([6.0 - sigma, np.full(m - 2 * p, 6.0), 6.0 + sigma]) / h2
    order = np.argsort(eigenvalues, kind="stable")
    paired, half = np.arange(p), 0.5 ** 0.5
    # before sorting, the columns are [u; v]/sqrt(2), the unpaired, [u; -v]/sqrt(2)
    rows = np.concatenate([paired, m_e + paired, paired, np.r_[p:m_e, m_e + p:m], m_e + paired])
    cols = np.concatenate([paired, paired, m - p + paired, np.arange(p, m - p), m - p + paired])
    values = np.concatenate([np.full(3 * p, half), np.ones(m - 2 * p), np.full(p, -half)])
    pairing = sp.csr_array((values, (rows, np.argsort(order)[cols])), shape=(m, m))
    return eigenvalues[order], pairing


def _clusters(eigenvalues: np.ndarray, n3: int):
    """Relative gaps of the ascending eigenvalues, the first index and size
    of each cluster (gaps at most ``CLUSTER_TOLERANCE``), and the seeded
    Gaussian draw D, (n3, largest cluster size), that fixes their bases."""
    gaps = np.diff(eigenvalues) / eigenvalues[-1]
    starts = np.flatnonzero(np.concatenate([[True], gaps > CLUSTER_TOLERANCE]))
    sizes = np.diff(np.append(starts, eigenvalues.size))
    draw = np.random.default_rng(CLUSTER_SEED).standard_normal((n3, sizes.max()))
    return gaps, starts, sizes, draw


def _cluster_rotations(starts, sizes, scores: np.ndarray) -> sp.csr_array:
    """The block-diagonal B (CSR) that rotates each cluster's eigenvectors
    to a basis fixed by its eigenspace, from ``scores`` = Y^T D, Y the
    eigenfields before the rotation and D the draw of ``_clusters``.

    A cluster's eigenfields Y_C become Y_C q, q the Q factor (with a
    positive diagonal in the R factor) of Y_C^T D_C, D_C the first |C|
    columns of D; Y_C q = P_C D_C r^{-1} depends on the cluster's subspace
    only, and a single eigenvector gets the sign of g^T y, g the first
    column of D.  All clusters of one size are one batch.
    """
    entries = []
    for size in np.unique(sizes):
        members = starts[sizes == size][:, None] + np.arange(size)
        q, r = np.linalg.qr(scores[members, :size])
        q *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
        entries.append((np.broadcast_to(members[:, :, None], q.shape).ravel(),
                        np.broadcast_to(members[:, None, :], q.shape).ravel(), q.ravel()))
    rows, cols, values = map(np.concatenate, zip(*entries))
    return sp.csr_array((values, (rows, cols)), shape=(scores.shape[0],) * 2)


def _multiplier(spectrum: StokesSpectrum, factors: np.ndarray):
    """Operator ``c -> Q (factors * (Q^T c))`` on Z coordinates."""

    def apply(coords: np.ndarray) -> np.ndarray:
        modal = spectrum.to_modal(np.asarray(coords, dtype=float))
        return spectrum.from_modal(factors * modal if modal.ndim == 1 else factors[:, None] * modal)

    return apply


def apply_frac_power(spectrum: StokesSpectrum, s: float):
    """Operator ``c -> A^s c`` on Z coordinates.

    The returned callable accepts a coordinate vector (or a stack of them
    in the last axes) of fields already in the divergence-free subspace;
    project first if in doubt.
    """
    lam = spectrum.eigenvalues
    if s != 0.0 and max(abs(s * math.log(lam[0])), abs(s * math.log(lam[-1]))) > _EXP_LIMIT:
        raise OverflowError(f"power {s} of eigenvalues in [{lam[0]:.3e}, {lam[-1]:.3e}] overflows")
    return _multiplier(spectrum, lam ** s)


def apply_semigroup(spectrum: StokesSpectrum, t: float):
    """Operator ``c -> e^{-tA} c`` on Z coordinates; requires t >= 0."""
    if t < 0.0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return _multiplier(spectrum, np.exp(-t * spectrum.eigenvalues))


def smoothing_bound(spectrum: StokesSpectrum, s: float, t_grid) -> np.ndarray:
    """Exact operator norms ``|| t^s A^s e^{-tA} ||`` for each t in the grid.

    Each value is ``max_k (t lambda_k)^s e^{-t lambda_k}`` and is bounded
    by the scalar calculus maximum (s/e)^s of x^s e^{-x}.
    """
    if s < 0.0:
        raise ValueError(f"smoothing exponent must be nonnegative, got {s}")
    x = np.outer(t_grid, spectrum.eigenvalues)
    return np.max(x**s * np.exp(-x), axis=1)


def smoothing_envelope(s: float) -> float:
    """The calculus maximum of x^s e^{-x} over x > 0, i.e. (s/e)^s."""
    return (s / math.e) ** s

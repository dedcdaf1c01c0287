"""The Stokes operator on the divergence-free subspace and its calculus.

The operator is the vector Dirichlet Laplacian compressed to the
divergence-free subspace: in the orthonormal basis Z it is the symmetric
positive definite matrix  S = Z^T L Z.  An eigendecomposition
S = Q diag(lambda) Q^T turns every function of the operator into a
spectral multiplier, so fractional powers and the semigroup are exact up
to round-off:

    f(S) c = Q (f(lambda) * (Q^T c)).

The spectrum comes from one SVD.  The 7-point Laplacian has the constant
diagonal 6/h^2 and couples only parity blocks (see ``hodge``) whose
classes differ in one bit, so with Z = [Z_e | Z_o] split by the parity
of popcount(k),

    S = (6/h^2) I - (1/h^2) [[0, C], [C^T, 0]],   C = -h^2 Z_e^T L Z_o,

and the SVD C = U diag(sigma) V^T gives the eigenvalues (6 -+ sigma)/h^2
with eigenvectors [u; +-v]/sqrt(2), plus |m_e - m_o| eigenvalues exactly
6/h^2.  ``assemble_stokes`` checks that structure on the sparse L.

The SVD is built from the Gram matrix, at about half the LAPACK work of
a full SVD of C.  With A = C or C^T, whichever is tall (p columns),
``eigh`` gives A^T A = V w V^T (descending), and one complete Householder
QR gives A V = Q R: Q is the full orthonormal factor on the long side,
its last |m_e - m_o| columns the unpaired vectors, and R ~ diag(+-sigma).
The strictly upper part of R is dropped.  Since R^T R = V^T A^T A V =
diag(w) + E, with E of order eps ||C||^2 the backward error of ``eigh``,
those entries are R_ij ~ E_ij / sigma_i: round-off in rows with large
sigma_i, but up to eps ||C||^2 / sigma_i where sigma_i is small.  So the
trailing block of R whose sigma lies below ``TAIL`` sigma_max is
re-solved by its own SVD, which rotates the matching columns of Q and V,
and leaves only entries of order eps ||C|| / ``TAIL``.  The largest
dropped |R_ij| / sigma_max, the factorization's backward error, and the
size of the re-solved block go to ``margins``.

Canonical clusters.  Inside a degenerate eigenspace any orthonormal basis
is an eigenbasis, so ascending eigenvalues whose relative gap is at most
``CLUSTER_TOLERANCE`` form one cluster, and each cluster's eigenvectors
are rotated to a basis that depends only on the eigenspace (the
orthonormalized projection of a fixed seeded Gaussian draw).  Every
result is then independent of the basis Z, of the factorization and of
the BLAS thread count, up to round-off.

Factored form.  Neither Z nor the eigenfields Y = Z Q is formed.  The
eigenvectors are kept as Q = blockdiag(U, V) R, with U and V the
singular vectors of C and R the sparse orthogonal m x m matrix that
pairs them (+-1/sqrt(2)), keeps the unpaired ones and carries each
cluster's canonical rotation on its few nonzero rows.  Trajectories live
in modal coordinates Q^T c; ``from_modal`` (Q a) and ``to_modal``
(Q^T c) convert between them and Z coordinates with one sparse product
and the U and V products, and ``lift`` (Y a) and ``project`` (Y^T x)
compose them with ``hodge.lift_flat`` and ``hodge.coords``, the one
place that knows which entries of a flat field each parity block holds.
All of them take one column or a batch.  ``fields`` and ``modes`` build
the dense Y and Q on demand, and nothing in the pipeline reads them.
The operator applications ``apply_frac_power`` and ``apply_semigroup``
act on coordinate vectors in the Z basis.  The discrete spectrum is
strictly positive, which makes negative powers legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .domain import VectorField
from .errors import SpectrumError
from .hodge import HodgeDecomposition, velocity_classes

#: exp argument beyond which a spectral multiplier would overflow
_EXP_LIMIT = 700.0
#: Relative eigenvalue gap (over lambda_max) up to which eigenvalues share a cluster.
CLUSTER_TOLERANCE = 1e-9
#: Seed of the Gaussian draw that fixes the eigenvector basis inside each cluster.
CLUSTER_SEED = 0
#: Singular values of C below this fraction of the largest are re-solved by one
#: small SVD (see ``_coupling_svd``).
TAIL = 0.1


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
    mixing_t: sp.csr_array = field(init=False, repr=False)

    def __post_init__(self):
        self.mixing_t = self.mixing.T.tocsr()

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def from_modal(self, modal: np.ndarray) -> np.ndarray:
        """Z coordinates Q a of modal coordinates a, (m,) or (m, k)."""
        return _blockdiag(self.u_mat, self.v_mat, self.mixing @ modal)

    def to_modal(self, coords: np.ndarray) -> np.ndarray:
        """Modal coordinates Q^T c of Z coordinates c, (m,) or (m, k)."""
        return self.mixing_t @ _blockdiag(self.u_mat.T, self.v_mat.T, coords)

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
    comes from an ``eigh`` of the Gram matrix of C and one QR
    (``_coupling_svd``): the coupling it drops is R_ij ~ E_ij / sigma_i,
    E the ``eigh`` backward error, so the rows with sigma below ``TAIL``
    sigma_max are re-solved by one small SVD.  The eigenpairs are kept
    in factored form: U, V and the sparse mixing R (see the module
    docstring).  Raises ``SpectrumError`` if L breaks that structure, or
    if an eigenvalue is not strictly positive beyond round-off, which
    would signal broken adjointness upstream.
    """
    h2 = hodge.mask.spacing ** 2
    _check_block_structure(hodge, 6.0 / h2)
    m_e = hodge.n_even
    u_mat, sigma, v_mat, dropped, tail = _coupling_svd(
        -h2 * hodge.even_odd_block(hodge.ops.laplacian))
    eigenvalues, slot_rows, slot_values = _coupled_eigenpairs(sigma, m_e, hodge.dim - m_e, h2)
    # the spectrum scales as 1/h^2, so the round-off floor is relative only
    tol = 1e-12 * eigenvalues[-1]
    if eigenvalues[0] <= tol:
        raise SpectrumError(
            f"reduced operator is not positive definite: min eigenvalue {eigenvalues[0]:.3e}"
        )
    gaps, starts, sizes, draw = _clusters(eigenvalues, 3 * hodge.mask.n_cells)
    draw_half = _blockdiag(u_mat.T, v_mat.T, hodge.coords(draw))
    mixing = _canonical_mixing(starts, sizes, slot_rows, slot_values, draw_half)
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


def _coupling_svd(coupling: np.ndarray):
    """The full SVD coupling = U diag(sigma) V^T, from ``eigh`` of the Gram
    matrix and one complete QR (see the module docstring).

    Returns U (m_e x m_e) and V (m_o x m_o), both C-contiguous, the
    min(m_e, m_o) singular values sigma (descending up to round-off), the
    largest dropped |R_ij| over sigma_max (``None`` without one) and the
    size k of the re-solved trailing block.
    """
    transposed = coupling.shape[0] < coupling.shape[1]
    tall = coupling.T if transposed else coupling
    p = tall.shape[1]
    w, right = np.linalg.eigh(tall.T @ tall)
    right = np.ascontiguousarray(right[:, ::-1])
    left, r = np.linalg.qr(tall @ right, mode="complete")
    r = r[:p]
    k = int(np.count_nonzero(w < TAIL ** 2 * w[-1])) if p else 0
    if k:
        tail = slice(p - k, p)
        rot_left, sigma_tail, rot_right = np.linalg.svd(r[tail, tail])
        left[:, tail] = left[:, tail] @ rot_left
        right[:, tail] = right[:, tail] @ rot_right.T
        r[:, tail] = r[:, tail] @ rot_right.T
        r[tail, tail] = np.diag(sigma_tail)
    diagonal = np.diagonal(r)
    left[:, :p] *= np.where(diagonal < 0.0, -1.0, 1.0)
    sigma = np.abs(diagonal)
    dropped = float(np.abs(np.triu(r, 1)).max() / sigma.max()) if p > 1 and sigma.max() else None
    u_mat, v_mat = (right, left) if transposed else (left, right)
    return u_mat, sigma, v_mat, dropped, k


def _check_block_structure(hodge: HodgeDecomposition, diagonal: float):
    """Raise ``SpectrumError`` unless L has the constant ``diagonal`` and every
    off-diagonal entry joins parity blocks whose classes differ in one bit."""
    lap = hodge.ops.laplacian
    if not np.all(lap.diagonal() == diagonal):
        raise SpectrumError("Laplacian diagonal is not the constant 6/h^2")
    block = velocity_classes(hodge.mask)
    entries = lap.tocoo()
    off = (entries.row != entries.col) & (entries.data != 0.0)
    flipped = block[entries.row[off]] ^ block[entries.col[off]]
    if not np.all((flipped == 1) | (flipped == 2) | (flipped == 4)):
        raise SpectrumError("Laplacian couples parity blocks that differ in more than one bit")


def _coupled_eigenpairs(sigma: np.ndarray, m_e: int, m_o: int, h2: float):
    """Ascending eigenvalues of (6 I - [[0, C], [C^T, 0]]) / h^2 and their
    orthonormal eigenvectors in the coordinates of blockdiag(U, V), from the
    singular values of C (u_i is coordinate i, v_j coordinate m_e + j).

    Every eigenvector has at most two nonzero coordinates: eigenvector k is
    ``values[k, 0]`` at ``rows[k, 0]`` plus ``values[k, 1]`` at ``rows[k, 1]``
    (an unpaired vector repeats its row with the value 0).
    """
    p, m = sigma.size, m_e + m_o
    eigenvalues = np.concatenate([6.0 - sigma, np.full(m - 2 * p, 6.0), 6.0 + sigma]) / h2
    order = np.argsort(eigenvalues, kind="stable")
    paired = np.column_stack([np.arange(p), m_e + np.arange(p)])
    unpaired = np.concatenate([np.arange(p, m_e), m_e + np.arange(p, m_o)]).repeat(2)
    rows = np.concatenate([paired, unpaired.reshape(-1, 2), paired])
    half = 0.5 ** 0.5
    values = np.concatenate([np.full((p, 2), half), np.tile([1.0, 0.0], (m - 2 * p, 1)),
                             np.tile([half, -half], (p, 1))])
    return eigenvalues[order], rows[order], values[order]


def _clusters(eigenvalues: np.ndarray, n3: int):
    """Relative gaps of the ascending eigenvalues, the first index and size
    of each cluster (gaps at most ``CLUSTER_TOLERANCE``), and the seeded
    Gaussian draw D, (n3, largest cluster size), that fixes their bases."""
    gaps = np.diff(eigenvalues) / eigenvalues[-1]
    starts = np.flatnonzero(np.concatenate([[True], gaps > CLUSTER_TOLERANCE]))
    sizes = np.diff(np.append(starts, eigenvalues.size))
    draw = np.random.default_rng(CLUSTER_SEED).standard_normal((n3, sizes.max()))
    return gaps, starts, sizes, draw


def _canonical_mixing(starts, sizes, rows, values, draw_half: np.ndarray) -> sp.csr_array:
    """The mixing R (CSR): the eigenvectors of ``_coupled_eigenpairs`` as
    columns, each cluster rotated to a basis fixed by its eigenspace.

    ``draw_half`` = blockdiag(U, V)^T Z^T D for the draw D of ``_clusters``.
    A cluster's eigenfields Y_C become Y_C q, q the Q factor (with a
    positive diagonal in the R factor) of Y_C^T D_C, D_C the first |C|
    columns of D; Y_C q = P_C D_C r^{-1} depends on the cluster's subspace
    only, and a single eigenvector gets the sign of g^T y, g the first
    column of D.  The rotation acts on the cluster's 2 |C| nonzero rows of
    R, all clusters of one size in one batch.
    """
    entries = []
    for size in np.unique(sizes):
        cols = starts[sizes == size][:, None] + np.arange(size)
        slots = rows[cols].reshape(cols.shape[0], 2 * size)
        block = np.zeros((cols.shape[0], 2 * size, size))
        block[:, 0::2][:, np.arange(size), np.arange(size)] = values[cols, 0]
        block[:, 1::2][:, np.arange(size), np.arange(size)] = values[cols, 1]
        q, r = np.linalg.qr(block.transpose(0, 2, 1) @ draw_half[slots, :size])
        q *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
        block = block @ q
        entries.append((np.broadcast_to(slots[:, :, None], block.shape).ravel(),
                        np.broadcast_to(cols[:, None, :], block.shape).ravel(), block.ravel()))
    slot_rows, slot_cols, slot_values = map(np.concatenate, zip(*entries))
    # the repeated row of an unpaired vector holds 0 and is summed away
    return sp.csr_array((slot_values, (slot_rows, slot_cols)), shape=(rows.shape[0],) * 2)


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
    return np.max(x**s * np.exp(-x), axis=1) if s > 0 else np.exp(-x[:, 0])


def smoothing_envelope(s: float) -> float:
    """The calculus maximum of x^s e^{-x} over x > 0, i.e. (s/e)^s."""
    return 1.0 if s == 0.0 else (s / math.e) ** s

"""Discrete Helmholtz-Hodge decomposition and the divergence-free projector.

Square-integrable vector fields on the mask split orthogonally into

    L2 = H (+) G,    H = ker(divergence),    G = range(gradient),

which is exact here because divergence is minus the transpose of the
gradient.  An orthonormal basis Z of H is read off singular value
decompositions of the gradient: the left singular vectors beyond the
numerical rank span the orthogonal complement of range(gradient).  The
projector onto H is P = Z Z^T; it annihilates every discrete gradient
and fixes every discretely divergence-free field.

Parity blocks.  The centered difference with zero extension reads p only
at cells whose index along the difference axis has the other parity.
Group the cells into 8 parity classes k = 4 (x odd) + 2 (y odd) + (z odd);
then pressure class k reaches only u_x at class k^4, u_y at k^2 and u_z
at k^1, so after a permutation the 3n x n gradient is block diagonal in
8 blocks G_k of about 3n/8 x n/8, and H is the direct sum of the kernels
of the G_k^T.  ``build_hodge`` runs one SVD per block, cuts every block's
rank at ``RANK_TOLERANCE`` times the largest singular value over all
blocks, and keeps each block's kernel Z_k on its ``ParityBlock``, blocks
of even popcount(k) first.  Z is never formed: it is the block-diagonal
matrix of the Z_k, with Z_k's rows at the entries of a flat field the
block reaches and its columns at the block's span of the coordinates, so
``coords``, ``lift_flat``, ``lift``, ``project`` and ``coupling``
(C = -h^2 Z_e^T L Z_o, the even-odd coupling of the Laplacian, cut per
pair from L's row bands) apply it one block at a time, and ``basis``
builds the dense (3n, m) array on demand only.  Those blocks and spans are
the one description of the parity layout: ``stokes`` applies Z only
through these methods, and reads only how many columns are even
(``n_even``, where the fourth block's span ends) and ``coupling``, which
checks, by counting the nonzeros its cuts hold, that L is symmetric with
the constant diagonal 6/h^2 and couples only blocks of opposite parity.

The 8 block SVDs run at one BLAS thread each, on as many worker threads
as BLAS had (``_block_svds``), which is faster than one block at a time
at several BLAS threads and makes the factors independent of the BLAS
thread count.  That count is process-global: while the block loop runs,
any other BLAS call in the process runs at one thread too.  The thread
setter and getter, and the in-place eigensolve of ``stokes``, are
functions of the OpenBLAS that numpy's wheels ship as
``numpy.libs/libscipy_openblas64_*.so``, each found by the one lookup
``_openblas``.  Where there is no such library (numpy 1.x wheels, other
builds), the blocks are factored one at a time at the current thread
count, and ``stokes`` runs the copying ``np.linalg.eigh``.

The same factors provide the minimum-norm potentials: for each column w,
``potentials`` gives the least-squares solution p of  grad p = (I - P) w
orthogonal to ker(gradient), block by block, which makes pressure
recovery canonical.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .domain import DiscreteOperators, DomainMask, VectorField
from .errors import SpectrumError

#: Relative singular value threshold below which the gradient is rank-deficient.
RANK_TOLERANCE = 1e-10
#: The parity-class bit that the difference along each axis flips.
_AXIS_BITS = (4, 2, 1)
#: Order of the blocks in Z's columns: even popcount first, then odd.
_BLOCK_ORDER = (0, 3, 5, 6, 1, 2, 4, 7)


def parity_classes(mask: DomainMask) -> np.ndarray:
    """Parity class 4 (x odd) + 2 (y odd) + (z odd) of every cell."""
    return (mask.cells % 2) @ np.array(_AXIS_BITS)


def velocity_classes(mask: DomainMask) -> np.ndarray:
    """Block of every entry of a flat (3n,) field: u_j at class c is in block c ^ bit_j."""
    cls = parity_classes(mask)
    return np.concatenate([cls ^ bit for bit in _AXIS_BITS])


@dataclass(eq=False)
class ParityBlock:
    """One diagonal block G_k of the permuted gradient, with its SVD factors.

    ``cells`` are the pressure cells of class k, ``rows`` the entries of a
    flat field that class reaches, ``span`` the columns of Z that hold the
    block's kernel and ``kernel`` that kernel Z_k, (len(rows), span size):
    Z equals Z_k on (rows, span) and vanishes elsewhere in those columns.
    The factors are the kept part of the block's SVD.
    """

    cells: np.ndarray
    rows: np.ndarray
    span: slice
    kernel: np.ndarray
    u_r: np.ndarray
    s_r: np.ndarray
    vt_r: np.ndarray


@dataclass(eq=False)
class HodgeDecomposition:
    """Orthonormal basis of the divergence-free subspace plus solve data.

    Attributes
    ----------
    ops : the operators the decomposition was built from.
    grad_rank : numerical rank r of the gradient; m = 3n - r.
    blocks : the 8 parity blocks in column order, even popcount first; their
        kernels are the blocks of the orthonormal basis Z of ker(divergence).
    margins : how close the rank cut and the divergence check came to their
        thresholds: the largest dropped and the smallest kept singular value
        over the largest (None where there is none), and the divergence
        defect of Z with its tolerance.
    """

    ops: DiscreteOperators
    grad_rank: int
    blocks: tuple
    margins: dict

    @property
    def mask(self):
        return self.ops.mask

    @property
    def dim(self) -> int:
        return self.blocks[-1].span.stop

    @property
    def n_even(self) -> int:
        """Number of columns of Z in the four even blocks, which come first."""
        return self.blocks[3].span.stop

    @property
    def basis(self) -> np.ndarray:
        """The dense (3n, m) matrix Z, built on each read; nothing in the
        pipeline reads it."""
        z = np.zeros((3 * self.mask.n_cells, self.dim))
        for b in self.blocks:
            z[b.rows, b.span] = b.kernel
        return z

    def astype(self, dtype, gradient_scale: float = 1.0) -> "HodgeDecomposition":
        """The decomposition with the kernels Z_k and ``ops.gradient`` times
        gradient_scale cast to dtype (shared where unscaled and of that dtype
        already): all that ``coords``, ``lift_flat`` and ``advect_flat`` read.
        The potential factors, the divergence and the Laplacian stay."""
        gradient = self.ops.gradient if gradient_scale == 1.0 else gradient_scale * self.ops.gradient
        return replace(self, ops=replace(self.ops, gradient=gradient.astype(dtype, copy=False)),
                       blocks=tuple(replace(b, kernel=b.kernel.astype(dtype, copy=False))
                                    for b in self.blocks))

    # -- coordinates ---------------------------------------------------------

    def coords(self, u) -> np.ndarray:
        """Coordinates Z^T u of (the H-part of) a field, or of each column of a
        (3n, k) array, in the wider dtype of Z and u."""
        flat = u.flat if isinstance(u, VectorField) else np.asarray(u)
        out = np.empty((self.dim,) + flat.shape[1:], np.result_type(self.blocks[0].kernel, flat))
        for b in self.blocks:
            out[b.span] = b.kernel.T @ flat[b.rows]
        return out

    def lift_flat(self, coords: np.ndarray) -> np.ndarray:
        """Flat field Z @ coords, of shape (3n,) or (3n, k) for (m,) or (m, k)
        coordinates, in the wider dtype of Z and coords."""
        coords = np.asarray(coords)
        out = np.empty((3 * self.mask.n_cells,) + coords.shape[1:],
                       np.result_type(self.blocks[0].kernel, coords))
        for b in self.blocks:  # every entry of a flat field is in one block
            out[b.rows] = b.kernel @ coords[b.span]
        return out

    def coupling(self) -> np.ndarray:
        """The coupling C = -h^2 Z_e^T L Z_o, (n_even, m - n_even), of the
        Laplacian L of ``ops``: one product per pair of an even and an odd
        block that L couples, cut from the even block's row band of L, and
        one scale in place.  Raises ``SpectrumError`` unless L is symmetric,
        its diagonal is 6/h^2 and its other nonzeros are twice the pair cuts':
        any more couple two blocks of one parity, and the product drops them."""
        lap, h2 = self.ops.laplacian, self.mask.spacing ** 2
        even, odd = self.blocks[:4], self.blocks[4:]  # the even blocks come first
        m_e, pair_nonzeros = self.n_even, 0
        out = np.zeros((m_e, self.dim - m_e))
        for be in even:
            band = lap[be.rows]
            for bo in odd:
                coupled = band[:, bo.rows]
                if coupled.nnz:
                    pair_nonzeros += coupled.count_nonzero()
                    out[be.span, bo.span.start - m_e:bo.span.stop - m_e] = \
                        be.kernel.T @ (coupled @ bo.kernel)
        if ((lap - lap.T).count_nonzero() or not np.all(lap.diagonal() == 6.0 / h2)
                or lap.count_nonzero() != lap.shape[0] + 2 * pair_nonzeros):
            raise SpectrumError("Laplacian is not symmetric with diagonal 6/h^2 and even-odd blocks")
        out *= -h2  # in place: one C-sized array per call
        return out

    def lift(self, coords: np.ndarray) -> VectorField:
        """Vector field Z @ coords."""
        return VectorField.from_flat(self.mask, self.lift_flat(coords))

    def project(self, u: VectorField) -> VectorField:
        return self.lift(self.coords(u))

    # -- potentials ----------------------------------------------------------

    def potentials(self, flat: np.ndarray) -> np.ndarray:
        """Minimum-norm p with grad p = (I - P) w per column w of a (3n, k) array: (n, k)."""
        out = np.zeros((self.mask.n_cells, flat.shape[1]))
        for b in self.blocks:
            out[b.cells] = b.vt_r.T @ ((b.u_r.T @ flat[b.rows]) / b.s_r[:, None])
        return out


@functools.cache
def _openblas(name: str, restype, *argtypes):
    """``scipy_<name>64_`` of the OpenBLAS that numpy ships in ``numpy.libs``
    (a ``libscipy_openblas64_*.so``), typed with restype and argtypes, or
    ``None`` where there is no such library or it has no such symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            function = getattr(ctypes.CDLL(path), f"scipy_{name}64_")
        except (OSError, AttributeError):  # not loadable, or not this symbol
            continue
        function.restype, function.argtypes = restype, list(argtypes)
        return function
    return None


def _block_svds(matrices: list) -> list:
    """Full SVDs of the matrices, in their order, each at one BLAS thread on a
    pool of as many worker threads as BLAS had (at most one per matrix);
    serially at the current thread count where the count cannot be set."""
    set_threads = _openblas("openblas_set_num_threads", None, ctypes.c_int)
    get_threads = _openblas("openblas_get_num_threads", ctypes.c_int)
    if set_threads is None or get_threads is None:
        return [np.linalg.svd(a, full_matrices=True) for a in matrices]
    threads = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(min(len(matrices), threads)) as pool:
            return list(pool.map(lambda a: np.linalg.svd(a, full_matrices=True), matrices))
    finally:
        set_threads(threads)


def build_hodge(ops: DiscreteOperators) -> HodgeDecomposition:
    """Factor the gradient block by block and assemble the divergence-free basis.

    Singular values below ``RANK_TOLERANCE`` times the largest over all blocks
    are treated as zero, which fixes the discrete kernel reproducibly.
    Raises ``SpectrumError`` unless the 8 disjoint block cuts hold every
    nonzero of the gradient: one outside them couples two parity blocks.
    """
    mask = ops.mask
    cell_class, row_class = parity_classes(mask), velocity_classes(mask)
    layout = [(np.flatnonzero(cell_class == klass), np.flatnonzero(row_class == klass))
              for klass in _BLOCK_ORDER]
    dense = [ops.gradient[rows][:, cells].toarray() for cells, rows in layout]
    if sum(np.count_nonzero(d) for d in dense) != ops.gradient.count_nonzero():
        raise SpectrumError("gradient couples cells outside their parity blocks")
    factors = [(*pair, *svd) for pair, svd in zip(layout, _block_svds(dense))]
    svals = np.concatenate([f[3] for f in factors])
    top = svals.max(initial=0.0)
    cut = RANK_TOLERANCE * top
    ranks = [int(np.count_nonzero(f[3] > cut)) for f in factors]
    rank = sum(ranks)
    blocks, start = [], 0
    for (cells, rows, u_mat, s, vt), r in zip(factors, ranks):
        span = slice(start, start + rows.size - r)
        # the kernel and the kept factor share the block's U between them
        blocks.append(ParityBlock(cells, rows, span, u_mat[:, r:], u_mat[:, :r], s[:r], vt[:r]))
        start = span.stop
    # ker(divergence) must contain Z up to round-off
    defect = max(float(np.abs(ops.divergence[:, b.rows] @ b.kernel).max(initial=0.0))
                 for b in blocks)
    defect_tol = 1e-10 * top
    if defect > defect_tol:
        raise SpectrumError(f"basis is not divergence-free: defect {defect:.3e}")
    kept, rel = svals > cut, svals / top if top > 0.0 else svals
    margins = {
        "rank_tolerance": RANK_TOLERANCE,
        # the gradient has n singular values; those no block computes are exact zeros
        "max_dropped_singular_rel":
            float(rel[~kept].max(initial=0.0)) if rank < mask.n_cells else None,
        "min_kept_singular_rel": float(rel[kept].min()) if rank else None,
        "divergence_defect": defect,
        "divergence_tolerance": defect_tol,
    }
    return HodgeDecomposition(ops, rank, tuple(blocks), margins)


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
``coords``, ``lift_flat``, ``lift``, ``project`` and ``even_odd_block``
(Z_e^T op Z_o, the coupling of the even to the odd blocks) apply it one
block at a time, and ``basis`` builds the dense (3n, m) array on demand
only.  Those blocks and spans are the one description of the parity
layout: ``stokes`` applies Z only through these methods, and reads only
how many columns are even (``n_even``, where the fourth block's span
ends) and ``even_odd_block``, which also rejects an operator entry
between two blocks of the same parity: the product would drop it.

The 8 block SVDs run at one BLAS thread each, on as many worker threads
as BLAS had (``_block_svds``), which is faster than one block at a time
at several BLAS threads and makes the factors independent of the BLAS
thread count.  That count is process-global: while the block loop runs,
any other BLAS call in the process runs at one thread too.  Where numpy's
BLAS is not the scipy-openblas it ships, the count cannot be set and the
blocks are factored one at a time.  That library is looked up once
(``_openblas``); ``stokes`` finds its in-place eigensolve and QR there too.

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

    def even_odd_block(self, op) -> np.ndarray:
        """Z_e^T op Z_o, (n_even, m - n_even), for a sparse (3n, 3n) op, from
        the pairs of an even and an odd block that op couples.  Raises
        ``SpectrumError`` if op has a nonzero off-diagonal entry between two
        blocks of the same parity (or inside one), which that product drops."""
        even, odd = self.blocks[:4], self.blocks[4:]  # the even blocks come first
        odd_rows = np.concatenate([b.rows for b in odd])
        is_odd = np.isin(np.arange(op.shape[0]), odd_rows)
        coo = op.tocoo()
        if np.any((is_odd[coo.row] == is_odd[coo.col]) & (coo.row != coo.col) & (coo.data != 0.0)):
            raise SpectrumError("operator couples two blocks of the same parity")
        # op sliced once; each pair's rows and columns are then one contiguous range
        sliced = op[np.concatenate([b.rows for b in even])][:, odd_rows]
        row_at = np.cumsum([0] + [b.rows.size for b in even])
        col_at = np.cumsum([0] + [b.rows.size for b in odd])
        m_e = self.n_even
        out = np.zeros((m_e, self.dim - m_e))
        for i, be in enumerate(even):
            for j, bo in enumerate(odd):
                coupled = sliced[row_at[i]:row_at[i + 1], col_at[j]:col_at[j + 1]]
                if coupled.nnz:
                    out[be.span, bo.span.start - m_e:bo.span.stop - m_e] = \
                        be.kernel.T @ (coupled @ bo.kernel)
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
def _openblas():
    """The OpenBLAS that numpy ships in ``numpy.libs`` (``ctypes.CDLL``), or
    ``None`` where there is no such library; its symbols end in ``64_``."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


@functools.cache
def _blas_thread_control():
    """The setter and getter of the thread count of ``_openblas()``, or
    ``None`` where there is no such library."""
    lib = _openblas()
    try:
        setter, getter = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    except AttributeError:  # no library (None) or not these symbols
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


def _block_svds(matrices: list) -> list:
    """Full SVDs of the matrices, in their order, each at one BLAS thread on a
    pool of as many worker threads as BLAS had (at most one per matrix);
    serially at the current thread count where the count cannot be set."""
    control = _blas_thread_control()
    if control is None:
        return [np.linalg.svd(a, full_matrices=True) for a in matrices]
    set_threads, get_threads = control
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
    Raises ``SpectrumError`` if the gradient couples a pressure cell to a
    velocity entry outside its parity block.
    """
    mask = ops.mask
    cell_class = parity_classes(mask)
    row_class = velocity_classes(mask)
    grad = ops.gradient.tocoo()
    coupled = grad.data != 0.0
    if np.any(row_class[grad.row[coupled]] != cell_class[grad.col[coupled]]):
        raise SpectrumError("gradient couples cells outside their parity blocks")

    layout = [(np.flatnonzero(cell_class == klass), np.flatnonzero(row_class == klass))
              for klass in _BLOCK_ORDER]
    dense = [ops.gradient[rows][:, cells].toarray() for cells, rows in layout]
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


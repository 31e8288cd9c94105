"""The channel solver's set-ups: the part of ``stokes`` that runs on scipy.

``stokes.solve_stokes`` imports this module on its first solve, so a
process that never solves a channel never loads scipy.  A set-up is the
shape-free part of the direct solve; a blade adds one penalization K on its
solid faces.  Its one entry, ``solve(blades, K, r, y=None)``, solves r
for blades given as their faces, one row per blade, factoring each blade
on every call; y is the first solve of r when the caller already has it.
One set-up is kept per grid (nx, nz, dx, dz) and strip, whatever the
inflow, with its first solve of b per inflow.  ``_takes_capacitance``
picks one of two:

- ``_Capacitance`` solves on the whole channel.  The empty channel's
  operator A0 is circulant in z, so a DFT along z inverts it (``_Fourier``);
  the set-up keeps A0^-1 between the strip's velocity faces as a table over
  face lines and row shifts.  Each blade factors a dense capacitance matrix
  on its solid faces alone or, when it fills most of the strip, one on the
  strip faces it leaves open.  The blades of a solve are factored one at
  a time and share one Fourier solve.
- ``_Substructure`` factors the exterior, all cells outside the strip,
  with sparse LU, condenses it into a dense correction on the strip
  unknowns that touch it, and factors and solves each blade's strip with
  sparse LU, blade by blade.

README's notes on the solver give the sizes and timings.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .stokes import ChannelConfig, _rhs


def _stencils(nx: int, nz: int, dx: float, dz: float) -> list:
    """A0 = [[Lu, 0, Gx], [0, Lw, Gz], [-Gx^T, -Gz^T, 0]] as 1-d stencils.

    Lu and Lw are -laplacians, G the pressure gradient; continuity is -G^T.
    Each of the 3x3 blocks is None or a list of terms (X, Z) that stand for
    kron(X, Z): X (nx, nx) acts along x, over the cell columns, and Z
    (nz, nz) along z, over the rows.  The walls are periodic, so every Z is
    circulant.
    """
    idx2, idz2 = 1.0 / dx**2, 1.0 / dz**2
    eye_x, eye_z = sp.identity(nx), sp.identity(nz)
    # -d2/dx2 on u faces i = 1..nx: u[0] is the Dirichlet inflow face (in b),
    # and the outflow ghost u[nx+1] = u[nx-1] doubles the last row's neighbour.
    xx_u = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nx, nx), format="lil")
    xx_u[nx - 1, nx - 2] = -2.0
    # -d2/dx2 on w faces i = 0..nx-1: ghosts w[-1] = 2*w_in - w[0] and w[nx] = w[nx-1].
    xx_w = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nx, nx), format="lil")
    xx_w[0, 0], xx_w[nx - 1, nx - 1] = 3.0, 1.0
    # Periodic -d2/dz2.
    zz = sp.diags([-1.0, -1.0, 2.0, -1.0, -1.0], [1 - nz, -1, 0, 1, nz - 1], shape=(nz, nz))
    lap_z = (eye_x, zz * idz2)
    # u face i lies between cells i-1 and i, with the outflow pressure p[nx]
    # pinned to 0; w face j between rows j-1 and j (periodic).
    gx = sp.diags([-1.0, 1.0], [0, 1], shape=(nx, nx)) * (1.0 / dx)
    gz = sp.diags([1.0, -1.0, -1.0], [0, -1, nz - 1], shape=(nz, nz)) * (1.0 / dz)
    return [
        [[(xx_u * idx2, eye_z), lap_z], None, [(gx, eye_z)]],
        [None, [(xx_w * idx2, eye_z), lap_z], [(eye_x, gz)]],
        [[(-gx.T, eye_z)], [(eye_x, -gz.T)], None],
    ]


def _assemble(blocks: list, along_z) -> sp.csc_matrix:
    """The block operator of ``_stencils``, each term kron(X, along_z(Z))."""

    def block(terms):
        if terms is None:
            return None
        total = None
        for X, Z in terms:
            # format="csr" keeps kron from storing a small stencil as dense
            # blocks with explicit zeros.
            term = sp.kron(X, along_z(Z), format="csr")
            total = term if total is None else total + term
        return total

    return sp.bmat([[block(terms) for terms in row] for row in blocks], format="csc")


def _matrix(nx: int, nz: int, dx: float, dz: float) -> sp.csr_matrix:
    """A0, the empty channel's operator, with u, w and p each over (column, row).

    A blade adds K on its solid faces to A0's diagonal; the inflow enters
    only ``_rhs``.  It is stored as CSR, the one form every reader takes:
    the strip LU's row blocks and the residual and refinement products of
    ``stokes._solve``.
    """
    return _assemble(_stencils(nx, nz, dx, dz), lambda Z: Z).tocsr()


def _dft_diagonal(Z: sp.spmatrix) -> sp.dia_matrix:
    """The eigenvalues of the circulant Z on the frequencies 0..nz//2 of a real DFT."""
    return sp.diags(np.fft.rfft(Z.toarray()[:, 0]))


class _Fourier:
    """A0^-1 by a DFT along z, factored once per grid.

    A0 is circulant in z, so a DFT along z turns each kron(X, Z) of its
    stencils into kron(X, diag(fft(Z[:, 0]))): one decoupled complex system
    of 3 nx unknowns per frequency.  A real right-hand side needs only the
    frequencies 0..nz//2 (the others are their conjugates), and they are
    factored together as one sparse LU.
    """

    def __init__(self, grid: tuple[int, int, float, float]):
        nx, nz = grid[:2]
        self.shape = (3 * nx, nz)  # a vector's unknowns as (block and column, row)
        self.lu = spla.splu(_assemble(_stencils(*grid), _dft_diagonal), permc_spec="COLAMD")

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A0^-1 r for r of shape (3 nx nz,) or (3 nx nz, k).

        The k columns go through as one (k, 3 nx, nz) stack: one rfft along
        z, one triangular solve of k columns and one irfft.  Each column
        gets the bits of its own solve.
        """
        stack = r.T.reshape((-1,) + self.shape)
        r_hat = np.fft.rfft(stack, axis=-1)
        x_hat = self.lu.solve(r_hat.reshape(len(stack), -1).T).T.reshape(r_hat.shape)
        return np.fft.irfft(x_hat, n=self.shape[1], axis=-1).reshape(r.T.shape).T


#: Columns per block while building the interface correction or the
#: capacitance inverse T; bounds each dense block to 3 nx nz x _CHUNK floats.
_CHUNK = 64

#: Face lines per block of Fourier solves building the capacitance table H:
#: a block holds 3 nx (nz/2 + 1) complex values per line twice, 2.7 MB at 96x72.
_LINES_PER_BLOCK = 8

#: The capacitance path may build T, |V|^2 floats, when that is at most
#: this many floats per unknown of the channel.
_T_FLOATS_PER_UNKNOWN = 128


def _takes_complement(m: int, n_v: int) -> bool:
    """Whether a blade with m of the n_v faces V solid factors T[N, N] rather than C.

    It does when N, the n_v - m faces it leaves open, is under 8/9 of m.
    At 96x72 (n_v = 1,382) the two took the same time near m = 730, where
    |N| is about 0.89 m: there the gathers and products with T make up for
    the smaller LU.
    """
    return 9 * (n_v - m) < 8 * m


def _takes_capacitance(cells: np.ndarray) -> bool:
    """Whether the strip ``cells``, (nx, nz), is solved by capacitance, else by strip LU."""
    n_v = 2 * int(np.count_nonzero(cells))
    return n_v**2 <= _T_FLOATS_PER_UNKNOWN * 3 * cells.size


class _SetUp:
    """The shape-free part of one channel's system: A0 and the solve of b per inflow."""

    def __init__(self, grid: tuple[int, int, float, float]):
        self.A = _matrix(*grid)
        self._solved_b = {}  # inflow -> first solve of b, which no shape changes

    def rhs(self, config: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
        """b for the config's inflow and its first solve, made once per inflow.

        b depends only on the grid, which keys this set-up, and the inflow.
        """
        b, key = _rhs(config), tuple(config.inflow)
        y = self._solved_b.get(key)
        if y is None:
            y = self._solved_b[key] = self._solve_b(b)
        return b, y


class _Capacitance(_SetUp):
    """Solves on the whole channel: A0 by ``_Fourier``, a blade by capacitance.

    The strip's cells give V, the u and w faces a blade on this strip can
    make solid, in the order the unknowns run.  A blade adds K on its m
    solid faces F, a subset of V, and needs only the m x m capacitance
    matrix C = G[F, F] + I/K, with G = A0^-1[V, V] (Buzbee, Dorr, George &
    Golub, 1971).  A solve of r is then w = A0^-1 r, z = C^-1 w[F],
    x = A0^-1 (r - e_F z) and x[F] = z / K; the empty channel takes one
    A0 solve.

    G itself is not stored.  A0 commutes with shifts along z, so an entry of
    G depends only on the face lines of its two faces and on their row
    difference: the set-up keeps that table, H, and ``g`` gathers any block
    of G from it.  A thin blade factors C, which is P[F, F] for one
    P = G + I/K shared by every blade with that K.  A thick blade
    (``_takes_complement``) factors T[N, N] instead, for T = P^-1 and N
    the faces of V it leaves open (Hager, 1989).  T is one dense |V| x |V|
    inverse, built on the first thick blade and kept for its K.  A blade
    that fills the strip is solved on its own cells, a strip no other blade
    uses, so T would never pay back there and it factors C.
    """

    def __init__(self, grid: tuple[int, int, float, float], cells: np.ndarray):
        super().__init__(grid)
        nx, nz = grid[:2]
        self.fourier = _Fourier(grid)
        self.V = np.flatnonzero(np.tile(cells.ravel(), 2))
        # Face v of V sits at z row j[v] of line lines[v], its velocity
        # component and x column (a row of the Fourier layout).
        lines, j = np.divmod(self.V, nz)
        # A0 commutes with shifts along z, so a unit at row j of a line has
        # the solve of a unit at row 0 shifted by j: one solve per line.
        distinct, line_of = np.unique(lines, return_inverse=True)
        n_lines = distinct.size
        # H[a, s, b]: line a at row s (mod nz) of the solve of line b's unit
        # at row 0, doubled along s so that s = j_a - j_b + nz needs no mod.
        self.H = np.empty((n_lines, 2 * nz, n_lines))
        # The real DFT along z of a unit at row 0 is 1 on every frequency: the
        # units' Fourier solves start here, and only V's lines go back.
        for k in range(0, n_lines, _LINES_PER_BLOCK):
            block = distinct[k : k + _LINES_PER_BLOCK]
            units_hat = np.zeros((3 * nx, nz // 2 + 1, block.size), dtype=complex)
            units_hat[block, :, np.arange(block.size)] = 1.0
            x_hat = self.fourier.lu.solve(units_hat.reshape(-1, block.size)).reshape(units_hat.shape)
            self.H[:, :nz, k : k + block.size] = np.fft.irfft(x_hat[distinct], n=nz, axis=1)
        self.H[:, nz:] = self.H[:, :nz]
        # G[v, w] is the flat entry at_row[v] + at_col[w] of H.
        self._at_row = (line_of * 2 * nz + j + nz) * n_lines
        self._at_col = line_of - j * n_lines
        self.T, self.T_penalization = None, None

    def _solve_b(self, b: np.ndarray) -> np.ndarray:
        return self.fourier.solve(b)

    def g(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """G[rows][:, cols] for positions into V, gathered from H."""
        return np.take(self.H, self._at_row[rows][:, None] + self._at_col[cols])

    def _inverse(self, K: float) -> np.ndarray:
        """T = (G + I/K)^-1, kept for one K at a time."""
        if self.T_penalization != K:
            self.T = None  # the old T goes before the new one is built
            n_v = self.V.size
            every = np.arange(n_v)
            # Built column block by column block in Fortran order, P is
            # inverted in place.
            P = np.empty((n_v, n_v), order="F")
            for k in range(0, n_v, _CHUNK):
                P[:, k : k + _CHUNK] = self.g(every, every[k : k + _CHUNK])
            P[every, every] += 1.0 / K
            self.T = la.inv(P, overwrite_a=True, check_finite=False)
            self.T_penalization = K
        return self.T

    def _complement(self, F: np.ndarray, K: float, w: np.ndarray) -> np.ndarray:
        """C^-1 w through T and N, the faces of V the blade leaves open.

        With u = T[:, F] w and s = T[N, N]^-1 u[N], C^-1 w = u[F] - T[F, N] s.
        """
        T = self._inverse(K)
        N = np.setdiff1d(np.arange(self.V.size), F, assume_unique=True)
        T_N = T[:, N]  # whole columns of the Fortran-ordered T
        lu_N = la.lu_factor(T_N[N].T, overwrite_a=True, check_finite=False)
        v = np.zeros(self.V.size)
        v[F] = w
        u = T @ v
        s = la.lu_solve(lu_N, u[N], trans=1, check_finite=False)
        return (u - T_N @ s)[F]

    def _solve_C(self, faces: np.ndarray, K: float, w: np.ndarray) -> np.ndarray:
        """C^-1 w, for C the capacitance matrix of A0 plus K on the sorted solid ``faces``."""
        if faces.size == 0:
            return w
        F = np.searchsorted(self.V, faces)
        # Faces k and k + cells of V share a cell; a blade that leaves no
        # cell of the strip open is solved on its own cells.
        cells = self.V.size // 2
        if _takes_complement(F.size, self.V.size) and np.unique(F % cells).size < cells:
            return self._complement(F, K, w)
        C = self.g(F, F)
        C[np.diag_indices_from(C)] += 1.0 / K
        # C.T is Fortran-ordered, so LAPACK factors it in place; trans=1
        # then solves with C itself.  Unchecked, a non-finite value
        # reaches the residual and the solve reports no convergence.
        lu_C = la.lu_factor(C.T, overwrite_a=True, check_finite=False)
        return la.lu_solve(lu_C, w, trans=1, check_finite=False)

    def solve(self, blades: list, K: float, r: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """(A0 + K on each blade's faces)^-1 r, one row per blade; y = A0^-1 r if the caller has it.

        Each blade factors its C (or T[N, N]) in turn and keeps only
        z = C^-1 y[F], so one factor is alive at a time; the rows r - e_F z
        then take one Fourier solve.
        """
        if y is None:
            y = self.fourier.solve(r)
        Z = [self._solve_C(faces, K, y[faces]) for faces in blades]
        R = np.tile(r, (len(blades), 1))
        for row, faces, z in zip(R, blades, Z):
            row[faces] -= z
        X = self.fourier.solve(R.T).T
        for x, faces, z in zip(X, blades, Z):
            # x_F = z / K exactly; recovering it by subtraction, as the
            # A0 solve gives it, loses about log10(K) digits.
            x[faces] = z / K
        return X


class _Substructure(_SetUp):
    """Solves by strip LU: the exterior factored once, the strip per blade.

    Unknowns split into the strip S, the u, w and p of the given cells (a
    cell owns its east u face and its w face), and the exterior E, all
    other cells.  Only S holds solid faces, so the exterior block A0[E, E]
    and the interface correction A0[S, E] A0[E, E]^-1 A0[E, S] (dense,
    nonzero only on the strip unknowns that touch E) do not depend on the
    shape; nor does the strip's Schur complement S0 of the empty channel.
    A blade adds K on its solid faces to S0's diagonal, and each blade
    factors that with sparse LU.
    """

    def __init__(self, grid: tuple[int, int, float, float], cells: np.ndarray):
        super().__init__(grid)
        # The u, w and p blocks of the unknowns each run over (column, row).
        in_strip = np.tile(cells.ravel(), 3)
        self.strip = np.flatnonzero(in_strip)
        self.exterior = np.flatnonzero(~in_strip)

        rows_S, rows_E = self.A[self.strip], self.A[self.exterior]
        self.A_SE = rows_S[:, self.exterior]
        self.A_ES = rows_E[:, self.strip].tocsc()
        self.lu_E = spla.splu(rows_E[:, self.exterior].tocsc(), permc_spec="COLAMD")

        # Strip unknowns the exterior couples to: nonempty rows of A_SE (CSR)
        # or columns of A_ES (CSC).
        touched = np.diff(self.A_SE.indptr) > 0
        touched |= np.diff(self.A_ES.indptr) > 0
        iface = np.flatnonzero(touched)
        A_JE = self.A_SE[iface]
        correction = np.empty((iface.size, iface.size))
        for k in range(0, iface.size, _CHUNK):
            cols = iface[k : k + _CHUNK]
            correction[:, k : k + _CHUNK] = A_JE @ self.lu_E.solve(self.A_ES[:, cols].toarray())
        dense = sp.coo_matrix(
            (correction.ravel(), (np.repeat(iface, iface.size), np.tile(iface, iface.size))),
            shape=(self.strip.size, self.strip.size),
        )
        self.strip_base = (rows_S[:, self.strip] - dense).tocsc()

    def _solve_b(self, b: np.ndarray) -> np.ndarray:
        return self.lu_E.solve(b[self.exterior])

    def solve(self, blades: list, K: float, r: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """(A0 + K on each blade's faces)^-1 r, one row per blade; y = lu_E.solve(r[E]) if the caller has it.

        Each blade factors and solves its strip in turn, so one factor is
        alive at a time.
        """
        S, E = self.strip, self.exterior
        if y is None:
            y = self.lu_E.solve(r[E])
        r_S = r[S] - self.A_SE @ y
        X = np.empty((len(blades), r.size))
        for x, faces in zip(X, blades):
            d_S = np.zeros(S.size)
            d_S[np.searchsorted(S, faces)] = K
            x[S] = spla.splu((self.strip_base + sp.diags(d_S)).tocsc()).solve(r_S)
            x[E] = y - self.lu_E.solve(self.A_ES @ x[S])
        return X


@functools.lru_cache(maxsize=1)
def _substructure(grid: tuple[int, int, float, float], cells: bytes) -> _SetUp:
    """The last set-up: the grid (nx, nz, dx, dz) ``_matrix`` reads and the packed strip cells."""
    nx, nz = grid[:2]
    cells = np.frombuffer(cells, dtype=bool).reshape(nx, nz)
    return (_Capacitance if _takes_capacitance(cells) else _Substructure)(grid, cells)

"""Phase-space primitives: symplectic form, Sp(n)/ISp(n) elements, generating
functions, and truncated lattices.

Phase points z = (x, p) are stored as flat vectors of length 2n with the x
block first.  Batches of points are arrays of shape (num_points, 2n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, ResourceLimit, check_bytes

TOL_SYMPLECTIC = 1e-10

# Guard against runaway lattice enumerations.
POINT_CAP = 500_000


def as_phase_vector(z, n: int | None = None) -> np.ndarray:
    """Coerce an array-like into a flat (2n,) vector."""
    vec = np.asarray(z, dtype=float).ravel()
    if vec.size % 2 != 0 or vec.size == 0:
        raise DimensionMismatch(f"phase vector must have even length, got {vec.size}")
    if n is not None and vec.size != 2 * n:
        raise DimensionMismatch(f"expected a phase vector of length {2 * n}, got {vec.size}")
    return vec


def standard_j(n: int) -> np.ndarray:
    """The standard symplectic matrix J = (0 I; -I 0)."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_form(z, z2) -> float:
    """sigma(z, z') = p.x' - p'.x."""
    a = as_phase_vector(z)
    b = as_phase_vector(z2)
    if a.size != b.size:
        raise DimensionMismatch(f"phase vectors of length {a.size} and {b.size}")
    n = a.size // 2
    return float(a[n:] @ b[:n] - b[n:] @ a[:n])


def is_symplectic(S, tol: float = TOL_SYMPLECTIC) -> bool:
    """True iff ||S^T J S - J||_max <= tol * max(1, ||S||^2), tested as
    defect / max(1, ||S||) <= tol * max(1, ||S||) so that ||S||^2 cannot
    overflow.  A defect that overflows (inf or nan) is not symplectic."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
        raise DimensionMismatch(f"expected a square even-dimension matrix, got {S.shape}")
    n = S.shape[0] // 2
    J = standard_j(n)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(S.T @ J @ S - J))
    scale = max(1.0, float(np.linalg.norm(S, 2)))
    return bool(defect / scale <= tol * scale)


def check_symplectic(S, tol: float = TOL_SYMPLECTIC) -> np.ndarray:
    """Validate and return S as a float array."""
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S, tol):
        raise InvalidMatrix("matrix is not symplectic within tolerance")
    return S


def blocks(S) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a 2n x 2n matrix into (A, B; C, D) blocks."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    return S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]


def _check_symmetric(M, name: str, tol: float = 1e-10) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix(f"{name} must be finite")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > tol * scale:
        raise InvalidMatrix(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


def _is_singular(mat: np.ndarray) -> bool:
    """|det| at most 1e-14 times the product of the column norms, its
    Hadamard bound: a singular matrix told from a small one at any scale.
    The ratio does not change when a column is scaled, so each column is
    first divided by its largest entry, and neither product can overflow."""
    scale = np.max(np.abs(mat), axis=0)
    if not scale.all():
        return True
    mat = mat / scale
    return abs(np.linalg.det(mat)) <= 1e-14 * np.prod(np.linalg.norm(mat, axis=0))


def make_generator(kind: str, *, n: int = 1, L=None, P=None) -> np.ndarray:
    """One of the standard Sp(n) generators.

    kind "J": the standard symplectic matrix.
    kind "dilation": M_L = (L^-1 0; 0 L^T), L invertible.
    kind "shear": V_P = (I 0; -P I), P symmetric.
    """
    if kind == "J":
        return standard_j(n)
    if kind == "dilation":
        if L is None:
            raise InvalidMatrix("dilation requires L")
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if not np.all(np.isfinite(L)):
            raise InvalidMatrix("dilation requires finite L")
        if _is_singular(L):
            raise InvalidMatrix("dilation requires invertible L")
        m = L.shape[0]
        Linv = np.linalg.inv(L)
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m] = Linv
        out[m:, m:] = L.T
        return out
    if kind == "shear":
        if P is None:
            raise InvalidMatrix("shear requires P")
        P = _check_symmetric(P, "P")
        m = P.shape[0]
        out = np.eye(2 * m)
        out[m:, :m] = -P
        return out
    raise InvalidMatrix(f"unknown generator kind {kind!r}")


@dataclass(frozen=True, eq=False)
class GeneratingFunctionData:
    """Free generating function W(x, x') = P x.x/2 - L x.x' + Q x'.x'/2 with a
    branch index m mod 4 for the metaplectic lift."""

    P: np.ndarray
    L: np.ndarray
    Q: np.ndarray
    m: int = 0

    def __post_init__(self):
        P = _check_symmetric(self.P, "P")
        Q = _check_symmetric(self.Q, "Q")
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        if L.shape != P.shape or Q.shape != P.shape:
            raise DimensionMismatch("P, L, Q must share shape")
        if not np.all(np.isfinite(L)):
            raise InvalidMatrix("L must be finite")
        if _is_singular(L):
            raise InvalidMatrix("L must be invertible")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m", int(self.m) % 4)

    @property
    def n(self) -> int:
        return self.P.shape[0]


def from_generating_function(data: GeneratingFunctionData) -> np.ndarray:
    """The symplectic matrix S_W = (L^-1 Q, L^-1; P L^-1 Q - L^T, P L^-1)."""
    Linv = np.linalg.inv(data.L)
    A = Linv @ data.Q
    B = Linv
    C = data.P @ Linv @ data.Q - data.L.T
    D = data.P @ Linv
    return np.block([[A, B], [C, D]])


def fractional_fourier_data(t: float) -> GeneratingFunctionData:
    """Generating data of the rotation by angle t (defined for t != k*pi)."""
    s = np.sin(t)
    if abs(s) < 1e-12:
        raise InvalidMatrix("rotation generating function is singular at multiples of pi")
    c = np.cos(t) / s
    return GeneratingFunctionData(P=[[c]], L=[[1.0 / s]], Q=[[c]], m=0)


def rotation(t: float) -> np.ndarray:
    """The Sp(1) rotation (cos t, sin t; -sin t, cos t)."""
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True, eq=False)
class AffineSymplectic:
    """An element (S, z0) of ISp(n) acting as z -> S z + z0."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        S = check_symplectic(self.linear)
        shift = as_phase_vector(self.shift)
        if shift.size != S.shape[0]:
            raise DimensionMismatch("shift length must match matrix dimension")
        object.__setattr__(self, "linear", S)
        object.__setattr__(self, "shift", shift)

    @property
    def n(self) -> int:
        return self.shift.size // 2

    def __call__(self, z):
        vec = as_phase_vector(z)
        if vec.size != self.shift.size:
            raise DimensionMismatch("point dimension mismatch")
        return self.linear @ vec + self.shift

    @classmethod
    def identity(cls, n: int) -> "AffineSymplectic":
        return cls(np.eye(2 * n), np.zeros(2 * n))

    @classmethod
    def translation(cls, z0) -> "AffineSymplectic":
        vec = as_phase_vector(z0)
        return cls(np.eye(vec.size), vec)


def affine_compose(g1: AffineSymplectic, g2: AffineSymplectic) -> AffineSymplectic:
    """Group law (S, z)(S', z') = (S S', z + S z')."""
    if g1.n != g2.n:
        raise DimensionMismatch("affine elements of different dimension")
    return AffineSymplectic(g1.linear @ g2.linear, g1.shift + g1.linear @ g2.shift)


def affine_inverse(g: AffineSymplectic) -> AffineSymplectic:
    """(S, z)^-1 = (S^-1, -S^-1 z)."""
    Sinv = np.linalg.inv(g.linear)
    return AffineSymplectic(Sinv, -Sinv @ g.shift)


@dataclass(frozen=True, eq=False)
class Lattice:
    """A generator-matrix lattice {L k + shift : k in Z^{2n}}, truncated by the
    Euclidean radius of the unshifted part |L k| <= radius."""

    generator: np.ndarray
    radius: float
    shift: np.ndarray | None = None

    def __post_init__(self):
        gen = np.atleast_2d(np.asarray(self.generator, dtype=float))
        if gen.shape[0] != gen.shape[1] or gen.shape[0] % 2 != 0:
            raise DimensionMismatch(f"generator must be 2n x 2n, got {gen.shape}")
        if not np.all(np.isfinite(gen)):
            raise InvalidMatrix("lattice generator must be finite")
        if _is_singular(gen):
            raise InvalidMatrix("lattice generator must be invertible")
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise InvalidMatrix("truncation radius must be finite and >= 0")
        shift = (
            np.zeros(gen.shape[0])
            if self.shift is None
            else as_phase_vector(self.shift, gen.shape[0] // 2)
        )
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "shift", shift)

    @property
    def n(self) -> int:
        return self.generator.shape[0] // 2


def separable_lattice(alpha, beta, radius: float) -> Lattice:
    """The lattice alpha Z^n x beta Z^n."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if alpha.size != beta.size:
        raise DimensionMismatch("alpha and beta must have equal length")
    if not (np.all(alpha > 0) and np.all(beta > 0)):
        raise InvalidMatrix("alpha and beta entries must be positive")
    gen = np.diag(np.concatenate([alpha, beta]))
    return Lattice(gen, radius)


def enumeration_bytes(half_widths) -> float:
    """Bytes that lattice_points holds for an index box of these half-widths
    (each at least 1), one per axis: the index grid, its stacked copy and the
    points (or their squares), dim float64s each per candidate; inf on overflow."""
    return 24.0 * len(half_widths) * math.prod(2.0 * float(h) + 1.0 for h in half_widths)


def lattice_points(lat: Lattice) -> np.ndarray:
    """Enumerate the truncated lattice, shape (num_points, 2n).

    Deterministic lexicographic order in the integer index k.  Raises
    ResourceLimit when the index box would exceed errors.BYTE_BUDGET or the
    points POINT_CAP.
    """
    gen = lat.generator
    dim = gen.shape[0]
    R = lat.radius
    # Index bounds: |k_i| = |(L^-1 z)_i| <= ||row_i(L^-1)|| R for |z| <= R.
    inv = np.linalg.inv(gen)
    half_widths = np.ceil(np.linalg.norm(inv, axis=1) * R + 1e-9)
    check_bytes(enumeration_bytes(half_widths), "lattice enumeration", "reduce radius")
    bounds = half_widths.astype(int)
    axes = [np.arange(-b, b + 1) for b in bounds]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = ks @ gen.T
    keep = np.linalg.norm(pts, axis=1) <= R * (1 + 1e-12)
    pts = pts[keep]
    if pts.shape[0] > POINT_CAP:
        raise ResourceLimit(f"lattice has {pts.shape[0]} points (cap {POINT_CAP})")
    return pts + lat.shift


def adjoint_lattice(lat: Lattice, hbar: float) -> Lattice:
    """The adjoint lattice Lambda^o = {mu : sigma(mu, lam) in 2 pi hbar Z for
    every lam in lat}, generated by 2 pi hbar J^T L^-T, whose columns are the
    dual basis: sigma(L^o e_i, L e_j) = 2 pi hbar delta_ij.  Truncated at lat's
    radius and unshifted, since a translate of a lattice has the same adjoint."""
    return Lattice(2.0 * np.pi * hbar * standard_j(lat.n).T @ np.linalg.inv(lat.generator).T,
                   lat.radius)


def planck_scaling(hbar: float, n: int) -> np.ndarray:
    """The block matrix diag(I, 2*pi*hbar*I) mapping standard lattices to their
    hbar-rescaled counterparts."""
    out = np.eye(2 * n)
    out[n:, n:] *= 2.0 * np.pi * hbar
    return out


def lattice_map(lat: Lattice, g):
    """Image of a lattice under an affine map or arbitrary transformation.

    Affine input (AffineSymplectic, a 2n x 2n matrix, or a (matrix, shift)
    pair) yields a Lattice with transformed generator and shift.  A callable
    z -> z' on (N, 2n) point batches yields the transformed point array,
    since the image of a lattice under a nonlinear map is no longer a lattice.
    """
    if callable(g) and not isinstance(g, AffineSymplectic):
        return np.asarray(g(lattice_points(lat)), dtype=float)
    if isinstance(g, AffineSymplectic):
        S, shift = g.linear, g.shift
    elif isinstance(g, tuple):
        S = np.asarray(g[0], dtype=float)
        shift = as_phase_vector(g[1])
    else:
        S = np.asarray(g, dtype=float)
        shift = np.zeros(S.shape[0])
    if S.shape != lat.generator.shape:
        raise DimensionMismatch("map dimension does not match lattice")
    return Lattice(S @ lat.generator, lat.radius, shift=S @ lat.shift + shift)

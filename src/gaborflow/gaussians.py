"""Gaussian windows and their phase-space operations.

A window is stored as (M, center, phase, hbar) and represents the normalized
Gaussian  exp(i*phase/hbar) * T(center) * g_M  where g_M has the complex
symmetric matrix M (positive-definite imaginary part) and T is the
Heisenberg-Weyl shift

    T(z0) f(x) = exp(i (p0.x - p0.x0/2) / hbar) f(x - x0).

Internally a Gaussian state is a flat component stack: coefficients (K,),
matrices (K, n, n), centers (K, 2n) and phases (K,), with K = 1 for a
GaussianState; mixtures hold GaussianState components only.  A HermiteState
is a finite sum of the orthonormal oscillator modes h_k (n = 1).
Every closed-form overlap goes through _overlap_core on component stacks,
broadcast over both sides, and every overlap of a mode with a Gaussian through
the recurrence of _mode_core; _state_sums adds up each state's own terms.
The package holds no sampled representation: the quadrature oracle that the
tests compare these closed forms against lives with the tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, NumericalDegeneracy
from .symplectic import as_phase_vector, blocks, check_symplectic

SIEGEL_CONDITION_CAP = 1e12


def check_siegel(M) -> np.ndarray:
    """Validate a complex symmetric matrix with positive-definite imaginary part."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] != M.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-12 * scale:
        raise InvalidMatrix("matrix must be symmetric")
    M = 0.5 * (M + M.T)
    if np.min(np.linalg.eigvalsh(M.imag)) <= 0:
        raise InvalidMatrix("imaginary part must be positive definite")
    return M


class _Stack(NamedTuple):
    """K Gaussian components: coefficients (K,), matrices (K, n, n), centers
    (K, 2n) and phases (K,)."""

    coefficients: np.ndarray
    M: np.ndarray
    centers: np.ndarray
    phases: np.ndarray

    def column(self) -> "_Stack":
        """The stack along a new leading axis, to broadcast against a row stack."""
        return _Stack(self.coefficients, self.M[:, None], self.centers[:, None],
                      self.phases[:, None])


def _stack_states(states) -> tuple[_Stack, np.ndarray, int]:
    """One flat stack of the Gaussian components of all states, the index of
    the state that owns each component, and the number of oscillator modes of
    the longest HermiteState (0 for none)."""
    stacks = [g._stack for g in states]
    stack = _Stack(*map(np.concatenate, zip(*stacks)))
    owner = np.repeat(np.arange(len(stacks)), [len(s.coefficients) for s in stacks])
    modes = max((len(g.coefficients) for g in states if isinstance(g, HermiteState)), default=0)
    return stack, owner, modes


def _state_sums(states, stack: _Stack, owner, K, C) -> np.ndarray:
    """Each state's sum over its own terms only: its coefficients times its rows
    of K (one per component of stack, in order), a HermiteState's times C."""
    out = np.zeros((len(states), K.shape[1]), dtype=complex)
    np.add.at(out, owner, stack.coefficients[:, None] * K)
    for row, g in zip(out, states):
        if isinstance(g, HermiteState):
            row += g.coefficients @ C[:len(g.coefficients)]
    return out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A normalized Gaussian window exp(i*phase/hbar) T(center) g_M."""

    M: np.ndarray
    center: np.ndarray
    phase: float
    hbar: float

    def __post_init__(self):
        M = check_siegel(self.M)
        center = as_phase_vector(self.center, M.shape[0])
        if self.hbar <= 0:
            raise InvalidMatrix("hbar must be positive")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "phase", float(self.phase))
        object.__setattr__(self, "hbar", float(self.hbar))
        object.__setattr__(self, "_stack", _Stack(np.ones(1, dtype=complex), M[None],
                                                  center[None], np.array([self.phase])))

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """A finite linear combination of GaussianState components (flat)."""

    coefficients: np.ndarray
    components: tuple

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex).ravel()
        comps = tuple(self.components)
        if coeff.size != len(comps) or coeff.size == 0:
            raise DimensionMismatch("one coefficient per component required")
        if not all(isinstance(g, GaussianState) for g in comps):
            raise DimensionMismatch("mixture components must be GaussianState instances")
        n, hbar = comps[0].n, comps[0].hbar
        if any(g.n != n or abs(g.hbar - hbar) > 1e-15 for g in comps):
            raise DimensionMismatch("mixture components must share n and hbar")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "components", comps)
        stack = _stack_states(comps)[0]._replace(coefficients=coeff)
        object.__setattr__(self, "_stack", stack)

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def hbar(self) -> float:
        return self.components[0].hbar

    def _map(self, f) -> "GaussianMixture":
        """The mixture of f(component) with the same coefficients."""
        return GaussianMixture(self.coefficients, tuple(map(f, self.components)))


@dataclass(frozen=True, eq=False)
class HermiteState:
    """The one-dimensional state sum_k coefficients[k] h_k over the
    orthonormal oscillator modes h_k(x) = (2^k k!)^(-1/2) H_k(x/sqrt(hbar))
    (pi hbar)^(-1/4) exp(-x^2/(2 hbar)), H_k the Hermite polynomials."""

    coefficients: np.ndarray
    hbar: float

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex).ravel()
        if coeff.size == 0:
            raise DimensionMismatch("at least one mode coefficient required")
        if self.hbar <= 0:
            raise InvalidMatrix("hbar must be positive")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "hbar", float(self.hbar))
        object.__setattr__(self, "_stack", _Stack(np.zeros(0, dtype=complex),
                                                  np.zeros((0, 1, 1), dtype=complex),
                                                  np.zeros((0, 2)), np.zeros(0)))

    @property
    def n(self) -> int:
        return 1


def _gaussian_only(g) -> None:
    if not isinstance(g, (GaussianState, GaussianMixture)):
        raise DimensionMismatch(f"a {type(g).__name__} has no closed-form phase-space transforms")


def standard_gaussian(n: int, hbar: float) -> GaussianState:
    """The standard centered Gaussian (M = iI, center 0, phase 0)."""
    return GaussianState(1j * np.eye(n), np.zeros(2 * n), 0.0, hbar)


def mixture_norm(psi: GaussianMixture) -> float:
    return float(np.sqrt(max(inner_product(psi, psi).real, 0.0)))


# ---------------------------------------------------------------------------
# Siegel half-space action and metaplectic transport of Gaussians
# ---------------------------------------------------------------------------

def siegel_action(S, M) -> np.ndarray:
    """(C + D M)(A + B M)^-1 for the block decomposition S = (A B; C D)."""
    S = check_symplectic(S)
    M = check_siegel(M)
    A, B, C, D = blocks(S)
    denom = A + B @ M
    singular_values = np.linalg.svd(denom, compute_uv=False)
    scale = max(1.0, float(singular_values[0]), float(np.max(np.abs(M))))
    if singular_values[-1] * SIEGEL_CONDITION_CAP < scale:
        raise NumericalDegeneracy("A + B M is numerically singular")
    out = (C + D @ M) @ np.linalg.inv(denom)
    return check_siegel(out)


def metaplectic_apply(S, g):
    """Transport a Gaussian along a symplectic matrix: M -> action(S)M,
    center -> S center.  A GaussianState keeps its global phase.  Each
    component of a mixture also takes the phase of det(A + B M)^(-1/2), on
    the eigenvalue-log branch of _det_power, so the relative phases of the
    components follow the metaplectic operator."""
    _gaussian_only(g)
    S = check_symplectic(S)
    if isinstance(g, GaussianMixture):
        A, B = blocks(S)[:2]
        factor = _det_power(A + B @ g._stack.M, -0.5)
        mapped = g._map(lambda comp: metaplectic_apply(S, comp))
        return GaussianMixture(g.coefficients * factor / np.abs(factor), mapped.components)
    return GaussianState(siegel_action(S, g.M), S @ g.center, g.phase, g.hbar)


def heisenberg_weyl_apply(z0, g):
    """Apply the phase-space shift T(z0) to a GaussianState or
    GaussianMixture: exact center and phase update."""
    _gaussian_only(g)
    if isinstance(g, GaussianMixture):
        return g._map(lambda comp: heisenberg_weyl_apply(z0, comp))
    centers, phases = _shifted(g, as_phase_vector(z0, g.n))
    return GaussianState(g.M, centers[0], phases[0], g.hbar)


def rescale_window(g, hbar_new: float):
    """Unitary dilation moving a window from its hbar to hbar_new.

    In (M, center, phase) coordinates the matrix is unchanged while center and
    phase scale by sqrt(hbar_new/hbar) and hbar_new/hbar respectively.
    """
    if hbar_new <= 0:
        raise InvalidMatrix("hbar must be positive")
    _gaussian_only(g)
    if isinstance(g, GaussianMixture):
        return g._map(lambda comp: rescale_window(comp, hbar_new))
    mu = np.sqrt(hbar_new / g.hbar)
    return GaussianState(g.M, mu * g.center, mu * mu * g.phase, hbar_new)


# ---------------------------------------------------------------------------
# Closed-form inner products
# ---------------------------------------------------------------------------

def _normalization(M: np.ndarray, hbar: float) -> np.ndarray:
    n = M.shape[-1]
    return (np.linalg.det(M.imag) / (np.pi * hbar) ** n) ** 0.25


def _det_power(A: np.ndarray, power: float) -> np.ndarray:
    """det(A)^power via principal-branch eigenvalue logs (eigenvalues must
    avoid the negative real axis; holds when the Hermitian part of A is PD)."""
    eig = np.linalg.eigvals(A)
    return np.exp(power * np.sum(np.log(eig), axis=-1))


def _overlap_core(left: _Stack, M2, Z2, gamma2, hbar: float):
    """<g(M1, z1, gamma1) | g(M2, z2, gamma2)>, the left side read from a
    stack, broadcast over the leading axes of matrices (..., n, n), centers
    (..., 2n) and phases (...); matrix terms use the matrix axes only."""
    M1 = left.M
    n = M1.shape[-1]
    M2c = np.conj(M2)
    A = M1 - M2c
    Ainv = np.linalg.inv(A)
    pref = (
        _normalization(M1, hbar)
        * _normalization(M2, hbar)
        * (2.0 * np.pi * hbar) ** (n / 2.0)
        * _det_power(-1j * A, -0.5)
    )
    X1, P1 = left.centers[..., :n], left.centers[..., n:]
    Z2 = np.asarray(Z2, dtype=float)
    X2, P2 = Z2[..., :n], Z2[..., n:]
    b = (-np.einsum("...ij,...j->...i", M1, X1) + np.einsum("...ij,...j->...i", M2c, X2)
         + (P1 - P2))
    c = (
        0.5 * np.einsum("...i,...ij,...j->...", X1, M1, X1)
        - 0.5 * np.einsum("...i,...ij,...j->...", X2, M2c, X2)
        - 0.5 * np.einsum("...i,...i->...", P1, X1)
        + 0.5 * np.einsum("...i,...i->...", P2, X2)
        + (left.phases - gamma2)
    )
    quad = 0.5 * np.einsum("...i,...ij,...j->...", b, Ainv, b)
    return pref * np.exp(1j / hbar * (c - quad))


def _mode_core(M, centers, phases, hbar: float, degree: int) -> np.ndarray:
    """c_k = integral h_k conj(g) of the oscillator modes k <= degree (see
    HermiteState) against normalized 1-D Gaussians g(M, z0, gamma), broadcast
    over the leading axes of matrices (..., 1, 1), centers (..., 2) and phases
    (...); shape (degree + 1, ...).

    The generating function sum_k h_k t^k / sqrt(k!) of the modes integrates
    against conj(g) to c_0 exp(b t + a t^2), hence the three-term recurrence
    c_{k+1} = (b c_k + 2 a sqrt(k) c_{k-1}) / sqrt(k + 1) with
    alpha = (1 + i conj(M))/hbar, beta = (i/hbar)(conj(M) x0 - p0),
    a = 1/(hbar alpha) - 1/2 and b = sqrt(2/hbar) beta/alpha (a = 0 for the
    standard window: Bargmann monomials).  Far from the modes c_0 underflows
    to 0 and so does every c_k.
    """
    m = np.conj(M[..., 0, 0])
    x0, p0 = centers[..., 0], centers[..., 1]
    if degree < 0:
        return np.zeros((0,) + np.broadcast(m, x0, phases).shape, dtype=complex)
    alpha = (1.0 + 1j * m) / hbar
    beta = 1j / hbar * (m * x0 - p0)
    a = 1.0 / (hbar * alpha) - 0.5
    b = np.sqrt(2.0 / hbar) * beta / alpha
    expo = 0.5 * beta**2 / alpha - 1j / hbar * (0.5 * m * x0**2 - 0.5 * p0 * x0 + phases)
    c0 = ((np.pi * hbar) ** -0.25 * (M.imag[..., 0, 0] / (np.pi * hbar)) ** 0.25
          * np.sqrt(2.0 * np.pi / alpha) * np.exp(expo))
    out = np.empty((degree + 1,) + c0.shape, dtype=complex)
    out[0] = c0
    if degree >= 1:
        out[1] = b * c0
    for k in range(1, degree):
        out[k + 1] = (b * out[k] + 2.0 * np.sqrt(k) * a * out[k - 1]) / np.sqrt(k + 1.0)
    return out


def _state_gram(states1, states2) -> np.ndarray:
    """<states1_i | states2_j> of Gaussian, mixture and Hermite states: the
    conjugated _state_sums of the right states over the left states' sums of
    their overlaps with the right components and the orthonormal modes."""
    s, owner1, modes1 = _stack_states(states1)
    t, owner2, modes2 = _stack_states(states2)
    hbar = states1[0].hbar
    # rows: left components (K) or modes (C); columns: right components, modes
    K = np.concatenate([_overlap_core(s.column(), t.M, t.centers, t.phases, hbar),
                        _mode_core(s.M, s.centers, s.phases, hbar, modes2 - 1).conj().T], 1)
    C = np.concatenate([_mode_core(t.M, t.centers, t.phases, hbar, modes1 - 1),
                        np.eye(modes1, modes2)], 1)
    left = _state_sums(states1, s, owner1, K, C).conj().T
    return _state_sums(states2, t, owner2, left[:owner2.size], left[owner2.size:]).conj().T


def inner_product(g1, g2) -> complex:
    """L2 inner product (g1|g2) = integral g1 conj(g2), closed form."""
    if g1.n != g2.n:
        raise DimensionMismatch("states of different dimension")
    if abs(g1.hbar - g2.hbar) > 1e-15:
        raise DimensionMismatch("states with different hbar")
    return complex(_state_gram([g1], [g2])[0, 0])


def _shifted(phi: GaussianState, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Centers c + z and phases gamma + sigma(z, c)/2 of T(z) phi, per shift row z."""
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if shifts.shape[1] != 2 * phi.n:
        raise DimensionMismatch("shift rows must have length 2n")
    n = phi.n
    sig = shifts[:, n:] @ phi.center[:n] - phi.center[n:] @ shifts[:, :n].T
    return phi.center + shifts, phi.phase + 0.5 * sig


def _shift_overlaps(states, phi: GaussianState, shifts) -> np.ndarray:
    """<states_j | T(z_p) phi> for all states and shift rows: one kernel call
    for the Gaussian components (none for modes only, as in the witness scan)
    and one mode recurrence for HermiteStates, summed by _state_sums."""
    stack, owner, modes = _stack_states(states)
    centers, gammas = _shifted(phi, shifts)
    K = (_overlap_core(stack.column(), phi.M, centers, gammas, phi.hbar) if owner.size
         else np.zeros((0, len(gammas))))
    C = _mode_core(phi.M, centers, gammas, phi.hbar, modes - 1)
    return _state_sums(states, stack, owner, K, C)


def overlaps_with_shifts(psi, phi: GaussianState, shifts) -> np.ndarray:
    """<psi | T(z) phi> for every row z of shifts, shape (num_shifts,).

    psi may be a GaussianState or a GaussianMixture; phi must be Gaussian.
    """
    return _shift_overlaps([psi], phi, shifts)[0]


# Bytes of kernel temporaries one row chunk of shifted_gram may hold.
GRAM_CHUNK_BYTES = 1 << 22


def _overlap_bytes(n: int) -> int:
    """Bytes that one broadcast _overlap_core evaluation holds at its peak,
    its output included (measured with tracemalloc at n = 1, 2, 3)."""
    return 16 * (4 + n)


def _gram_chunk_rows(n: int, columns: int) -> int:
    """Rows per chunk of shifted_gram over `columns` shifts in dimension n."""
    return max(1, GRAM_CHUNK_BYTES // (max(columns, 1) * _overlap_bytes(n)))


def shifted_gram(phi: GaussianState, shifts, rows=None) -> np.ndarray:
    """The rows with indices `rows` (all for None) of the Gram matrix
    G_ij = <T(z_i) phi | T(z_j) phi> over the given shifts.

    Filled in chunks of _gram_chunk_rows rows, one broadcast kernel call each:
    a one-shot broadcast would hold several N x N complex temporaries at once."""
    centers, gammas = _shifted(phi, shifts)
    N = centers.shape[0]
    rows = np.arange(N) if rows is None else np.asarray(rows, dtype=int)
    out = np.empty((rows.size, N), dtype=complex)
    step = _gram_chunk_rows(phi.n, N)
    for start in range(0, rows.size, step):
        chunk = rows[start:start + step]
        left = _Stack(1.0, phi.M, centers[chunk, None], gammas[chunk, None])
        out[start:start + step] = _overlap_core(left, phi.M, centers, gammas, phi.hbar)
    return out

"""Parameterized-problem contract and the uncertainty box for its parameters."""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass

import numpy as np

from ..exceptions import BvpSolveError


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float array of length >= 1."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class Problem(abc.ABC):
    """Optimization problem whose objective depends on uncertain parameters.

    ``d`` and ``p`` are the lengths of the decision variable m and of the
    parameters theta.  A concrete problem implements one method on stacks
    of S points, M (S, d) and Theta (S, p), row s being the point
    (M[s], Theta[s]): ``derivatives(M, Theta, dTheta=None)`` returns J, the
    gradient in m, the Hessian in m and b = B dTheta, of shapes (S,),
    (S, d), (S, d, d) and (S, d), where B (S, d, p) is the mixed second
    derivative once in m and once in theta, and row s of dTheta (S, p) is
    the parameter direction of row s.  Without directions b is None.  The
    march asks for B's action on its direction alone and the Newton oracle
    for no B at all, so a problem can skip the work B needs; J, g and H
    must not depend on whether directions are given.  A problem that has B
    in full returns ``mixed_action(B, dTheta)``.

    ``values(M, Theta)``, J of shape (S,), is the J of ``derivatives``
    unless a problem overrides it with a cheaper form; the Newton oracle's
    line search calls it from its second backtracking round on.  A row the
    problem cannot evaluate (a failed PDE solve, say) is +inf in ``values``,
    so that a line search backtracks from it, and NaN in every output of
    ``derivatives``; the other rows are unaffected.  Every operation must be
    row-wise, so that a row's value does not depend on its stack.

    The one-point helpers ``objective``, ``gradient``, ``objective_gradient``,
    ``hessian`` and ``hessian_and_mixed`` take m (d,) and theta (p,) and
    raise BvpSolveError where J is not finite.  All but the last are S = 1
    calls without directions; ``hessian_and_mixed`` gets the full B from one
    p-row call with the directions eye(p) (see ``derivatives_at``).  No code
    in this package calls ``objective_gradient`` or ``hessian_and_mixed``;
    they stay for the benchmark under ``perfbench/``, whose correctness
    check calls ``objective_gradient`` and ``hessian`` and whose tracer
    wraps them by name.

    ``basin_hint``, when set, is an open box in decision space inside which
    the minimizer is assumed unique for all admissible parameters; it is
    diagnostic only and never enforced.
    """

    d: int
    p: int
    basin_hint: tuple[np.ndarray, np.ndarray] | None = None

    @abc.abstractmethod
    def derivatives(self, M: np.ndarray, Theta: np.ndarray, dTheta: np.ndarray | None = None):
        """(J, dJ/dm, d2J/dm2, d2J/(dm dtheta) dTheta) at S points; NaN rows where they fail."""

    def values(self, M: np.ndarray, Theta: np.ndarray) -> np.ndarray:
        """J at S points, shape (S,); +inf where it is not finite."""
        J = self.derivatives(M, Theta)[0]
        return np.where(np.isfinite(J), J, np.inf)

    def objective(self, m, theta) -> float:
        """J(m, theta) at one point."""
        J = self.values(*_point(m, theta))[0]
        _require_finite(J, m, theta)
        return float(J)

    def objective_gradient(self, m, theta) -> tuple[float, np.ndarray]:
        """J and dJ/dm, shape (d,), at one point."""
        J, g, _ = self._value_gradient_hessian(m, theta)
        return J, g

    def gradient(self, m, theta) -> np.ndarray:
        """dJ/dm at one point, shape (d,)."""
        return self._value_gradient_hessian(m, theta)[1]

    def hessian(self, m, theta) -> np.ndarray:
        """d2J/dm2 at one point, shape (d, d), symmetric."""
        return self._value_gradient_hessian(m, theta)[2]

    def hessian_and_mixed(self, m, theta) -> tuple[np.ndarray, np.ndarray]:
        """Hessian and mixed derivative at one point."""
        return derivatives_at(self, m, theta)[2:]

    def _value_gradient_hessian(self, m, theta):
        J, g, H, _ = self.derivatives(*_point(m, theta))
        _require_finite(J[0], m, theta)
        return float(J[0]), g[0], H[0]

    def initial_guess(self) -> np.ndarray:
        """Default starting point for the nominal solve."""
        raise NotImplementedError

    def in_basin(self, states: np.ndarray) -> np.ndarray:
        """Whether each of S marches stayed strictly inside basin_hint.

        ``states`` (n, S, d) holds the n iterates of S marches, as
        ``march_block`` checks them in one call.  The answer, shape (S,), is
        True for a march whose every iterate is inside, and always True when
        no hint is set.
        """
        if self.basin_hint is None:
            return np.ones(states.shape[1], dtype=bool)
        lo, hi = self.basin_hint
        return np.all((states > lo) & (states < hi), axis=(0, 2))


def derivatives_at(problem, m, theta) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """J, g, H and the full mixed derivative B, (d, p), at one point.

    One ``derivatives`` call with p copies of the point and the directions
    eye(p), so that column k of B is the action on the k-th unit direction;
    J, g and H are those of the first copy.  Raises BvpSolveError where J
    is not finite.
    """
    M, Theta = _point(m, theta)
    p = Theta.shape[1]
    J, g, H, b = problem.derivatives(
        np.repeat(M, p, axis=0), np.repeat(Theta, p, axis=0), np.eye(p)
    )
    _require_finite(J[0], m, theta)
    return float(J[0]), g[0], H[0], b.T.copy()


def mixed_action(B, dTheta):
    """b = B dTheta row by row, (S, d), for B (S, d, p); None without directions."""
    return None if dTheta is None else (B @ dTheta[..., None])[..., 0]


def dot_rows(X, y) -> np.ndarray:
    """Row-wise dot products of X (S, n) with y (S, n) or (n,).

    A stacked matmul gives each row the result of the one-point ``x @ y``
    exactly, where an axis sum or ``X @ y`` may round differently.
    """
    return (X[:, None, :] @ y[..., None])[:, 0, 0]


def _point(m, theta) -> tuple[np.ndarray, np.ndarray]:
    """One point as a stack of one: M (1, d) and Theta (1, p)."""
    return np.asarray(m, dtype=float)[None], np.asarray(theta, dtype=float)[None]


def _require_finite(J, m, theta) -> None:
    if not np.isfinite(J):
        raise BvpSolveError(f"objective cannot be evaluated at m={m!r}, theta={theta!r}")


@dataclass(frozen=True)
class ParameterBox:
    """Hyper-rectangle of admissible parameters around a nominal vector.

    Coordinate k admits values within ``half_widths[k]`` of ``nominal[k]``.
    """

    nominal: np.ndarray
    half_widths: np.ndarray

    def __post_init__(self):
        nominal = as_vector(self.nominal, "nominal")
        hw = as_vector(self.half_widths, "half_widths")
        if hw.shape != nominal.shape:
            raise ValueError("half_widths must have the same length as nominal")
        if np.any(hw < 0):
            raise ValueError("half_widths must be nonnegative")
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "half_widths", hw)

    @classmethod
    def relative(cls, nominal, fraction) -> "ParameterBox":
        """Build a box with half-widths ``fraction * |nominal|`` per coordinate.

        ``fraction`` may be a scalar or a per-coordinate sequence.
        """
        nominal = as_vector(nominal, "nominal")
        frac = np.broadcast_to(np.asarray(fraction, dtype=float), nominal.shape)
        if np.any(frac < 0):
            raise ValueError("relative fraction must be nonnegative")
        return cls(nominal, frac * np.abs(nominal))

    @property
    def p(self) -> int:
        return self.nominal.size

    @property
    def lower(self) -> np.ndarray:
        return self.nominal - self.half_widths

    @property
    def upper(self) -> np.ndarray:
        return self.nominal + self.half_widths

    def require_member(self, theta) -> np.ndarray:
        """Validate membership, naming the first violating coordinate."""
        theta = as_vector(theta, "theta")
        if theta.shape != self.nominal.shape:
            raise ValueError(
                f"theta has length {theta.size}, expected {self.p}"
            )
        # compared with the rounded bounds, not |theta - nominal| <= half_widths:
        # that form rejects draws of ``sample`` that round past a tiny half-width
        outside = (theta < self.lower) | (theta > self.upper)
        if np.any(outside):
            k = int(np.argmax(outside))
            raise ValueError(
                f"theta_{k + 1}={theta[k]!r} lies outside "
                f"[{self.lower[k]!r}, {self.upper[k]!r}]"
            )
        return theta

    def sample(self, seed: int, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. uniform samples, one row per sample.

        Sample i is generated from its own random stream derived from
        ``seed`` and i, so subsets and orderings never affect the values
        drawn for a given index.  Row i is, bit for bit,

            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            nominal + half_widths * rng.uniform(-1.0, 1.0, p)

        computed for all rows at once.  ``seed`` must be a non-negative
        integer (ValueError otherwise, as from ``SeedSequence``).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.nominal + self.half_widths * _uniform_streams(seed, count, self.p)


# numpy's SeedSequence hashing constants and pool size, and the 128-bit
# multiplier of its PCG64 generator as high and low 64-bit words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uniform_streams(seed, count: int, p: int) -> np.ndarray:
    """``uniform(-1, 1, p)`` of the PCG64 stream seeded by SeedSequence(seed, spawn_key=(i,)).

    Returns shape (count, p), row i for stream i.  SeedSequence hashes the
    32-bit words of ``seed``, zero-padded to the pool size, and then the
    spawn word i into a pool of four words; ``generate_state(4, uint64)``
    hashes the pool into the PCG64 seed (s0:s1) and increment (s2:s3) words.
    Each step runs on uint32 or uint64 arrays over i, which wrap modulo
    2**32 or 2**64 as numpy's C does; 128-bit PCG64 states are (hi, lo)
    pairs of uint64 arrays.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    # one-element arrays broadcast against the spawn words of all streams
    entropy = list(np.array(words, dtype=np.uint32)[:, None])
    entropy.append(np.arange(count, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    hash_const = _INIT_B
    state = []
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    s0, s1, s2, s3 = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))

    # pcg64_set_seed: state 0, inc = (s2:s3 << 1) | 1, step, add s0:s1, step
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    hi, lo = _add128(inc_hi, inc_lo, s0, s1)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    draws = np.empty((count, p))
    for k in range(p):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then next_double and uniform's low + range * u
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << ((64 - rot) & 63)
        draws[:, k] = -1.0 + 2.0 * ((x >> 11).astype(float) * 2.0**-53)
    return draws


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step on 128-bit states (hi, lo): state * multiplier + inc."""
    lo0, lo1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = lo1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    hi = carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)

"""Joint and reduced Bloch-space dynamics for bipartite systems.

The unitary law ``d(rho)/dt = -i [H, rho]`` acts linearly on the packed
coordinates (r1, r2, row-major r12).  Every ξ law (``linear`` is the one of
weight 1) runs one route built from the structure constants f and g:
``dx/dt = L_loc x + w(x) L_int x``.  Per coordinate, with local
coefficients h1/h2, interaction block h12 and summation over repeated
indices (``L_loc`` holds the h1/h2 terms, ``L_int`` the h12 terms):

      dr1_k  = 2 f1_aik h1_a r1_i  +  (4/N2) f1_aik h12_ab r12_ib  * xi1
      dr2_l  = 2 f2_bjl h2_b r2_j  +  (4/N1) f2_bjl h12_ab r12_aj  * xi2
      dr12_pq = 2 f1_aip h1_a r12_iq + 2 f2_bjq h2_b r12_pj
              + 2 (g1_aip f2_bjq + f1_aip g2_bjq) h12_ab r12_ij    * xi_bilinear
              + 2 f1_aip r1_i h12_aq                               * xi_local1
              + 2 f2_bjq r2_j h12_pb                               * xi_local2

For fixed dims, ``[L_loc; L_int]`` is one fixed, sparse, linear map of the
coefficients ``(h1, h2, h12)``.  That map is compiled once per dims from f
and g, so each Hamiltonian costs one scatter of its coefficients; a
Hamiltonian whose generator is not finite is refused there.
The weights are one scalar of the state for a uniform ``xi`` law, or, for
an indexed law, one per (term, interaction element) whose unweighted
contribution is nonzero, one array per family from one call per
evaluation: no family is called with ``h12 = 0``, nor bilinear for qubits.
A constant weight c (:meth:`XiFunctions.constant`; the preset ``one`` of
``linear``) is compiled with the Hamiltonian into one generator
``L_loc + c L_int``, one matrix-vector product per evaluation.
Nonconstant weights make the joint flow nonlinear while leaving the
isolated-subsystem flow untouched — the construction probed by
:mod:`blochsig.nosignal_audit`.  Every isolated-subsystem flow is one
:class:`ReducedFlow`, shared per law and local Hamiltonian
(:func:`reduced_flow`); :func:`reduced_propagator_fit` tests it for an
affine map ``A r0 + c``, the form of every local CPTP map.
:func:`linear_generator` builds the linear flow independently, through the
matrix commutator; it is the test oracle that the compiled field must
match when every weight is one.

The packed layout and its operator frame live in :mod:`blochsig.bloch`
(``joint_frame``; ``pack_coords``/``unpack_coords`` are re-exported).

Physicality along trajectories is monitored, never enforced: projecting
back into the physical set would corrupt the audits that this module
feeds.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from . import integrate
from .bloch import (
    PSD_TOLERANCE,
    JointBlochState,
    _blocks,
    _pack,
    _split,
    joint_frame,
    joint_from_bloch,
    min_eigenvalue,
    pack_coords,
    unpack_coords,
)
from .errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    NonFiniteGeneratorError,
    NonlinearityEvaluationError,
)
from .integrate import DEFAULT_OPTIONS, IntegratorOptions, _require_number
from .sampling import hs_densities
from .su_basis import _check_pair, cached_basis, cached_constants

__all__ = [
    "BlochHamiltonian",
    "hamiltonian_from_matrix",
    "random_hamiltonian",
    "XiFunctions",
    "XI_PRESETS",
    "xi_preset",
    "EvolutionLaw",
    "linear_law",
    "xi_law",
    "custom_law",
    "linear_generator",
    "vector_field",
    "EvolutionResult",
    "evolve",
    "evolve_path",
    "reduced_generator",
    "DEFAULT_BRANCH_OPTIONS",
    "reduced_flow",
    "reduced_propagator_fit",
    "pack_coords",
    "unpack_coords",
]


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass(frozen=True, eq=False)
class BlochHamiltonian:
    """Coefficient form ``H = h0 I + h1.(s x I) + h2.(I x l) + h12_ij s_i x l_j``.

    All coefficients are real, which makes the reconstructed matrix
    Hermitian by construction.  ``h12`` is the only part able to generate
    correlations; ``is_interaction_free`` tests for its exact vanishing.
    """

    dims: tuple[int, int]
    h0: float = 0.0
    h1: np.ndarray | None = None
    h2: np.ndarray | None = None
    h12: np.ndarray | None = None

    def __post_init__(self):
        n1, n2 = _check_pair(self.dims)
        object.__setattr__(self, "dims", (n1, n2))
        d1, d2 = n1**2 - 1, n2**2 - 1
        object.__setattr__(self, "h0", float(self.h0))
        for name, shape in (("h1", (d1,)), ("h2", (d2,)), ("h12", (d1, d2))):
            val = getattr(self, name)
            arr = np.zeros(shape) if val is None else np.asarray(val, dtype=float)
            if arr.shape != shape:
                raise DimensionMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def is_interaction_free(self) -> bool:
        return not bool(np.any(self.h12 != 0.0))

    def interaction_free(self) -> "BlochHamiltonian":
        """Copy with the interaction block zeroed."""
        return replace(self, h12=np.zeros_like(self.h12))

    def matrix(self) -> np.ndarray:
        frame = joint_frame(*map(cached_basis, self.dims))
        return frame.combine(self.h0, _pack(self.h1, self.h2, self.h12))


def hamiltonian_from_matrix(h: np.ndarray, dims: tuple[int, int]) -> BlochHamiltonian:
    """Project a finite Hermitian matrix onto its coefficient form."""
    dims = n1, n2 = _check_pair(dims)
    h = np.asarray(h, dtype=complex)
    if h.shape != (n1 * n2, n1 * n2):
        raise DimensionMismatchError(f"matrix must be {(n1 * n2, n1 * n2)}, got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    herm = np.max(np.abs(h - h.conj().T))
    if herm > 1e-12:
        raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
    h0 = float(np.trace(h).real) / (n1 * n2)
    coeffs = joint_frame(*map(cached_basis, dims)).project(h)
    return BlochHamiltonian(dims, h0, *_split(coeffs, dims))


def random_hamiltonian(
    rng: np.random.Generator,
    dims: tuple[int, int],
    scale: float = 0.5,
    interaction: bool = True,
) -> BlochHamiltonian:
    """Gaussian random coefficients, optionally with an interaction block."""
    n1, n2 = _check_pair(dims)
    d1, d2 = n1**2 - 1, n2**2 - 1
    h1 = scale * rng.standard_normal(d1)
    h2 = scale * rng.standard_normal(d2)
    h12 = scale * rng.standard_normal((d1, d2)) if interaction else np.zeros((d1, d2))
    return BlochHamiltonian(dims, 0.0, h1, h2, h12)


# ---------------------------------------------------------------------------
# State-dependent weights


def _is_finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonlinearityEvaluationError(f"weight evaluated to non-finite value {value!r}")
    return value


_FAMILIES = ("xi1", "xi2", "xi12_bilinear", "xi12_local1", "xi12_local2")


@dataclass(frozen=True, eq=False)
class _Constant:
    """The uniform weight of :meth:`XiFunctions.constant`: a callable that
    carries its value, so the joint field can compile it."""

    value: float

    def __call__(self, r1, r2, r12) -> float:
        return self.value


@dataclass(frozen=True)
class XiFunctions:
    """State-dependent weights attached to interaction-mediated terms.

    Each of the five indexed families is called once per field evaluation
    with the index tuples where its term's unweighted contribution is
    nonzero, as integer arrays (the flow component or pair, then the
    interaction element weighted), and the state ``(r1, r2, r12)``.  It
    returns one finite weight per tuple, or a scalar shared by all.  A family
    with no tuple (none has one with ``h12 = 0``) is never called.  The families:

    * ``xi1(i, a, b, r1, r2, r12)`` and ``xi2(i, a, b, ...)`` weight the
      contribution of ``h12[a, b]`` to the reduced components;
    * ``xi12_bilinear(p, q, a, b, ...)`` weights ``h12[a, b]`` in the
      correlation flow (never called for a qubit pair: g = 0);
    * ``xi12_local1(p, q, a, ...)`` weights ``h12[a, q]`` and
      ``xi12_local2(p, q, b, ...)`` weights ``h12[p, b]``.

    ``uniform``, set in place of all five, is one scalar function of the
    state, evaluated once per field call but for a finite :meth:`constant`
    — the built-in presets are of this form.
    """

    xi1: Callable | None = None
    xi2: Callable | None = None
    xi12_bilinear: Callable | None = None
    xi12_local1: Callable | None = None
    xi12_local2: Callable | None = None
    uniform: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        if [getattr(self, f) is not None for f in _FAMILIES] != [self.uniform is None] * 5:
            raise ValueError("supply either `uniform` or all five indexed weights, not both")

    @classmethod
    def constant(cls, value: float = 1.0, name: str | None = None) -> "XiFunctions":
        """The uniform weight ``c``: the joint field compiles it into one
        generator ``L_loc + c L_int`` per Hamiltonian and never calls it
        (a non-finite ``c`` is called, and refused, as any uniform weight
        is).  ``as_indexed()`` still calls it once per family."""
        value = float(value)
        return cls(uniform=_Constant(value), name=name or f"constant({value:g})")

    def as_indexed(self) -> "XiFunctions":
        """Expand a uniform weight into the five indexed families, each one
        call of it whose scalar all tuples share, to drive the general
        evaluation route (used by tests)."""
        if self.uniform is None:
            return self
        u = self.uniform
        return XiFunctions(**dict.fromkeys(_FAMILIES, lambda *args: u(*args[-3:])),
                           name=self.name + ":indexed")


def _purity_first(r1, r2, r12) -> float:
    n1 = math.isqrt(len(r1) + 1)
    return (1.0 + 2.0 * float(r1 @ r1) / n1) / n1


def _corrnorm(r1, r2, r12) -> float:
    return 1.0 / (1.0 + float(np.vdot(r12, r12)))


XI_PRESETS = {
    "one": XiFunctions.constant(1.0, name="one"),
    "purity1": XiFunctions(uniform=_purity_first, name="purity1"),
    "corrnorm": XiFunctions(uniform=_corrnorm, name="corrnorm"),
}


def xi_preset(name: str) -> XiFunctions:
    """The shared, immutable weight ``XI_PRESETS[name]`` (``one``: ``linear_law()``'s)."""
    try:
        return XI_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown weight preset {name!r}; available: {sorted(XI_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# Evolution laws


@dataclass(frozen=True)
class EvolutionLaw:
    """A rule for the joint flow plus the isolated-subsystem flow it induces.

    A law is its fields.  A ξ law sets ``xi`` alone (``ValueError`` beside a
    field, or if not an :class:`XiFunctions`); its reduced flow is the local
    rotation, and ``linear`` is the ξ law of the constant weight 1.  Other
    laws run their own ``joint_field_fn(H, r1, r2, r12) -> (dr1, dr2, dr12)``
    and ``reduced_field_fn(h_local, r) -> dr``, which acts on the last axis,
    ``(..., d)`` to ``(..., d)``: branch propagation hands it a ``(B, d)``
    batch of independent states, complex ones for the audit's complex steps,
    and building the flow rejects a field that mixes the rows of a batch or
    is not complex-analytic."""

    name: str
    xi: XiFunctions | None = None
    joint_field_fn: Callable | None = None
    reduced_field_fn: Callable | None = None

    def __post_init__(self):
        if self.xi is not None and not isinstance(self.xi, XiFunctions):
            raise ValueError(f"law {self.name!r}: xi must be an XiFunctions, got {self.xi!r}")
        if self.xi is not None and (self.joint_field_fn, self.reduced_field_fn) != (None, None):
            raise ValueError(f"law {self.name!r} sets xi beside a field of its own")


def linear_law() -> EvolutionLaw:
    """The unitary law: the ξ law of the constant weight 1 (preset ``one``)."""
    return EvolutionLaw("linear", xi=XI_PRESETS["one"])


def xi_law(xi: XiFunctions | str) -> EvolutionLaw:
    if isinstance(xi, str):
        xi = xi_preset(xi)
    return EvolutionLaw(f"xi:{xi.name}", xi=xi)


def custom_law(
    name: str,
    reduced_field: Callable | None = None,
    joint_field: Callable | None = None,
) -> EvolutionLaw:
    """A law from its own fields, with no ξ weights.

    ``reduced_field(h_local, r)`` must act on the last axis of ``r``,
    ``(..., d) -> (..., d)`` — index the coordinates as ``r[..., k]``, not
    ``r[k]`` — since audits propagate many branch states as one batch.  It
    must also be complex-analytic, since the audit differentiates by complex
    steps: no ``dtype=float`` casts, ``abs`` or ``.real`` of the state.
    ``joint_field(H, r1, r2, r12)`` returns ``(dr1, dr2, dr12)`` for one
    state.
    """
    return EvolutionLaw(name, joint_field_fn=joint_field, reduced_field_fn=reduced_field)


# ---------------------------------------------------------------------------
# Commutator route: the independent test oracle


def linear_generator(hamiltonian: BlochHamiltonian) -> np.ndarray:
    """Matrix of the commutator flow on packed coordinates.

    Built numerically: each coordinate direction, ``combine`` of an identity
    row (N rows at a time), is pushed through ``-i [H, .]`` and projected
    back.  The test oracle that the compiled structure-constant field must
    reproduce when all weights are one.
    """
    frame, h = joint_frame(*map(cached_basis, hamiltonian.dims)), hamiltonian.matrix()
    dirs = (frame.combine(0.0, e) for e in np.array_split(np.eye(len(h) ** 2 - 1), len(h)))
    return np.concatenate([frame.project(-1j * (h @ m - m @ h)) for m in dirs]).T


# ---------------------------------------------------------------------------
# Structure-constant field: its map compiled once per dims, one scatter per
# Hamiltonian


class _Term(NamedTuple):
    """One term of the module docstring, an einsum of structure constants and
    one block of the Hamiltonian.

    ``operands`` hold the block's name (``"h1"``, ``"h2"`` or ``"h12"``)
    where its coefficients go.  With the block in its place, contracting
    over ``subscripts`` into ``out + state`` gives the term's part of
    ``L_loc`` or, for an interaction term (``family`` set), of ``L_int``.  An
    interaction term's entry has the weight tuple of the ``out`` indices of
    its row and the ``open`` indices of the ``h12`` element it scales (``a``
    its row, ``b`` its column): one call ``getattr(xi, family)(*out, *open,
    r1, r2, r12)`` per evaluation takes a term's tuples as index arrays
    (:func:`_indexed_field`).
    """

    family: str | None
    factor: float
    subscripts: str
    operands: tuple
    out: str
    open: str
    state: str
    out_block: slice
    state_block: slice


@lru_cache(maxsize=16)
def _terms(n1: int, n2: int) -> tuple[_Term, ...]:
    """The four local terms, then the five interaction terms."""
    sc1, sc2 = cached_constants(n1), cached_constants(n2)
    f1, g1, f2, g2 = sc1.f, sc1.g, sc2.f, sc2.g
    eye1, eye2 = np.eye(len(f1)), np.eye(len(f2))
    s1, s2, s12 = _blocks(n1, n2)
    # The bilinear term sums g1 f2 + f1 g2 over the stacked axis s.
    gf, fg = np.stack((g1, f1)), np.stack((f2, g2))
    return (
        _Term(None, 2.0, "aik,a", (f1, "h1"), "k", "", "i", s1, s1),
        _Term(None, 2.0, "bjl,b", (f2, "h2"), "l", "", "j", s2, s2),
        _Term(None, 2.0, "aip,a,qj", (f1, "h1", eye2), "pq", "", "ij", s12, s12),
        _Term(None, 2.0, "bjq,b,pi", (f2, "h2", eye1), "pq", "", "ij", s12, s12),
        _Term("xi1", 4.0 / n2, "aik,ab,jb", (f1, "h12", eye2), "k", "ab", "ij", s1, s12),
        _Term("xi2", 4.0 / n1, "bjl,ab,ia", (f2, "h12", eye1), "l", "ab", "ij", s2, s12),
        _Term("xi12_bilinear", 2.0, "saip,sbjq,ab", (gf, fg, "h12"), "pq", "ab", "ij", s12, s12),
        _Term("xi12_local1", 2.0, "aip,aq", (f1, "h12"), "pq", "a", "i", s12, s1),
        _Term("xi12_local2", 2.0, "bjq,pb", (f2, "h12"), "pq", "b", "j", s12, s2),
    )


def _term_entries(term: _Term, blocks: dict) -> tuple[Callable, np.ndarray, np.ndarray]:
    """The nonzero products of a term's operands, before any sum: a function
    of letters (and a start) giving their row-major flat positions, the flat
    coefficient of the block each scales, and the values (``factor``
    included).  The Hamiltonian block constrains nothing, so it only adds
    its letters that no other operand binds, each over its whole range."""
    index, extent, value = {}, {}, np.array([term.factor])
    pairs = zip(term.subscripts.split(","), term.operands)
    for letters, op in sorted(pairs, key=lambda pair: isinstance(pair[1], str)):
        if isinstance(op, str):
            extent.update(zip(letters, blocks[op][1]))
            block = letters, blocks[op][0]
            letters = [c for c in letters if c not in index]
            if not letters:
                continue
            op = np.ones([extent[c] for c in letters])
        extent.update(zip(letters, op.shape))
        at = np.nonzero(op)
        match = np.ones((value.size, at[0].size), dtype=bool)  # pairs agreeing on shared letters
        for c, i in zip(letters, at):
            if c in index:
                match &= index[c][:, None] == i
        left, right = np.nonzero(match)
        index = {c: i[left] for c, i in index.items()} | {c: i[right] for c, i in zip(letters, at)}
        value = value[left] * op[at][right]

    def flat(letters, start=0):
        return start + np.ravel_multi_index([index[c] for c in letters], [extent[c] for c in letters])

    return flat, flat(*block), value


@lru_cache(maxsize=16)
def _generator_map(dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The sparse linear map from packed Hamiltonian coefficients
    ``(h1, h2, h12)`` to the stacked ``[L_loc; L_int]``: flat positions in
    the ``(2, size, size)`` stack, the coefficient each entry scales, and its
    factor, one entry per nonzero product of a term (the scatter sums the
    entries that share a position); then where each term's entries end, after
    a leading 0 (term k holds entries ``ends[k]:ends[k + 1]``)."""
    s1, s2, s12 = _blocks(*dims)
    d1, d2, size = s1.stop, s2.stop - s1.stop, s12.stop
    blocks = {"h1": (s1.start, (d1,)), "h2": (s2.start, (d2,)), "h12": (s12.start, (d1, d2))}
    positions, coefficients, values = [], [], []
    for t in _terms(*dims):
        flat, coefficient, value = _term_entries(t, blocks)
        row, col = flat(t.out, t.out_block.start), flat(t.state, t.state_block.start)
        positions.append(((t.family is not None) * size + row) * size + col)
        coefficients.append(coefficient)
        values.append(value)
    out = tuple(np.concatenate(parts) for parts in (positions, coefficients, values))
    for a in out:
        a.setflags(write=False)
    return (*out, tuple(np.cumsum([0, *map(len, values)]).tolist()))


def _generators(hamiltonian: BlochHamiltonian) -> np.ndarray:
    """The stacked ``[L_loc; L_int]`` (shape ``(2, size, size)``) of a
    Hamiltonian: one scatter of its coefficients through the map of its
    dims.  Refuses a Hamiltonian whose generator is not finite."""
    position, coefficient, value, _ = _generator_map(hamiltonian.dims)
    c = _pack(hamiltonian.h1, hamiltonian.h2, hamiltonian.h12)
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.bincount(position, weights=value * c[coefficient], minlength=2 * c.size**2)
    _require_finite(stacked, f"Hamiltonian of dims {hamiltonian.dims}", c)
    return stacked.reshape(2, c.size, c.size)


def _require_finite(generator: np.ndarray, what: str, coefficients: np.ndarray) -> None:
    if not np.isfinite(generator).all():
        raise NonFiniteGeneratorError(
            f"{what} has a non-finite generator "
            f"(largest |coefficient| {np.max(np.abs(coefficients)):.3g})"
        )


def _indexed_field(hamiltonian: BlochHamiltonian, xi: XiFunctions, loc: np.ndarray) -> Callable:
    """``L_loc x`` plus the indexed weights' interaction terms, read from the
    scatter map's ``L_int`` entries that are not exact zeros.  An entry's
    weight tuple is the ``out`` indices of its row, then the ``open`` indices
    of its ``h12`` element; every other letter of the element is an ``out``
    letter, so (row, element) orders the tuples.  Each family is one call over
    its tuples in ascending order, filling its slice of the weights ``w``;
    each entry adds ``w[slot] * value * x[col]`` to its row."""
    dims = hamiltonian.dims
    position, coefficient, value, ends = _generator_map(dims)
    s1, s2, s12 = _blocks(*dims)
    shape, size, h12 = (s1.stop, s2.stop - s1.stop), s12.stop, hamiltonian.h12.ravel()
    start = ends[4]  # the interaction terms' entries, term by term
    grid = (len(_FAMILIES), size, h12.size)  # a tuple's (term, row, element)
    element = coefficient[start:] - s12.start
    values = value[start:] * h12[element]
    kept = np.flatnonzero(values)
    rows, cols = np.divmod(position[start:][kept] - size * size, size)  # L_int follows L_loc
    term = np.searchsorted(ends[5:], start + kept, side="right")
    tuples = np.ravel_multi_index((term, rows, element[kept]), grid)
    # the bincount's order (term, tuple, column); argsort, as np.unique costs ~0.6 MB of RSS
    order = np.argsort(tuples * size + cols, kind="stable")
    rows, cols, values, tuples = rows[order], cols[order], values[kept[order]], tuples[order]
    new = np.diff(tuples, prepend=-1) != 0  # each tuple's first entry
    slot = np.cumsum(new) - 1
    term, row, element = np.unravel_index(tuples[new], grid)  # per tuple
    bounds = np.searchsorted(term, range(len(_FAMILIES) + 1))  # where each term's tuples start
    calls, w = [], np.empty(len(term))
    for t, lo, hi in zip(_terms(*dims)[4:], bounds, bounds[1:]):
        if hi > lo:  # a family with no kept entry is never called
            held = dict(zip("ab", np.unravel_index(element[lo:hi], shape)))  # h12[a, b]
            out = shape if len(t.out) == 2 else (t.out_block.stop - t.out_block.start,)
            args = (*np.unravel_index(row[lo:hi] - t.out_block.start, out),
                    *(held[c] for c in t.open))
            for a in args:
                a.setflags(write=False)
            calls.append((t.family, getattr(xi, t.family), slice(lo, hi), args))

    def indexed(x):
        r = x[s1], x[s2], x[s12].reshape(shape)
        for family, weight, at, args in calls:
            value = weight(*args, *r)
            if type(value) is not float and np.shape(value) not in ((), args[0].shape):
                raise NonlinearityEvaluationError(f"weight {family} returned shape "
                                                  f"{np.shape(value)}, not () or {args[0].shape}")
            w[at] = value
        finite = np.isfinite(w)
        if not finite.all():
            _is_finite(w[finite.argmin()])  # raises for the first non-finite weight
        return loc @ x + np.bincount(rows, weights=w[slot] * values * x[cols], minlength=len(x))

    return indexed


def _flat_field(law: EvolutionLaw,
                hamiltonian: BlochHamiltonian) -> tuple[Callable, np.ndarray | None]:
    """The law's joint field ``x -> dx/dt`` on packed coordinates and, when
    that field is one generator G (``x -> G x``), G; else ``None``.  For a ξ
    law the field is ``L_loc x + w(x) L_int x``, from one scatter of the
    Hamiltonian, and a finite constant weight c (1 for ``linear``) is
    compiled into G = ``L_loc + c L_int``.  Indexed weights read the same
    scatter map's interaction entries (:func:`_indexed_field`)."""
    dims = hamiltonian.dims
    if law.xi is None:
        if law.joint_field_fn is None:
            raise ValueError(f"law {law.name!r} provides no joint field")

        def custom(x):
            parts = law.joint_field_fn(hamiltonian, *_split(x, dims))
            return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])

        return custom, None
    stacked = _generators(hamiltonian)
    loc, lint = stacked
    weight = law.xi.uniform
    # One generator for no interaction, where weights must not even be evaluated
    # (L_int is then all +0.0, so the sum is L_loc entry for entry), and for a finite
    # constant; 1.0 * L_int is L_int entry for entry.  A non-finite constant takes
    # the uniform route, which refuses it at its first evaluation.
    c = 1.0 if hamiltonian.is_interaction_free else (
        weight.value if isinstance(weight, _Constant) else math.nan)
    if math.isfinite(c):
        gen = loc + c * lint
        return (lambda x: gen @ x), gen
    if weight is None:
        return _indexed_field(hamiltonian, law.xi, loc), None
    s1, s2, s12 = _blocks(*dims)
    shape = (s1.stop, s2.stop - s1.stop)
    both = stacked.reshape(2 * len(loc), len(loc))  # one product gives L_loc x and L_int x
    size = len(loc)

    def uniform(x):
        y = both @ x
        w = weight(x[s1], x[s2], x[s12].reshape(shape))
        if type(w) is not float or not math.isfinite(w):
            w = _is_finite(w)
        weighted = y[size:]  # L_int x, weighted in place, plus L_loc x
        weighted *= w
        weighted += y[:size]
        return weighted

    return uniform, None


def vector_field(law: EvolutionLaw, hamiltonian: BlochHamiltonian, state: JointBlochState):
    """Time derivative (dr1, dr2, dr12) of the given law at the given state."""
    if state.dims != hamiltonian.dims:
        raise DimensionMismatchError(
            f"state dims {state.dims} != Hamiltonian dims {hamiltonian.dims}"
        )
    field, _ = _flat_field(law, hamiltonian)
    return _split(field(pack_coords(state)), state.dims)


# ---------------------------------------------------------------------------
# Joint evolution


def _ascending(times) -> list[float]:
    times = [float(t) for t in times]
    if not all(0 <= t < math.inf for t in times) or times != sorted(times):
        raise ValueError("evolution times must be finite, nonnegative and ascending")
    return times


class EvolutionResult(NamedTuple):
    """Final state plus a physicality report (never silently clamped)."""

    state: JointBlochState
    physical: bool
    min_eigenvalue: float


def _result_for(state: JointBlochState) -> EvolutionResult:
    n1, n2 = state.dims
    rho = joint_from_bloch(state, cached_basis(n1), cached_basis(n2), check=False)
    low = min_eigenvalue(rho)
    return EvolutionResult(state, low >= PSD_TOLERANCE, low)


def evolve(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    state0: JointBlochState,
    t: float,
    options: IntegratorOptions | None = None,
) -> EvolutionResult:
    """Integrate the joint flow for time t >= 0 and report physicality."""
    return evolve_path(law, hamiltonian, state0, [t], options)[0][1]


def evolve_path(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    state0: JointBlochState,
    times,
    options: IntegratorOptions | None = None,
) -> list[tuple[float, EvolutionResult]]:
    """Sample the trajectory at ascending times (one continuous integration;
    a field that is one generator takes ``integrate.solve_linear``)."""
    times = _ascending(times)
    if state0.dims != hamiltonian.dims:
        raise DimensionMismatchError(
            f"state dims {state0.dims} != Hamiltonian dims {hamiltonian.dims}"
        )
    options = options or DEFAULT_OPTIONS
    field, generator = _flat_field(law, hamiltonian)
    out = []
    current = pack_coords(state0)
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            current = (integrate.solve(field, current, t - t_prev, options) if generator is None
                       else integrate.solve_linear(generator, current, t - t_prev, options))
            if not np.isfinite(current).all():
                raise _not_finite(options, t)
            t_prev = t
        out.append((t, _result_for(unpack_coords(current, hamiltonian.dims))))
    return out


# ---------------------------------------------------------------------------
# Reduced (isolated-subsystem) flows


def reduced_generator(h_local, dim: int) -> np.ndarray:
    """Rotation generator of an isolated subsystem: dr/dt = L r with
    ``L_ki = 2 sum_a f_aik h_a``; a stack of local Hamiltonians ``(..., d)``
    gives the stack of their generators ``(..., d, d)`` from one contraction."""
    f = cached_constants(dim).f
    h = np.asarray(h_local, dtype=float)
    if h.shape[-1:] != (dim**2 - 1,):
        raise DimensionMismatchError(f"local Hamiltonian must have length {dim**2 - 1}")
    with np.errstate(over="ignore", invalid="ignore"):
        generator = 2.0 * np.einsum("aik,...a->...ki", f, h)
    _require_finite(generator, f"local Hamiltonian of a {dim}-level subsystem", h)
    return generator


# Fixed-step branch propagation: smooth in the initial condition, and one
# cached matrix per time for a linear flow.
DEFAULT_BRANCH_OPTIONS = IntegratorOptions(method="rk4", step=0.01)


def _not_finite(options: IntegratorOptions | None, t: float) -> IntegrationFailureError:
    """The failure of a result that is not finite at ``t`` (``options``: the branch default's)."""
    method = (options or DEFAULT_BRANCH_OPTIONS).method
    return IntegrationFailureError(f"{method} result at t={t:.6g} is not finite")


class ReducedFlow:
    """Propagation of one state ``(d,)`` or a batch of independent states
    ``(B, d)`` under an isolated-subsystem field acting on the last axis.

    A flow with a ``generator`` L (the field ``r -> L r``) has no ``field``:
    it applies one cached propagator per time and method to the whole batch
    (``_propagator``): exactly linear in the initial condition, and the same
    map for every row, which the audit's cancellations rely on.  It builds
    them from the last time down, and under rk4 every other flow checks the
    last time's step count first, so a sampling that cannot reach its last
    time fails there, as a sampling of that time alone does.  Every other
    flow walks the ascending times once: under rk4 it carries the batch on
    from the last time when the step grids nest (``integrate.rk4_continues``)
    and starts again from ``r0`` otherwise, so each sample is the solve from
    0 bit for bit; under rkf45, whose step is shared by a whole state, it
    makes one solve per row from 0, and a row it gives up on reads NaN.
    Callers check finiteness; complex states stay complex.  A custom field
    is first probed with two rows: it must not mix a batch's rows, and its
    complex-step derivative must match a central difference where that is
    finite (complex-analytic).
    """

    def __init__(self, field: Callable | None, dim: int, generator: np.ndarray | None = None,
                 name: str = "custom"):
        self.field = field
        self.generator = generator
        if generator is not None:
            return
        d = dim**2 - 1
        probe = np.stack([np.linspace(-0.4, 0.3, d), np.linspace(0.2, -0.1, d)])
        batch = field(probe)
        rows = np.stack([field(row) for row in probe])
        if batch.shape != rows.shape or not np.allclose(
            batch, rows, rtol=1e-12, atol=1e-14, equal_nan=True
        ):
            raise ValueError(
                f"reduced field of law {name!r} must act on the last axis: "
                f"a (2, {d}) batch does not give the results of its two rows"
            )
        v, h = np.linspace(0.5, 1.0, d), 1e-6
        with warnings.catch_warnings():  # a float cast warns; the comparison refuses it
            warnings.simplefilter("ignore", RuntimeWarning)
            exact = field(probe + 1e-30j * v).imag / 1e-30
        central = (field(probe + h * v) - field(probe - h * v)) / (2.0 * h)
        checked = np.isfinite(central)
        if not np.allclose(exact[checked], central[checked], rtol=1e-6, atol=1e-8):
            raise ValueError(
                f"reduced field of law {name!r} must be complex-analytic: its complex-step "
                f"derivative on the probe rows differs from a central difference"
            )

    def sample(self, r0, times, options: IntegratorOptions | None = None) -> np.ndarray:
        """The states at each ascending time, shape ``(len(times), *r0.shape)``."""
        options = options or DEFAULT_OPTIONS
        r0 = np.asarray(r0, dtype=complex if np.iscomplexobj(r0) else float)
        times = _ascending(times)
        if self.generator is not None:
            # Rows times M^T: M @ r0 would mix a batch's rows.  A lone row goes twice,
            # as BLAS would give it a matrix-vector product that rounds otherwise.
            rows = r0.reshape(-1, r0.shape[-1])
            rows = np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows
            out = np.empty((len(times), *rows.shape), dtype=r0.dtype)
            for row, t in zip(out[::-1], times[::-1]):  # the last time fails first
                if t > 0:
                    np.matmul(rows, self._propagator(t, options).T, out=row)
                else:
                    row[...] = rows  # t = 0 keeps r0
            return out[:, : r0.size // r0.shape[-1]].reshape(len(times), *r0.shape)
        if options.method == "rk4" and times:
            integrate.rk4_grid(times[-1], options)  # the last time fails first
        # Stacked at the end: an output allocated before integrating would
        # sit beside the rk4 stage temporaries and raise the peak memory.
        samples, y, done = [], r0, 0.0
        for t in times:
            if options.method == "rkf45":
                y = np.full_like(r0, np.nan)  # a row the stepper gives up on stays NaN
                for end, row in zip(y.reshape(-1, r0.shape[-1]), r0.reshape(-1, r0.shape[-1])):
                    with contextlib.suppress(IntegrationFailureError):
                        end[...] = integrate.solve(self.field, row, t, options)
            elif t > done:
                start = done if integrate.rk4_continues(done, t, options) else 0.0
                y = integrate.solve(self.field, y if start else r0, t - start, options)
                done = t
            samples.append(y)
        return np.array(samples, dtype=r0.dtype).reshape(len(times), *r0.shape)

    @lru_cache(maxsize=256)
    def _propagator(self, t: float, options: IntegratorOptions) -> np.ndarray:
        """The read-only propagator to time t of a flow with a generator,
        built once per (t, options): under rk4 the n-th power of the exact
        rk4 step map, under rkf45 one linear solve of the identity.
        Raises ``IntegrationFailureError`` when it is not finite."""
        d = self.generator.shape[0]
        if options.method == "rkf45":
            power = integrate.solve_linear(self.generator, np.eye(d), t, options)
        else:
            n, h = integrate.rk4_grid(t, options)
            with np.errstate(over="ignore", invalid="ignore"):
                hl = h * self.generator
                one_step = np.eye(d)
                term = np.eye(d)
                for factor in (1.0, 2.0, 3.0, 4.0):  # degree-4 Taylor = exact rk4 step map
                    term = term @ hl / factor
                    one_step = one_step + term
                power = np.linalg.matrix_power(one_step, n)
        if not np.isfinite(power).all():
            raise IntegrationFailureError(f"{options.method} propagator at t={t:.6g} is not finite")
        power.setflags(write=False)
        return power


def reduced_flow(law: EvolutionLaw, h_local, dim: int) -> ReducedFlow:
    """The shared isolated-subsystem flow a law induces, one per law and
    local Hamiltonian ``h_local`` (``None``: zero) of a ``dim``-level
    subsystem, so its propagators or its probe are built once; ξ laws
    (``linear`` among them), whose weights never enter it, share theirs."""
    h = np.zeros(dim**2 - 1) if h_local is None else np.asarray(h_local, dtype=float)
    if h.shape != (dim**2 - 1,):
        raise DimensionMismatchError(f"local Hamiltonian must have length {dim**2 - 1}")
    key = None if law.xi is not None else law
    return _shared_flow(key, h.tobytes(), dim)


@lru_cache(maxsize=64)
def _shared_flow(law: EvolutionLaw | None, h_bytes: bytes, dim: int) -> ReducedFlow:
    h = np.frombuffer(h_bytes)
    if law is None:
        generator = reduced_generator(h, dim)
        generator.setflags(write=False)
        return ReducedFlow(None, dim, generator)
    if law.reduced_field_fn is None:
        raise ValueError(f"law {law.name!r} provides no reduced flow")
    return ReducedFlow(lambda r: np.asarray(law.reduced_field_fn(h, r), dtype=r.dtype), dim,
                       name=law.name)


def reduced_propagator_fit(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    t: float = 1.0,
    probes: int = 20,
    seed: int = 1234,
    options: IntegratorOptions | None = None,
) -> tuple[np.ndarray, float]:
    """Fit a state-independent affine map ``A r0 + c`` to party 1's reduced
    flow, which reads the Hamiltonian's ``h1`` block as every branch does,
    and measure how badly fresh probes break it; returns ``A`` and that.

    ``c`` is the evolved origin, and ``A``'s columns come from evolving
    scaled coordinate axes, less ``c`` (scale 0.5 keeps them physical for
    every dimension); the residual is the worst max-norm mismatch
    ``|r(t; r0) - c - A r0|`` over random probe states (NaN when any
    mismatch is).  Origin, axes and probes (:func:`_fit_starts`) propagate as
    one batch, read off by :func:`_fit_read_off`.  A small residual
    certifies that isolated subsystems evolve by an affine map, as every
    local CPTP map (linear in rho) does; such a map cannot signal.
    ``probes`` and ``seed`` must be integers >= 0 (not bools): ``ValueError``."""
    _require_number(Integral, probes=probes, seed=seed)
    if min(probes, seed) < 0:
        raise ValueError(f"{'probes' if probes < 0 else 'seed'} must be >= 0")
    n = hamiltonian.dims[0]
    options = options or DEFAULT_BRANCH_OPTIONS
    flow = reduced_flow(law, hamiltonian.h1, n)
    starts = _fit_starts(n, probes, seed)
    return _fit_read_off(starts, flow.sample(starts, [t], options)[0], t, options)


_FIT_SCALE = 0.5  # of the fit's axes: keeps them physical for every dimension


def _fit_starts(n: int, probes: int, seed: int) -> np.ndarray:
    """The ``1 + d + probes`` real start rows of the fit of an ``n``-level
    subsystem (``d = n**2 - 1``): the origin, the axes scaled by 0.5, then
    the seeded probe states."""
    d = n**2 - 1
    # One draw holds every probe's (2, n, n) normals, in the order that
    # random_density would draw them; coordinates as in to_bloch.
    rho = hs_densities(np.random.default_rng(seed).standard_normal((probes, 2, n, n)))
    probe_states = 0.5 * n * np.real(np.einsum("pab,iba->pi", rho, cached_basis(n).matrices))
    return np.vstack([np.zeros(d), _FIT_SCALE * np.eye(d), probe_states])


def _fit_read_off(starts: np.ndarray, ends: np.ndarray, t: float,
                 options: IntegratorOptions) -> tuple[np.ndarray, float]:
    """``A`` and the residual of the fit from its :func:`_fit_starts` rows
    and their states at ``t``.  ``ends`` may be complex with a zero
    imaginary part (rows that rode in a batch of complex steps); only its
    real part is read.  Raises ``IntegrationFailureError`` when an end is
    not finite."""
    if not np.isfinite(ends).all():
        raise _not_finite(options, t)
    d = starts.shape[-1]
    ends = ends.real[1:] - ends.real[0]  # less the evolved origin c
    a = np.ascontiguousarray(ends[:d].T / _FIT_SCALE)
    # one matrix-vector product per probe (a matrix product may sum in another
    # order); np.max keeps a NaN mismatch, which the builtin max would drop
    mismatch = np.max(np.abs(ends[d:] - (a @ starts[d + 1 :, :, None])[..., 0]), axis=-1)
    return a, float(np.max(mismatch, initial=0.0))

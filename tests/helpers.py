"""Matrix-level oracles used to cross-check the coordinate formulas (the
observable constructors among them), the per-tuple indexed ξ field used to
cross-check the field's weight arrays, per-stage RKF45 and RK4 steppers used
to cross-check the integrator, the reference audit used to cross-check the
audit's channels, the audit's ensemble and fit probes drawn and converted
one object at a time, the oracles of their one-block draws, and the audit
report read off a table of its outcomes, the oracle of the audit's one walk;
also the laws that the audit passes though they signal or leave the state
space, and the ancilla experiment, the controls of ``test_blind_spots.py``.

The oracles and the steppers work on raw numpy arrays and never call the
coordinate or integrator code paths they are used to verify.  The
reference audit (:func:`reference_audit`) works on density matrices alone:
it takes complex steps in matrix space, collapses by projector matrices
and evolves party 1 with the steppers here, reading the law only through
its public ``xi`` and ``reduced_field_fn`` and the Hamiltonian through
``h1``.  No private ``blochsig`` name is imported here.
"""

import math
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from blochsig.bloch import joint_from_bloch, joint_to_bloch, partial_trace, to_bloch
from blochsig.dynamics import (
    DEFAULT_BRANCH_OPTIONS,
    XiFunctions,
    custom_law,
    evolve,
    random_hamiltonian,
    reduced_flow,
)
from blochsig.errors import IntegrationFailureError, PerturbationInfeasibleError
from blochsig.measurement import (
    EPS_PROB,
    ProjectiveObservable,
    observable_from_matrices,
    rotate_observable,
)
from blochsig.nosignal_audit import (
    ObservableFamily,
    d_correlations,
    d_remote_observable,
    d_remote_state,
    polesink_law,
)
from blochsig.sampling import (
    interior_joint_state,
    maximally_entangled_density,
    random_pure_density,
    singlet_density,
)
from blochsig.su_basis import cached_basis, cached_constants


def unitary_evolve(h_matrix, rho0, t):
    """rho(t) under the Hamiltonian matrix, via eigendecomposition."""
    w, v = np.linalg.eigh(h_matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u @ rho0 @ u.conj().T


def trace_out(rho, dims, keep):
    n1, n2 = dims
    r4 = np.asarray(rho).reshape(n1, n2, n1, n2)
    return np.einsum("abcb->ac", r4) if keep == 1 else np.einsum("abad->bd", r4)


def collapse_reduced(rho, dims, p2):
    """Probability of projector p2 on party 2 and the post-measurement
    reduced matrix of party 1."""
    n1, _ = dims
    big = np.kron(np.eye(n1), p2)
    collapsed = big @ rho @ big
    prob = float(np.real(np.trace(collapsed)))
    return prob, trace_out(collapsed, dims, keep=1) / prob


def reference_observable_from_basis(vectors, basis):
    """Rank-1 observable built from the matrices ``|v><v|`` of the rows and
    checked as matrices."""
    return observable_from_matrices([np.outer(v, v.conj()) for v in np.asarray(vectors)], basis)


def reference_rotate_observable(obs, direction, theta):
    """Every outcome rebuilt as the matrix ``U P U^dagger``, with
    ``U = exp(-i theta G)``, and checked as matrices."""
    w, v = np.linalg.eigh(np.asarray(direction, dtype=complex))
    u = (v * np.exp(-1j * theta * w)) @ v.conj().T
    basis = cached_basis(obs.dim)
    return observable_from_matrices([u @ p @ u.conj().T for p in obs.matrices(basis)], basis)


def amplitude_damping_law(gamma):
    """Decay of a qubit toward |0> at rate gamma as a custom law, with the
    affine reduced field ``dr/dt = gamma (e_z - diag(1/2, 1/2, 1) r)``.  A
    local CPTP map cannot signal, yet it moves the maximally mixed state:
    the audit's negative control for an affine, not linear, flow."""
    pole, rate = gamma * np.array([0.0, 0.0, 1.0]), gamma * np.array([0.5, 0.5, 1.0])
    return custom_law(
        f"amplitude-damping({gamma:g})",
        reduced_field=lambda h_local, r: pole - rate * np.asarray(r),
    )


def expanding_law():
    """``dr/dt = 0.2 r`` as a custom law that turns NaN past norm 0.97:
    branches collapsed to norm 0.8 stay finite at t = 0.5 and fail before
    t = 1, the failure-injection law of the branch tests."""
    def field(h_local, r):
        r = np.asarray(r)
        return np.where(np.linalg.norm(r.real, axis=-1, keepdims=True) > 0.97, np.nan, 0.2 * r)

    return custom_law("expanding", reduced_field=field)


def gksl_coordinate_field(jumps, gamma, r):
    """``dr/dt`` of ``gamma sum_j (L_j rho L_j^dagger - 1/2 {L_j^dagger L_j, rho})``
    on the matrix ``rho = (I + r . s) / N``, read back as
    ``dr_i = (N/2) Tr(drho s_i)``."""
    s = cached_basis(len(jumps[0])).matrices
    n = s.shape[1]
    rho = (np.eye(n) + np.einsum("i,iab->ab", r, s)) / n
    drho = sum(
        l @ rho @ l.conj().T - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l) for l in jumps
    )
    return 0.5 * n * np.real(np.einsum("ab,iba->i", gamma * drho, s))


def tilted_xi():
    """An indexed ξ law whose per-term weights split the commutator into
    pieces that are not commutators, so it need not keep the spectrum of a
    state: ``xi1 = 1 + 0.8 tanh(sum r12)``, ``xi12_bilinear = 1 - 0.8
    tanh(sum r12)``, ``xi12_local2 = 1 + 0.5 |r1|^2`` and the other two 1.
    Each family returns one scalar shared by all its index tuples."""
    return XiFunctions(
        xi1=lambda i, a, b, r1, r2, r12: 1.0 + 0.8 * np.tanh(np.sum(r12)),
        xi2=lambda i, a, b, r1, r2, r12: 1.0,
        xi12_bilinear=lambda p, q, a, b, r1, r2, r12: 1.0 - 0.8 * np.tanh(np.sum(r12)),
        xi12_local1=lambda p, q, a, r1, r2, r12: 1.0,
        xi12_local2=lambda p, q, b, r1, r2, r12: 1.0 + 0.5 * float(r1 @ r1),
        name="tilted",
    )


def corr_drift_law():
    """A joint law that signals through the correlations (ROADMAP item 3):
    ``dr1[0] = 0.3 tanh(sum_j r12[0, j] r2[j])`` and nothing else moves,
    beside a zero reduced field.  After a remote collapse ``r12 = r1 r2^T``,
    so each branch drifts by ``tanh`` of its own ``r1[0]``, and party 1's
    average depends on which decomposition party 2's measurement prepared."""
    def joint(hamiltonian, r1, r2, r12):
        dr1 = np.zeros_like(r1)
        dr1[..., 0] = 0.3 * np.tanh(np.sum(r12[..., 0, :] * r2, axis=-1))
        return dr1, np.zeros_like(r2), np.zeros_like(r12)

    return custom_law("corr-drift", reduced_field=lambda h_local, r: np.zeros_like(r),
                      joint_field=joint)


def corr_drift_mirror_law():
    """Corr-drift with the parties swapped (ROADMAP item 21): ``dr2[0] =
    0.3 tanh(sum_i r12[i, 0] r1[i])`` and nothing else moves, beside a zero
    reduced field.  Party 1's measurement choice moves party 2's average,
    which the audit never reads."""
    def joint(hamiltonian, r1, r2, r12):
        dr2 = np.zeros_like(r2)
        dr2[..., 0] = 0.3 * np.tanh(np.sum(r12[..., :, 0] * r1, axis=-1))
        return np.zeros_like(r1), dr2, np.zeros_like(r12)

    return custom_law("corr-drift-mirror", reduced_field=lambda h_local, r: np.zeros_like(r),
                      joint_field=joint)


def connected_drift_law():
    """A joint law driven by the connected correlations alone (ROADMAP item
    16): ``dr1[0] = 0.3 tanh(sum_ij (r12 - r1 r2^T)_ij)`` with ``r2`` and
    ``r12`` frozen, beside a zero reduced field.  Every branch of a complete
    rank-1 measurement is a product state, whose connected part is 0, so
    only a choice not to measure lets it drift."""
    def joint(hamiltonian, r1, r2, r12):
        dr1 = np.zeros_like(r1)
        connected = r12 - r1[..., :, None] * r2[..., None, :]
        dr1[..., 0] = 0.3 * np.tanh(np.sum(connected, axis=(-2, -1)))
        return dr1, np.zeros_like(r2), np.zeros_like(r12)

    return custom_law("connected-drift", reduced_field=lambda h_local, r: np.zeros_like(r),
                      joint_field=joint)


def qutrit_sink_law(epsilon=0.1):
    """Polesink's drift on every qutrit and none on a qubit, in both fields
    (ROADMAP item 21): at dims (3, 2) party 1 drifts, at (2, 3) only party 2
    does."""
    sink = polesink_law(epsilon).reduced_field_fn

    def reduced(h_local, r):
        r = np.asarray(r)
        return sink(h_local, r) if r.shape[-1] == 8 else np.zeros_like(r)

    def joint(hamiltonian, r1, r2, r12):
        return reduced(None, r1), reduced(None, r2), np.zeros_like(r12)

    return custom_law(f"qutrit-sink(eps={epsilon:g})", reduced_field=reduced, joint_field=joint)


def hidden_law(theta):
    """Polesink's drift switched on only near the pure states (ROADMAP item
    10): ``where(Re s > theta, 0.5 (s - theta)^2, 0) (e - r_last r)`` with
    ``s = sum r_k^2`` (complex-analytic) and ``e`` the last axis, applied to
    r1 and r2 with r12 frozen."""
    def reduced(h_local, r):
        r = np.asarray(r)
        s = np.sum(r * r, axis=-1, keepdims=True)
        e = np.zeros(r.shape[-1])
        e[-1] = 1.0
        return np.where(s.real > theta, 0.5 * (s - theta) ** 2, 0.0) * (e - r[..., -1:] * r)

    def joint(hamiltonian, r1, r2, r12):
        return reduced(None, r1), reduced(None, r2), np.zeros_like(r12)

    return custom_law(f"hidden({theta:g})", reduced_field=reduced, joint_field=joint)


def ancilla_trace_distance(law, seed, t=1.0, interaction=True):
    """The trace distance between lab A's two mixtures at ``t`` (ROADMAP
    item 24).  Parties 1 and 2 are a qubit pair in lab A and share a random
    pure state (``default_rng(seed)``, the pair first) with an ancilla qubit
    in lab B.  Lab B measures the ancilla in Z or in X at t = 0; each
    normalized branch of the pair evolves under the law and
    ``random_hamiltonian(default_rng(5), (2, 2), scale=1.0)`` (its
    ``interaction_free()`` copy unless ``interaction``), and lab A holds the
    branch-weighted mixture of the evolved pairs."""
    rho = random_pure_density(np.random.default_rng(seed), 8)
    h = random_hamiltonian(np.random.default_rng(5), (2, 2), scale=1.0)
    h = h if interaction else h.interaction_free()
    qubit = cached_basis(2)
    mixtures = []
    for basis in np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0):
        mixture = 0.0
        for v in basis.T:
            big = np.kron(np.eye(4), np.outer(v, v.conj()))
            pair = partial_trace(big @ rho @ big, (4, 2), 1)
            p = np.trace(pair).real
            state = evolve(law, h, joint_to_bloch(pair / p, qubit, qubit), t).state
            mixture = mixture + p * joint_from_bloch(state, qubit, qubit, check=False)
        mixtures.append(mixture)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(mixtures[0] - mixtures[1]))))


def reference_indexed_field(xi, hamiltonian, state):
    """``(dr1, dr2, dr12)`` of the indexed ξ weights ``xi``, term by term as
    the ``blochsig.dynamics`` module docstring writes them: each interaction
    term is one dense einsum with its interaction indices left open, and
    each index tuple whose contribution is nonzero is weighted by one call of
    its family with plain integer indices, read as one float."""
    n1, n2 = hamiltonian.dims
    f1, g1 = cached_constants(n1).f, cached_constants(n1).g
    f2, g2 = cached_constants(n2).f, cached_constants(n2).g
    h1, h2, h12 = hamiltonian.h1, hamiltonian.h2, hamiltonian.h12
    r1, r2, r12 = state.r1, state.r2, state.r12

    def weighted(family, spread, out_axes):
        w = np.zeros_like(spread)
        for index in zip(*np.nonzero(spread)):
            w[index] = float(getattr(xi, family)(*map(int, index), r1, r2, r12))
        return (w * spread).reshape(*spread.shape[:out_axes], -1).sum(axis=-1)

    bilinear = (np.einsum("aip,bjq,ab,ij->pqab", g1, f2, h12, r12)
                + np.einsum("aip,bjq,ab,ij->pqab", f1, g2, h12, r12))
    dr1 = (2.0 * np.einsum("aik,a,i->k", f1, h1, r1)
           + weighted("xi1", 4.0 / n2 * np.einsum("aik,ab,ib->kab", f1, h12, r12), 1))
    dr2 = (2.0 * np.einsum("bjl,b,j->l", f2, h2, r2)
           + weighted("xi2", 4.0 / n1 * np.einsum("bjl,ab,aj->lab", f2, h12, r12), 1))
    dr12 = (2.0 * np.einsum("aip,a,iq->pq", f1, h1, r12)
            + 2.0 * np.einsum("bjq,b,pj->pq", f2, h2, r12)
            + weighted("xi12_bilinear", 2.0 * bilinear, 2)
            + weighted("xi12_local1", 2.0 * np.einsum("aip,i,aq->pqa", f1, r1, h12), 2)
            + weighted("xi12_local2", 2.0 * np.einsum("bjq,j,pb->pqb", f2, r2, h12), 2))
    return dr1, dr2, dr12


def coord_distance(state, ref):
    """Max-norm distance between two joint coordinate triples."""
    return max(
        float(np.max(np.abs(state.r1 - ref.r1))),
        float(np.max(np.abs(state.r2 - ref.r2))),
        float(np.max(np.abs(state.r12 - ref.r12))),
    )


def random_traceless_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    return h - np.trace(h) / n * np.eye(n)


# Fehlberg tableau, written out again so the oracle shares nothing with
# blochsig.integrate.
_FEHLBERG_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8, 3680 / 513, -845 / 4104),
    (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_FEHLBERG_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_FEHLBERG_E = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def reference_rkf45(field, y0, t, options):
    """Adaptive Fehlberg 4(5) from 0 to t > 0 of each row of ``y0`` (one row
    ``(d,)``, which the field gets as it is, or rows ``(B, d)``, which it
    gets stacked) with a step of its own, one stage at a time, with the
    step control of ``blochsig.integrate``: a first step of
    ``max(step, 1e-6)`` raised to the floor ``1e-14 t``, error weights
    ``atol + rtol |y|`` on the real parts (so a complex row takes the steps
    of its real part), and a step that fails (a NaN norm) shrunk by 0.2.  A
    row whose step falls below the floor, or that needs more than
    ``max_steps`` steps, reads NaN."""
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float, ndmin=2)
    if np.ndim(y0) == 1:  # one row: the field gets it as it is
        row_field = field
        field = lambda rows: row_field(rows[0])[None]  # noqa: E731
    x, floor = np.zeros(len(y)), 1e-14 * t
    h = np.full(len(y), min(t, max(options.step, 1e-6, floor)))
    live = np.ones(len(y), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(options.max_steps):
            live &= x < t
            h[live] = np.minimum(h[live], t - x[live])
            y[live & (h < floor)] = np.nan
            live &= h >= floor
            if not live.any():
                break
            rows, step = y[live], h[live][:, None]
            k = []
            for a in _FEHLBERG_A:
                k.append(field(rows + step * sum(c * km for c, km in zip(a, k))))
            y5 = rows + step * sum(b * km for b, km in zip(_FEHLBERG_B5, k))
            err = step * sum(e * km for e, km in zip(_FEHLBERG_E, k))
            q = err.real / (options.atol + options.rtol * np.maximum(abs(rows.real), abs(y5.real)))
            norm = np.sqrt(np.mean(q**2, axis=-1))
            ok = norm <= 1.0
            accepted = np.flatnonzero(live)[ok]
            x[accepted] += h[accepted]
            y[accepted] = y5[ok]
            factor = np.where(norm == 0.0, 5.0, 0.9 * norm**-0.2)
            h[live] *= np.where(np.isnan(factor), 0.2, np.clip(factor, 0.2, 5.0))
        y[live & (x < t)] = np.nan
    return y.reshape(np.shape(y0))


def reference_rk4(field, y0, times, step):
    """Classical rk4 from 0 to each of the ascending ``times`` in ``n =
    ceil(t / step)`` equal steps (a ratio within 1e-12 of an integer counts
    as that integer), shape ``(len(times), *y0.shape)``.  Times whose steps
    are equal share one pass, which passes through each of them."""
    counts = [max(1, math.ceil(t / step - 1e-12)) for t in times]
    grids = [(t / n, n) for t, n in zip(times, counts)]
    ends = {}
    with np.errstate(all="ignore"):
        for h in dict.fromkeys(h for h, _ in grids):
            y, done = y0, 0
            for n in sorted(n for g, n in grids if g == h):
                for _ in range(n - done):
                    k1 = field(y)
                    k2 = field(y + 0.5 * h * k1)
                    k3 = field(y + 0.5 * h * k2)
                    k4 = field(y + h * k3)
                    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                ends[h, n], done = y, n
    return np.array([ends[grid] for grid in grids])


# The audit's channels on density matrices.

EPS = 1e-30  # the complex step
CHANNELS = ("d_remote_state", "d_correlations", "d_remote_observable")
# The status of an outcome that holds an error in place of its value.
STATUS = {PerturbationInfeasibleError: "infeasible", IntegrationFailureError: "integration-failure"}


def real_form(m):
    """The real form ``[[Re m, -Im m], [Im m, Re m]]`` of the matrices ``m``
    (last two axes).  Sums and products carry over, and the trace of a real
    form is twice the real part of the trace, so a complex step ``i eps``
    of a real form stays apart from the matrices' own imaginary unit."""
    re, im = np.real(m), np.imag(m)
    return np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)


def _re_trace(a, b):
    """``Re Tr(a b)`` of matrices in real form."""
    return 0.5 * (a * np.swapaxes(b, -1, -2)).sum(axis=(-2, -1))


def _projectors(obs):
    """The matrices ``u0 I + (n/2) u . s`` of an observable's outcomes."""
    n, s = obs.dim, cached_basis(obs.dim).matrices
    return np.array([u0 * np.eye(n) + 0.5 * n * np.einsum("i,iab->ab", u, s)
                     for u0, u in zip(obs.u0, obs.u)])


def _party_one_trace(m, n1, n2):
    """``Tr_2`` of joint matrices in real form, in real form."""
    blocks = m.reshape(*m.shape[:-2], 2, n1, n2, 2, n1, n2)
    return np.trace(blocks, axis1=-4, axis2=-1).reshape(*m.shape[:-2], 2 * n1, 2 * n1)


def _branch_flow(law, hamiltonian, options):
    """``evolve(states, times)``: party 1's states in real form ``(B, 2 n1, 2
    n1)`` at each time, ``(T, B, 2 n1, 2 n1)``, under the law's reduced flow.  ξ laws (``linear``
    among them) evolve matrices by ``-i [H1, rho]``, with ``H1 = h1 . s``, through one
    shared propagator: the matrix units evolve (under rkf45 as one state)
    and every state is their combination.  Other laws evolve each state's
    coordinates ``r = (n1/2) Tr(rho s)`` by the law's reduced field, each
    row alone."""
    n1 = hamiltonian.dims[0]
    s = real_form(cached_basis(n1).matrices)
    if law.xi is not None:
        k = real_form(-1j * np.einsum("a,aij->ij", hamiltonian.h1, cached_basis(n1).matrices))
        units = np.eye(4 * n1 * n1).reshape(-1, 2 * n1, 2 * n1)

        def field(m):
            return (k @ m - m @ k).reshape(m.shape)

        def evolve(states, times):
            if options.method == "rk4":
                ends = reference_rk4(field, units, times, options.step)
            else:
                flat = lambda y: field(y.reshape(units.shape)).reshape(1, -1)  # noqa: E731
                ends = [reference_rkf45(flat, units.reshape(1, -1), t, options).reshape(units.shape)
                        for t in times]
            return (states.reshape(len(states), -1) @ np.reshape(ends, (len(times), len(units), -1))
                    ).reshape(len(times), *states.shape)

        return evolve

    def evolve(states, times):
        r = 0.5 * n1 * _re_trace(states[:, None], s)
        field = lambda y: law.reduced_field_fn(hamiltonian.h1, y)  # noqa: E731
        if options.method == "rk4":
            r = reference_rk4(field, r, times, options.step)
        else:
            r = np.array([reference_rkf45(field, r, t, options) for t in times])
        return (np.eye(2 * n1) + np.einsum("tbi,iac->tbac", r, s)) / n1

    return evolve


@lru_cache(maxsize=None)
def _joint_directions(dims):
    """The real forms of ``d rho / d x_k`` for the packed coordinates ``x =
    (r1, r2, row-major r12)`` of ``rho = (I + r1 . (s x I) + r2 . (I x l) +
    r12_ij s_i x l_j) / (n1 n2)``, read-only."""
    n1, n2 = dims
    s, l = cached_basis(n1).matrices, cached_basis(n2).matrices
    one, two = np.eye(n1), np.eye(n2)
    dirs = real_form(np.array([*(np.kron(a, two) for a in s), *(np.kron(one, b) for b in l),
                               *(np.kron(a, b) for a in s for b in l)]) / (n1 * n2))
    dirs.setflags(write=False)
    return dirs


def _reference_cases(state, remote, direction, dims, fd_step):
    """The stepped cases of one member: ``(channel, label, rho, lifts)`` with
    the joint matrix ``rho`` and the lifted remote projectors ``I x P`` in
    real form.  A complex step moves ``rho`` by ``i eps d rho / d x_k`` for
    a packed coordinate ``x_k`` of party 2, or each ``P`` by ``i eps d P /
    d theta = i eps (-i [G, P])`` along the rotation ``exp(-i theta G)``;
    with ``fd_step`` the state coordinates move by ``+-fd_step`` instead (a
    ``+`` case then a ``-`` case), and no rotation is taken."""
    n1, n2 = dims
    one, dirs = np.eye(n1), _joint_directions(dims)
    x = np.concatenate([state.r1, state.r2, np.ravel(state.r12)])
    rho = real_form(np.eye(n1 * n2) / (n1 * n2)) + np.einsum("k,kab->ab", x, dirs)
    projectors = _projectors(remote)
    lifts = real_form(np.array([np.kron(one, p) for p in projectors]))
    d1, d2 = n1**2 - 1, n2**2 - 1
    coordinates = [("d_remote_state", str(k), d1 + k) for k in range(d2)] + [
        ("d_correlations", f"{i},{j}", d1 + d2 + i * d2 + j) for i in range(d1) for j in range(d2)]
    if fd_step is not None:
        return [(channel, label, rho + sign * fd_step * dirs[k], lifts)
                for channel, label, k in coordinates for sign in (1.0, -1.0)]
    cases = [(channel, label, rho + 1j * EPS * dirs[k], lifts) for channel, label, k in coordinates]
    g = np.asarray(direction)
    turns = real_form(np.array([np.kron(one, -1j * (g @ p - p @ g)) for p in projectors]))
    return cases + [("d_remote_observable", "theta", rho.astype(complex), lifts + 1j * EPS * turns)]


def reference_audit(law, hamiltonian, members, times, options=None, fd_step=None):
    """The audit's channel outcomes, from density matrices alone:
    ``{(member, time, channel, component): value or status}`` for the
    members ``(state, remote, local, direction)`` (as
    :func:`reference_ensemble` draws them) at each time, with the audit's
    component labels.

    Each case of :func:`_reference_cases` collapses on every remote outcome
    by the Lüders rule, ``Tr_2[(I x P) rho (I x P)]``; a branch of weight
    ``Re p <= EPS_PROB`` is dropped, and a complex step that moves a dropped
    branch (any imaginary part) makes its case ``"infeasible"`` at every
    time.  Every kept branch ``rho1 = sigma / p`` evolves under
    :func:`_branch_flow`, party 1 reads the Born rule ``Re Tr(rho1(t) Q)``
    of each local outcome, and the branches are summed with their weights.
    A case's value is ``max |Im p| / EPS`` over party 1's outcomes (with
    ``fd_step``: the central difference ``max |p+ - p-| / (2 fd_step)`` of
    the state channels, from real propagations), or
    ``"integration-failure"`` where a distribution is not finite."""
    n1, n2 = dims = hamiltonian.dims
    evolve = _branch_flow(law, hamiltonian, options or DEFAULT_BRANCH_OPTIONS)
    keys, infeasible, weights, states, owners, locals_ = [], set(), [], [], [], []
    for m, (state, remote, local, direction) in enumerate(members):
        cases = _reference_cases(state, remote, direction, dims, fd_step)
        rho = np.array([case[2] for case in cases])
        lifts = np.array([case[3] for case in cases])
        sigma = _party_one_trace(lifts @ rho[:, None] @ lifts, n1, n2)
        p = 0.5 * np.trace(sigma, axis1=-2, axis2=-1)
        keep = ~(p.real <= EPS_PROB)  # a NaN weight stays in
        for c, (channel, label, *_) in enumerate(cases):
            keys.append((m, channel, label))
            if np.any(sigma[c][~keep[c]].imag != 0):
                infeasible.add(len(keys) - 1)
        weights.append(p[keep])
        states.append(sigma[keep] / p[keep][:, None, None])
        owners.append(len(keys) - len(cases) + np.nonzero(keep)[0])
        q = np.zeros((n1, 2 * n1, 2 * n1))  # zero outcomes pad an observable with fewer
        q[: len(local)] = real_form(_projectors(local))
        locals_.append(np.repeat(q[None], np.count_nonzero(keep), 0))
    weights, states, owners, locals_ = map(np.concatenate, (weights, states, owners, locals_))
    outcomes = {}
    for t, evolved in zip(times, evolve(states, times)):
        born = weights[:, None] * _re_trace(evolved[:, None], locals_)
        dist = np.zeros((len(keys), born.shape[-1]), dtype=born.dtype)
        np.add.at(dist, owners, born)
        if fd_step is None:
            values = np.max(np.abs(dist.imag), axis=-1) / EPS
        else:
            values = np.repeat(np.max(np.abs(dist[0::2] - dist[1::2]), axis=-1) / (2 * fd_step), 2)
        finite = np.isfinite(dist).all(axis=-1)
        for c, (m, channel, label) in enumerate(keys):
            outcomes[m, t, channel, label] = (
                "infeasible" if c in infeasible else
                float(values[c]) if finite[c] and (fd_step is None or finite[c ^ 1]) else
                "integration-failure")
    return outcomes


def channel_outcomes(law, hamiltonian, members, times, options=None):
    """The library's ``d_remote_state``, ``d_correlations`` and
    ``d_remote_observable`` of every component of the ``members`` (as for
    :func:`reference_audit`), each in one call, in the form of
    :func:`reference_audit`; an error is its status."""
    n1, n2 = hamiltonian.dims
    states, remotes, locals_, directions = (list(column) for column in zip(*members))
    families = [ObservableFamily(remote, g) for remote, g in zip(remotes, directions)]
    pairs = [(i, j) for i in range(n1**2 - 1) for j in range(n2**2 - 1)]
    args = (law, hamiltonian, states, remotes, locals_, list(times))
    runs = {
        "d_remote_state": (d_remote_state(*args, range(n2**2 - 1), options),
                           [str(k) for k in range(n2**2 - 1)]),
        "d_correlations": (d_correlations(*args, pairs, options), [f"{i},{j}" for i, j in pairs]),
        "d_remote_observable": (d_remote_observable(law, hamiltonian, states, families, locals_,
                                                    list(times), options), ["theta"]),
    }
    return {(m, t, channel, label): STATUS.get(type(v), v)
            for channel, (values, labels) in runs.items()
            for m, per_member in enumerate(values)
            for label, per_time in zip(labels, per_member)
            for t, v in zip(times, per_time)}


def assert_outcomes_match(actual, expected, atol=1e-12):
    """Same keys, the same statuses exactly and values within ``atol``."""
    assert actual.keys() == expected.keys()
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, (key, got, want)
        else:
            assert abs(got - want) <= atol, (key, got, want)


# One object per draw, in the formulas the samplers apply to a stack.


def reference_ginibre(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def reference_density(rng, n):
    g = reference_ginibre(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def reference_haar_unitary(rng, n):
    q, r = np.linalg.qr(reference_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_direction(rng, n):
    a = reference_ginibre(rng, n)
    h = 0.5 * (a + a.conj().T)
    h -= np.trace(h) / n * np.eye(n)
    return h / np.linalg.norm(h)


def reference_basis_observable(vectors, basis):
    """The rank-1 observable of the rows of ``vectors``, its outcome rows
    read off one basis at a time."""
    n = basis.dim
    vecs = np.asarray(vectors, dtype=complex)
    u = np.real(np.einsum("ka,iab,kb->ki", vecs.conj(), basis.matrices, vecs)) / n
    return ProjectiveObservable(n, np.full(n, 1.0 / n), u)


def reference_ensemble(dims, config, rng):
    """The audit's members ``(state, remote observable, local observable,
    direction)``, the anchor first, each random member drawn and converted
    on its own: joint state, remote basis, local basis, direction."""
    n1, n2 = dims
    b1, b2 = cached_basis(n1), cached_basis(n2)
    if dims == (2, 2):
        rho = singlet_density()
    elif n1 == n2:
        rho = maximally_entangled_density(n1)
    else:
        rho = random_pure_density(rng, n1 * n2)
    direction = 0.5 * b2.matrices[1]
    remote = rotate_observable(reference_basis_observable(np.eye(n2), b2), direction, math.pi / 4)
    members = [(interior_joint_state(rho, dims, config.mix_weight), remote,
                reference_basis_observable(np.eye(n1), b1), direction)]
    for _ in range(1, config.ensemble_size):
        state = interior_joint_state(reference_density(rng, n1 * n2), dims, config.mix_weight)
        obs2 = reference_basis_observable(reference_haar_unitary(rng, n2).T, b2)
        obs1 = reference_basis_observable(reference_haar_unitary(rng, n1).T, b1)
        members.append((state, obs2, obs1, reference_direction(rng, n2)))
    return members


def reference_propagator_fit(law, hamiltonian, t, probes, seed, options=None):
    """``reduced_propagator_fit`` with each probe state drawn and converted
    to coordinates on its own."""
    n = hamiltonian.dims[0]
    flow = reduced_flow(law, hamiltonian)
    d = n**2 - 1
    rng = np.random.default_rng(seed)
    probe_states = [to_bloch(reference_density(rng, n), cached_basis(n)).r for _ in range(probes)]
    starts = np.vstack([np.zeros(d), 0.5 * np.eye(d), *probe_states])
    ends = flow.sample(starts, [t], options or DEFAULT_BRANCH_OPTIONS)[0]
    ends = ends[1:] - ends[0]
    a = np.ascontiguousarray(ends[:d].T / 0.5)
    mismatch = [float(np.max(np.abs(rt - a @ r0))) for r0, rt in zip(starts[d + 1 :], ends[d:])]
    return a, float(np.max(mismatch, initial=0.0))


# The audit report, read off one table of outcomes.


def _status(outcome) -> str:
    if isinstance(outcome, PerturbationInfeasibleError):
        return "infeasible"
    if isinstance(outcome, IntegrationFailureError):
        return "integration-failure"
    return "ok" if math.isfinite(outcome) else "non-finite"


def reference_report(runs, times, labels, linearity):
    """The audit's ``infeasible``, ``failures``, ``per_channel_worst``,
    ``worst_case``, ``residuals()`` and ``cases`` for the channel outcomes
    ``runs`` (per channel, its outcomes over every member: member,
    component, time on the sorted distinct ``times``, each
    a value or an error), the component ``labels`` of each
    channel and a finite ``linearity``.  Every outcome goes into one table
    of (member, time, channel, label, outcome, status) entries, in member,
    time (config order), channel, component order, and each field is a
    separate walk over it."""
    channels = ("d_remote_state", "d_correlations", "d_remote_observable")
    at = {t: i for i, t in enumerate(sorted(set(times)))}
    table = [
        (m, t, channel, label, per_time[at[t]], _status(per_time[at[t]]))
        for m, outcomes in enumerate(zip(*runs))
        for t in times
        for channel, names, per_member in zip(channels, labels, outcomes)
        for label, per_time in zip(names, per_member)
    ]
    infeasible = [
        {"member": m, "time": t, "channel": ch, "component": label, "reason": str(outcome)}
        for m, t, ch, label, outcome, status in table
        if status == "infeasible"
    ]
    failures = [
        {"member": m, "time": t, "channel": ch, "component": label,
         "reason": str(outcome) if status != "non-finite"
         else f"sensitivity is not finite ({outcome!r})",
         "status": status}
        for m, t, ch, label, outcome, status in table
        if status not in ("ok", "infeasible")
    ]
    # A channel's worst case is its first largest value; a row's is its last.
    maxima, worst = dict.fromkeys(channels, 0.0), {ch: {} for ch in channels}
    for m, t, ch, label, value, status in table:
        if status == "ok" and value > maxima[ch]:
            maxima[ch] = value
            worst[ch] = {"member": m, "time": t, "component": label, "value": value}
    rows = []
    for (m, t, ch), group in groupby(table, key=itemgetter(0, 1, 2)):
        group = list(group)
        best = max(reversed([e for e in group if e[5] == "ok"]), key=itemgetter(4), default=None)
        failed = [e[5] for e in group if e[5] != "ok"]
        last = failed[-1] if failed else "ok"
        rows.append({
            "member": m, "time": t, "channel": ch,
            "component": best[3] if best else "-",
            "value": best[4] if best else math.nan,
            "status": f"partial:{last}" if best and failed else last,
        })
    if linearity > max(maxima.values()):
        worst_case = {"channel": "linearity", "value": linearity}
    else:
        top = max(channels, key=lambda ch: maxima[ch])
        worst_case = {"channel": top, **worst[top]}
    return {"infeasible": infeasible, "failures": failures, "per_channel_worst": worst,
            "worst_case": worst_case, "residuals": {**maxima, "linearity": linearity},
            "cases": rows}

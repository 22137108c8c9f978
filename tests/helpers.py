"""Matrix-level oracles used to cross-check the coordinate formulas (the
observable constructors among them), a per-stage RKF45 stepper used to cross-check the integrator, and the
per-component finite-difference route used to cross-check the stacked
state-channel planner of the audit.

The oracles and the stepper work on raw numpy arrays and never call the
coordinate or integrator code paths they are used to verify; the
per-component route checks one component at a time through
``joint_from_bloch`` and builds ``JointBlochState`` branches, where the
planner checks every component with one stacked eigenvalue call and
shifts packed rows.
"""

import numpy as np

from blochsig.bloch import joint_from_bloch, pack_coords, unpack_coords
from blochsig.dynamics import custom_law
from blochsig.errors import PerturbationInfeasibleError, UnphysicalStateError
from blochsig.measurement import observable_from_matrices, packed_distributions
from blochsig.su_basis import cached_basis


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
    return observable_from_matrices([u @ p.matrix(basis) @ u.conj().T for p in obs.outcomes], basis)


def amplitude_damping_law(gamma):
    """Decay of a qubit toward |0> at rate gamma as a custom law, with the
    affine reduced field ``dr/dt = gamma (e_z - diag(1/2, 1/2, 1) r)``.  A
    local CPTP map cannot signal, yet it moves the maximally mixed state:
    the audit's negative control for an affine, not linear, flow."""
    pole, rate = gamma * np.array([0.0, 0.0, 1.0]), gamma * np.array([0.5, 0.5, 1.0])
    return custom_law(
        f"amplitude-damping({gamma:g})",
        reduced_field=lambda h_local, r: pole - rate * np.asarray(r, dtype=float),
    )


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


def reference_rkf45(field, y0, t, atol, rtol, step):
    """Adaptive Fehlberg 4(5) from 0 to t > 0, one stage at a time, with the
    step control of ``blochsig.integrate``; no step budget or failure
    guards, so only call it where the integrator succeeds."""
    y = np.array(y0, dtype=float)
    x = 0.0
    h = min(t, max(step, 1e-6))
    k = [None] * 6
    while x < t:
        h = min(h, t - x)
        k[0] = field(y)
        for s in range(1, 6):
            ys = y + h * sum(a * k[m] for m, a in enumerate(_FEHLBERG_A[s]))
            k[s] = field(ys)
        y5 = y + h * sum(b * k[m] for m, b in enumerate(_FEHLBERG_B5))
        err = h * sum(e * k[m] for m, e in enumerate(_FEHLBERG_E))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        errnorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if errnorm <= 1.0:
            x += h
            y = y5
        factor = 5.0 if errnorm == 0.0 else 0.9 * errnorm ** (-0.2)
        h *= min(5.0, max(0.2, factor))
    return y


def reference_state_differences(law, hamiltonian, joint, obs2, obs1, times, index, names,
                                fd_step, options):
    """Central differences along packed coordinates ``index``, one component
    at a time: halve the step, at most six times, while
    ``joint_from_bloch(check=True)`` rejects either shifted state, then
    propagate the packed rows of every ``unpack_coords(x +- h e_k)`` under
    obs2 in one ``packed_distributions`` call.  Returns one list per component (one
    value per time) and the steps; raises ``PerturbationInfeasibleError``
    for the first infeasible component."""
    b1, b2 = cached_basis(joint.dims[0]), cached_basis(joint.dims[1])
    x = pack_coords(joint)

    def shifted(k, delta):
        y = x.copy()
        y[k] += delta
        return unpack_coords(y, joint.dims)

    steps = []
    for k, name in zip(index, names):
        h = fd_step
        for _ in range(7):
            try:
                joint_from_bloch(shifted(k, +h), b1, b2, check=True)
                joint_from_bloch(shifted(k, -h), b1, b2, check=True)
                break
            except UnphysicalStateError:
                h *= 0.5
        else:
            raise PerturbationInfeasibleError(
                f"perturbation of {name} leaves the physical set even at step {2 * h:.3e}"
            )
        steps.append(h)
    rows = [pack_coords(shifted(k, sign * h))
            for k, h in zip(index, steps) for sign in (+1.0, -1.0)]
    dists = packed_distributions(np.stack(rows), obs2.u0_vector(), obs2.u_matrix(), joint.dims,
                                 obs1, law, list(times), h_local=hamiltonian.h1, options=options)
    diffs = np.max(np.abs(dists[:, 0::2] - dists[:, 1::2]), axis=-1)
    return (diffs / np.array([2.0 * h for h in steps])).T.tolist(), steps

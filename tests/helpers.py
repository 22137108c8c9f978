"""Matrix-level oracles used to cross-check the coordinate formulas (the
observable constructors among them), a per-stage RKF45 stepper used to
cross-check the integrator, the central differences used to cross-check
the complex-step state channels of the audit, the branch-by-branch route
used to cross-check the audit's tangent route, the audit's ensemble and
fit probes drawn and converted one object at a time, the oracles of their
one-block draws, and the audit report read off a table of its outcomes, the
oracle of the audit's one walk.

The oracles and the stepper work on raw numpy arrays and never call the
coordinate or integrator code paths they are used to verify; the central
differences shift one component at a time through ``unpack_coords`` and
subtract two real propagations, where the audit reads one complex one.  The
branch-by-branch route shares the collapse and the flow with the route it
checks, and differs only in what it propagates: every complex row.
"""

import math
from itertools import groupby
from operator import itemgetter

import numpy as np

from blochsig.bloch import pack_coords, to_bloch, unpack_coords
from blochsig.dynamics import DEFAULT_BRANCH_OPTIONS, custom_law, reduced_flow
from blochsig.errors import IntegrationFailureError, PerturbationInfeasibleError
from blochsig.measurement import (
    EPS_PROB,
    Projector,
    ProjectiveObservable,
    _collapse,
    _dots,
    _member_distributions,
    _outcomes,
    observable_from_matrices,
    rotate_observable,
)
from blochsig.sampling import (
    interior_joint_state,
    maximally_entangled_density,
    random_pure_density,
    singlet_density,
)
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
        reduced_field=lambda h_local, r: pole - rate * np.asarray(r),
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


def _shifted(joint, k, delta):
    """``joint`` with packed coordinate ``k`` moved by ``delta``."""
    x = pack_coords(joint)
    x[k] += delta
    return unpack_coords(x, joint.dims)


def reference_state_differences(law, hamiltonian, joint, obs2, obs1, times, index, fd_step,
                                options):
    """Central differences ``max |p(x + h e_k) - p(x - h e_k)| / 2h`` over
    party 1's outcomes along packed coordinates ``index``: the packed rows
    of every ``unpack_coords(x +- h e_k)`` propagate under obs2 as the rows
    of one ``_member_distributions`` member.  Returns one list per
    component, one value per time; both shifted states should stay
    physical."""
    rows = [pack_coords(_shifted(joint, k, sign * fd_step))
            for k in index for sign in (+1.0, -1.0)]
    dims = hamiltonian.dims
    dists, failures = _member_distributions(
        np.stack(rows)[None], _outcomes([obs2], dims, 2), _outcomes([obs1], dims, 1), law,
        hamiltonian, list(times), options)
    assert not failures
    diffs = np.max(np.abs(dists[:, 0, 0::2] - dists[:, 0, 1::2]), axis=-1)
    return (diffs / (2.0 * fd_step)).T.tolist()


def branchwise_member_distributions(x, remote, local, law, hamiltonian, times, options=None,
                                    names=None):
    """``_member_distributions`` with every collapsed state of every row
    propagated as its own branch row, complex or not, one member at a time:
    no linearization, no memo, no blocks.  The same members, results and
    failure records; the oracle of the tangent route, which reads complex
    rows off ``K d1`` tangent rows per member instead."""
    n1, n2 = hamiltonian.dims
    d1 = n1**2 - 1
    options = options or DEFAULT_BRANCH_OPTIONS
    (u0, u), (v0, v) = remote, local
    branches, states, failures = [], [], {}
    for m in range(len(x)):
        p, scaled = _collapse(x[m : m + 1], u0[m : m + 1], u[m : m + 1], d1)
        p, scaled = p[0], scaled[0]
        drop = p.real <= EPS_PROB
        moved = drop & ((p.imag != 0) | (scaled.imag != 0).any(axis=-1))
        for row, k in zip(*moved.nonzero()):
            error = PerturbationInfeasibleError(
                f"perturbation of {f'row {row}' if names is None else names[row]} moves remote "
                f"outcome {k} of weight {p.real[row, k]:.3e}, so only a one-sided derivative "
                "exists")
            for i in range(len(times)):
                failures.setdefault((m, i, row), error)
        keep = ~drop
        branches.append((np.nonzero(keep)[0], p[keep]))
        states.append(scaled[keep] / p[keep][:, None])
    evolved = reduced_flow(law, hamiltonian.h1, n1).sample(np.concatenate(states), times, options)
    dist = np.zeros((len(times), *x.shape[:2], v.shape[1]), dtype=evolved.dtype)
    ends = np.cumsum([len(weights) for _, weights in branches])[:-1]
    for m, (segment, (owners, weights)) in enumerate(zip(np.split(evolved, ends, axis=1),
                                                         branches)):
        born = v0[m] + _dots(segment[:, :, None, :], v[m])
        np.add.at(dist[:, m], (slice(None), owners), weights[:, None] * born)
        for i, row in zip(*(~np.isfinite(dist[:, m]).all(axis=-1)).nonzero()):
            failures.setdefault((m, i, row), IntegrationFailureError(
                f"{options.method} result at t={times[i]:.6g} is not finite"))
    return dist, failures


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
    return ProjectiveObservable(n, [Projector(n, 1.0 / n, row) for row in u])


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
    flow = reduced_flow(law, hamiltonian.h1, n)
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


def channel_label(name):
    """The audit channel and report label of a branch row named ``name``:
    ``r2[k]`` is component ``k`` of ``d_remote_state``, ``r12[i,j]``
    component ``i,j`` of ``d_correlations`` and ``theta`` the one component
    of ``d_remote_observable``."""
    if name == "theta":
        return "d_remote_observable", name
    block, label = name.removesuffix("]").split("[")
    return {"r2": "d_remote_state", "r12": "d_correlations"}[block], label


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

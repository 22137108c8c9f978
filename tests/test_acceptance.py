"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line with its headline metric and runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import time

import numpy as np

import blochsig as bs
from blochsig.cli import main as cli_main
from blochsig.dynamics import (
    BlochHamiltonian,
    evolve,
    linear_generator,
    pack_coords,
    random_hamiltonian,
    vector_field,
)
from blochsig.jsonio import dumps
from blochsig.nosignal_audit import AuditConfig, audit
from blochsig.sampling import (
    random_density,
    random_interior_joint,
    singlet_state,
)
from blochsig.su_basis import build_generators, cached_basis, structure_constants

from helpers import collapse_reduced, reference_haar_unitary, unitary_evolve


class Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} ({self.name}): {status} "
            f"[{elapsed:.1f}s/{self.budget:.0f}s] {detail}"
        )
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


def test_criterion_1_algebra_suite():
    crit = Criterion(1, "algebra suite", 5.0)
    worst_closure = 0.0
    worst_jacobi = 0.0
    for dim in (2, 3, 4):
        basis = build_generators(dim)
        m = basis.matrices
        assert np.max(np.abs(m - m.conj().transpose(0, 2, 1))) <= 1e-14
        assert np.max(np.abs(np.einsum("iaa->i", m))) <= 1e-14
        gram = np.real(np.einsum("iab,jba->ij", m, m))
        assert np.max(np.abs(gram - 2.0 * np.eye(dim**2 - 1))) <= 1e-12
        assert np.linalg.matrix_rank(gram) == dim**2 - 1
        sc = structure_constants(basis)
        prod = np.einsum("iab,jbc->ijac", m, m)
        comm = prod - prod.transpose(1, 0, 2, 3)
        anti = prod + prod.transpose(1, 0, 2, 3)
        d = dim**2 - 1
        worst_closure = max(
            worst_closure,
            float(np.max(np.abs(comm - 2j * np.einsum("ijk,kab->ijab", sc.f, m)))),
            float(
                np.max(
                    np.abs(
                        anti
                        - (4.0 / dim) * np.einsum("ij,ab->ijab", np.eye(d), np.eye(dim))
                        - 2.0 * np.einsum("ijk,kab->ijab", sc.g, m)
                    )
                )
            ),
        )
        jac = (
            np.einsum("ijm,mkl->ijkl", sc.f, sc.f)
            + np.einsum("jkm,mil->ijkl", sc.f, sc.f)
            + np.einsum("kim,mjl->ijkl", sc.f, sc.f)
        )
        worst_jacobi = max(worst_jacobi, float(np.max(np.abs(jac))))

    pauli = build_generators(2)
    exact_pauli = (
        np.array_equal(pauli[0], np.array([[0, 1], [1, 0]], dtype=complex))
        and np.array_equal(pauli[1], np.array([[0, -1j], [1j, 0]], dtype=complex))
        and np.array_equal(pauli[2], np.array([[1, 0], [0, -1]], dtype=complex))
    )
    sc2 = structure_constants(pauli)
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        eps[i, j, k] = 1.0 if [i, j, k] in ([0, 1, 2], [1, 2, 0], [2, 0, 1]) else -1.0
    levi_ok = np.max(np.abs(sc2.f - eps)) <= 1e-14 and np.max(np.abs(sc2.g)) <= 1e-14
    sc3 = structure_constants(build_generators(3))
    su3_ok = (
        abs(sc3.f[0, 1, 2] - 1.0) <= 1e-12
        and abs(sc3.g[0, 0, 7] - 1.0 / math.sqrt(3.0)) <= 1e-12
    )
    ok = worst_closure <= 1e-11 and worst_jacobi <= 1e-11 and exact_pauli and levi_ok and su3_ok
    crit.finish(
        ok,
        f"closure={worst_closure:.2e} jacobi={worst_jacobi:.2e} "
        f"pauli_exact={exact_pauli} su3_table={su3_ok}",
    )


def test_criterion_2_collapse_oracle_equivalence():
    crit = Criterion(2, "collapse oracle equivalence", 30.0)
    worst_state = 0.0
    worst_average = 0.0
    triples = 0
    for dims in ((2, 2), (2, 3), (3, 3)):
        n1, n2 = dims
        b1, b2 = cached_basis(n1), cached_basis(n2)
        rng = np.random.default_rng(1000 + 10 * n1 + n2)
        count = 0
        while count < 200:
            rho = random_density(rng, n1 * n2)
            joint = bs.joint_to_bloch(rho, b1, b2)
            obs2 = bs.observable_from_basis(reference_haar_unitary(rng, n2).T, b2)
            k = int(rng.integers(n2))
            prob_oracle, reduced_oracle = collapse_reduced(
                rho, dims, obs2.outcomes[k].matrix(b2)
            )
            if prob_oracle <= 1e-6:
                continue
            p, cond = bs.conditional_state(joint, obs2, k)
            worst_state = max(
                worst_state,
                float(np.max(np.abs(cond.r - bs.to_bloch(reduced_oracle, b1).r))),
                abs(p - prob_oracle),
            )
            average = np.zeros(n1**2 - 1)
            for kk in range(n2):
                pk, ck = bs.conditional_state(joint, obs2, kk)
                average += pk * ck.r
            worst_average = max(worst_average, float(np.max(np.abs(average - joint.r1))))
            count += 1
            triples += 1
    ok = worst_state <= 1e-11 and worst_average <= 1e-12
    crit.finish(
        ok,
        f"triples={triples} max|dr|={worst_state:.2e} branch_avg={worst_average:.2e}",
    )


def test_criterion_3_linear_limit_dynamics():
    crit = Criterion(3, "linear-limit dynamics vs unitary oracle", 60.0)
    law = bs.xi_law("one")
    worst = 0.0
    for dims in ((2, 2), (2, 3)):
        n1, n2 = dims
        b1, b2 = cached_basis(n1), cached_basis(n2)
        rng = np.random.default_rng(2000 + n2)
        for _ in range(50):
            h = random_hamiltonian(rng, dims, scale=0.5)
            rho0 = random_density(rng, n1 * n2)
            state0 = bs.joint_to_bloch(rho0, b1, b2)
            t = float(rng.uniform(0.2, 1.0))
            result = evolve(law, h, state0, t)  # rkf45 defaults
            ref = bs.joint_to_bloch(unitary_evolve(h.matrix(), rho0, t), b1, b2)
            worst = max(
                worst,
                float(np.max(np.abs(result.state.r1 - ref.r1))),
                float(np.max(np.abs(result.state.r2 - ref.r2))),
                float(np.max(np.abs(result.state.r12 - ref.r12))),
            )
    ok = worst <= 1e-6
    crit.finish(ok, f"max_bloch_error={worst:.2e} (100 trajectories)")


def test_criterion_4_linear_law_audit_passes():
    crit = Criterion(4, "no-signaling of the linear law", 120.0)
    rng = np.random.default_rng(3000)
    h = random_hamiltonian(rng, (2, 2), scale=0.6, interaction=True)
    report = audit(bs.linear_law(), h, AuditConfig())  # seeded default ensemble
    derivs = (
        report.max_d_remote_state,
        report.max_d_correlations,
        report.max_d_remote_observable,
    )
    ok = report.verdict == "pass" and max(derivs) <= 1e-6
    crit.finish(ok, f"verdict={report.verdict} max_residual={max(derivs):.2e}")


def test_criterion_5_weighted_law_nonlinear_but_silent():
    crit = Criterion(5, "nonlinearity without signaling (corrnorm)", 120.0)
    rng = np.random.default_rng(4000)
    h = random_hamiltonian(rng, (2, 2), scale=0.6, interaction=True)
    law = bs.xi_law("corrnorm")

    report = audit(law, h, AuditConfig(seed=5))
    derivs = (
        report.max_d_remote_state,
        report.max_d_correlations,
        report.max_d_remote_observable,
    )

    gen = linear_generator(h)
    field_gap = 0.0
    for _ in range(20):
        state = random_interior_joint(rng, (2, 2))
        dr1, dr2, dr12 = vector_field(law, h, state)
        flat = np.concatenate([dr1, dr2, dr12.ravel()])
        field_gap = max(field_gap, float(np.max(np.abs(flat - gen @ pack_coords(state)))))

    ok = (
        report.verdict == "pass"
        and max(derivs) <= 1e-6
        and report.linearity_residual <= 1e-8
        and field_gap >= 1e-3
    )
    crit.finish(
        ok,
        f"verdict={report.verdict} max_residual={max(derivs):.2e} "
        f"linearity={report.linearity_residual:.2e} joint_field_gap={field_gap:.2e}",
    )


def test_criterion_6_detector_positive_control():
    crit = Criterion(6, "polesink detector positive control", 30.0)
    law = bs.polesink_law(0.1)
    delta, _ = bs.signaling_channel_demo(
        law,
        singlet_state(),
        bs.computational_observable(2),
        bs.fourier_observable(2),
        bs.computational_observable(2),
        t=1.0,
    )
    expected = math.tanh(0.1) / 2.0
    report = audit(law, BlochHamiltonian((2, 2)), AuditConfig(seed=6))
    ok = (
        abs(delta - expected) <= 1e-4
        and report.verdict == "signaling-detected"
        and report.max_d_remote_observable > 1e-2
    )
    crit.finish(
        ok,
        f"delta={delta:.6f} (oracle {expected:.6f}) verdict={report.verdict} "
        f"d_remote_observable={report.max_d_remote_observable:.2e}",
    )


def test_criterion_7_t0_universality():
    crit = Criterion(7, "t=0 universality", 10.0)
    rng = np.random.default_rng(5000)
    h = random_hamiltonian(rng, (2, 2), scale=0.6, interaction=True)
    config = AuditConfig(seed=7, ensemble_size=8, times=(0.0,))
    worst = 0.0
    laws = [
        bs.linear_law(),
        bs.xi_law("one"),
        bs.xi_law("purity1"),
        bs.xi_law("corrnorm"),
        bs.polesink_law(0.1),
    ]
    for law in laws:
        h_use = h if law.kind != "custom" else BlochHamiltonian((2, 2))
        report = audit(law, h_use, config)
        worst = max(
            worst,
            report.max_d_remote_state,
            report.max_d_correlations,
            report.max_d_remote_observable,
        )
    ok = worst <= 1e-10
    crit.finish(ok, f"{len(laws)} laws, max t=0 residual={worst:.2e}")


def test_criterion_8_reproducibility(tmp_path):
    crit = Criterion(8, "byte-identical audit reports", 60.0)
    config = {
        "dims": [2, 2],
        "law": {"name": "xi", "preset": "corrnorm"},
        "hamiltonian": {
            "H1": [0.1, 0.0, 0.5],
            "H2": [0.0, 0.2, 0.3],
            "H12": [[0.4, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]],
        },
        "audit": {"ensemble_size": 8, "seed": 12345},
    }
    cfg_path = tmp_path / "audit.json"
    cfg_path.write_text(dumps(config), encoding="utf-8")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = cli_main(
        ["audit", "--config", str(cfg_path), "--out", str(out_a), "--no-timestamp"]
    )
    code_b = cli_main(
        ["audit", "--config", str(cfg_path), "--out", str(out_b), "--no-timestamp"]
    )
    identical = out_a.read_bytes() == out_b.read_bytes()
    parsed = json.loads(out_a.read_text())
    ok = code_a == 0 and code_b == 0 and identical and parsed["verdict"] == "pass"
    crit.finish(ok, f"identical={identical} bytes={len(out_a.read_bytes())}")

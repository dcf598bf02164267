"""Acceptance gate: twelve verification criteria, one test per criterion.

Each test covers one numbered criterion at its stated tolerance and prints a
single summary line; ``pytest -v`` adds the per-criterion pass/fail verdict.
"""

import numpy as np

from varorder import (
    AutomorphismSpec,
    BornMeasure,
    DensityState,
    FunctionTable,
    HermitianObservable,
    PureState,
    apply_function,
    approx_eigen_sandwich,
    block_shift_upper_bound,
    commutator_norm,
    decide_order,
    eigendecompose,
    joint_upper_bound,
    measure_variance,
    q_matrix,
    reconstruct_metric,
    state_order_violation,
    superposition_variance,
    two_point_lower_set,
    variance,
    verify_automorphism,
    witness_search,
)
from varorder.sampling import (
    random_commuting_pair,
    random_density_matrix,
    random_hermitian,
    random_lipschitz_values,
    random_pure_vector,
    random_spectrum,
    random_unitary,
)


def _verdict_line(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def _lipschitz_image(b: HermitianObservable, seed) -> HermitianObservable:
    dec = eigendecompose(b)
    vals = random_lipschitz_values(dec.eigenvalues, seed=seed)
    return apply_function(dec, FunctionTable.from_values(dec.eigenvalues, vals))


def _rotated_diag(spectrum, seed) -> HermitianObservable:
    u = random_unitary(len(spectrum), seed=seed).matrix
    return HermitianObservable(u @ np.diag(np.asarray(spectrum, dtype=float)) @ u.conj().T)


def test_criterion_01_short_maps_hold_and_clear_the_oracle():
    # 500 pairs A = f(B), f a random short map of a random B, n <= 8:
    # the decision must hold and the search oracle must stay below 1e-6
    oracle = {"restarts": 6, "steps": 80, "seed": 0}
    worst = 0.0
    failures = 0
    for i in range(500):
        n = 2 + i % 7
        b = random_hermitian(n, seed=10_000 + i, scale=2.0)
        a = _lipschitz_image(b, seed=20_000 + i)
        if not decide_order(a, b).holds:
            failures += 1
            continue
        _, best = witness_search(a, b, **oracle)
        worst = max(worst, best)
        if best > 1e-6:
            failures += 1
    ok = failures == 0
    line = _verdict_line(1, ok, f"500 pairs, worst oracle value {worst:.2e}")
    assert ok, line


def test_criterion_02_violations_fail_with_verified_witnesses():
    # 500 pairs that are not short-map images: random independent A, or a
    # table with slope 3/2 on one eigenvalue gap; every verdict must be a
    # failure whose witness margin recomputes to at least 1e-9
    failures = 0
    least = np.inf
    for i in range(500):
        n = 2 + i % 7
        if i % 2 == 0:
            a = random_hermitian(n, seed=30_000 + i, scale=2.0)
            b = random_hermitian(n, seed=40_000 + i, scale=2.0)
        else:
            spectrum = random_spectrum(n, seed=50_000 + i, low=0.0, high=5.0, min_gap=0.1)
            b = _rotated_diag(spectrum, seed=60_000 + i)
            dec = eigendecompose(b)
            lams = dec.eigenvalues
            vals = random_lipschitz_values(lams, seed=70_000 + i).copy()
            if n == 2:
                g = 0
            else:
                g = int(np.random.default_rng(80_000 + i).integers(0, n - 1))
            gap = lams[g + 1] - lams[g]
            slope = (vals[g + 1] - vals[g]) / gap
            vals[g + 1 :] += (1.5 - slope) * gap  # force slope exactly 3/2
            a = apply_function(dec, FunctionTable.from_values(lams, vals))
        verdict = decide_order(a, b)
        if verdict.holds:
            failures += 1
            continue
        margin = variance(a, verdict.witness) - variance(b, verdict.witness)
        least = min(least, margin)
        if margin < 1e-9:
            failures += 1
    ok = failures == 0
    line = _verdict_line(2, ok, f"500 pairs, smallest recomputed margin {least:.2e}")
    assert ok, line


def test_criterion_03_superposition_witness_formula():
    # A = f(B) with exactly one gap stretched by kappa > 1; across that gap
    # the witness y = (x1 + x2)/sqrt(2) has variance a quarter of the squared
    # value gap, so the margin at y is (kappa^2 - 1)/4 times the squared gap
    worst = 0.0
    rng = np.random.default_rng(90)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        spectrum = random_spectrum(n, seed=rng, low=0.0, high=5.0, min_gap=0.2)
        u = random_unitary(n, seed=rng).matrix
        b = HermitianObservable(u @ np.diag(spectrum) @ u.conj().T)
        dec = eigendecompose(b)
        lams = dec.eigenvalues
        kappa = float(rng.uniform(1.05, 2.0))
        g = int(rng.integers(0, n - 1))
        gap = lams[g + 1] - lams[g]
        vals = lams.copy()
        vals[g + 1 :] += (kappa - 1.0) * gap  # identity except one stretched gap
        a = apply_function(dec, FunctionTable.from_values(lams, vals))
        both = dec.vectors[:, dec.labels == g][:, 0] + dec.vectors[:, dec.labels == g + 1][:, 0]
        y = PureState.normalized(both)
        var_a, var_b = variance(a, y), variance(b, y)
        dev = max(
            abs(var_a - 0.25 * (vals[g + 1] - vals[g]) ** 2),
            abs(var_b - 0.25 * gap**2),
            abs((var_a - var_b) - 0.25 * (kappa**2 - 1.0) * gap**2),
        )
        worst = max(worst, dev)
    ok = worst <= 1e-10
    line = _verdict_line(3, ok, f"200 constructions, worst formula deviation {worst:.2e}")
    assert ok, line


def test_criterion_04_holding_pairs_survive_state_sampling():
    # pure-state order implies density-state order: every holding pair must
    # clear 1000 sampled density matrices at tolerance 1e-9
    pairs = [
        (
            HermitianObservable.from_diag([0.0, 1.0, 2.0]),
            HermitianObservable.from_diag([0.0, 1.0, 3.0]),
        )
    ]
    for i in range(50):
        n = 2 + i % 7
        b = random_hermitian(n, seed=100_000 + i, scale=2.0)
        pairs.append((_lipschitz_image(b, seed=110_000 + i), b))
    checked = 0
    failures = 0
    for i, (a, b) in enumerate(pairs):
        if not decide_order(a, b).holds:
            failures += 1
            continue
        checked += 1
        if state_order_violation(a, b, trials=1000, seed=120_000 + i, tol=1e-9) is not None:
            failures += 1
    ok = failures == 0
    line = _verdict_line(4, ok, f"{checked} holding pairs x 1000 density samples")
    assert ok, line


def test_criterion_05_variance_identities():
    # moment formula vs double integral on 1000 measures, and the pure-state residual
    # vs the moment form at x x* on 1000 observable/state pairs, at 1e-10
    rng = np.random.default_rng(130)
    worst_measure = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        locs = np.sort(rng.uniform(-5.0, 5.0, size=k))
        mu_atoms = list(zip(locs, rng.dirichlet(np.ones(k))))
        mu = BornMeasure.normalized(mu_atoms)
        t, p = mu.locations, mu.masses
        double = 0.5 * float(p @ (t[:, None] - t[None, :]) ** 2 @ p)
        worst_measure = max(worst_measure, abs(measure_variance(mu) - double))

    worst_pure = 0.0
    for i in range(1000):
        n = 2 + i % 11
        a = random_hermitian(n, seed=140_000 + i, scale=2.0)
        x = PureState(random_pure_vector(n, rng))
        worst_pure = max(worst_pure, abs(variance(a, x) - variance(a, DensityState.from_pure(x))))

    ok = worst_measure <= 1e-10 and worst_pure <= 1e-10
    line = _verdict_line(
        5, ok, f"formula gap {worst_measure:.2e}, pure-state gap {worst_pure:.2e}"
    )
    assert ok, line


def test_criterion_06_sandwich_inequality():
    # half the residual bounds the variance-plus-offset term which bounds
    # twice the residual, on 1000 random triples
    rng = np.random.default_rng(150)
    failures = 0
    for i in range(1000):
        n = 2 + i % 9
        a = random_hermitian(n, seed=160_000 + i, scale=2.0)
        x = PureState(random_pure_vector(n, rng))
        lam = float(rng.uniform(-4.0, 4.0))
        d, var, err = approx_eigen_sandwich(a, x, lam)
        mid = var + err * err
        if not (0.5 * d <= mid + 1e-10 and mid <= 2.0 * d + 1e-10):
            failures += 1
    ok = failures == 0
    line = _verdict_line(6, ok, "1000 sandwich triples within stated bounds")
    assert ok, line


def test_criterion_07_two_eigenvector_superposition_closed_form():
    # direct variance of the normalized superposition against
    # a^2 b^2 (lam - mu)^2 / (a^2 + b^2)^2, 200 diagonal instances, 1e-10
    rng = np.random.default_rng(170)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        diag = np.sort(rng.uniform(-4.0, 4.0, size=n))
        while np.diff(diag).min() < 0.05:
            diag = np.sort(rng.uniform(-4.0, 4.0, size=n))
        a = HermitianObservable.from_diag(diag)
        p, q = rng.choice(n, size=2, replace=False)
        alpha = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        beta = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        got = superposition_variance(
            a, PureState.basis_vector(n, p), PureState.basis_vector(n, q), alpha, beta
        )
        gap = diag[p] - diag[q]
        expect = alpha**2 * beta**2 * gap**2 / (alpha**2 + beta**2) ** 2
        worst = max(worst, abs(got - expect))
    ok = worst <= 1e-10
    line = _verdict_line(7, ok, f"200 superpositions, worst closed-form gap {worst:.2e}")
    assert ok, line


def test_criterion_08_joint_upper_bounds_track_commutation():
    # commuting pairs get a verified common upper bound; for non-commuting
    # pairs no candidate tops both members
    failures = 0
    for i in range(200):
        n = 2 + i % 6
        a, b = random_commuting_pair(n, seed=180_000 + i)
        c = joint_upper_bound(a, b)
        if not (decide_order(a, c).holds and decide_order(b, c).holds):
            failures += 1

    for i in range(200):
        n = 2 + i % 6
        a = random_hermitian(n, seed=190_000 + i)
        b = random_hermitian(n, seed=200_000 + i)
        if commutator_norm(a, b) <= 1e-6:
            continue  # astronomically unlikely; keep the check honest
        for c in (block_shift_upper_bound(a, b), block_shift_upper_bound(b, a)):
            if decide_order(a, c).holds and decide_order(b, c).holds:
                failures += 1
    ok = failures == 0
    line = _verdict_line(8, ok, "200 commuting + 200 non-commuting pairs")
    assert ok, line


def test_criterion_09_lower_set_thresholds_sharp_both_sides():
    # on 100 random spectra: the family observable stays below A up to the
    # threshold and stops being below one tenth of a gap above it
    failures = 0
    families = 0
    for i in range(100):
        n = 3 + i % 3
        spectrum = random_spectrum(n, seed=210_000 + i, min_gap=0.3)
        if i % 2 == 0:
            a = HermitianObservable.from_diag(spectrum)
        else:
            a = _rotated_diag(spectrum, seed=220_000 + i)
        mingap = float(np.diff(np.sort(spectrum)).min())
        for fam in two_point_lower_set(a):
            families += 1
            below = decide_order(fam.observable(fam.threshold - 0.1 * mingap), a).holds
            at = decide_order(fam.observable(fam.threshold), a).holds
            above = decide_order(fam.observable(fam.threshold + 0.1 * mingap), a).holds
            if not (below and at and not above):
                failures += 1
    ok = failures == 0
    line = _verdict_line(9, ok, f"{families} threshold families on 100 spectra")
    assert ok, line


def test_criterion_10_gap_matrix_reconstruction_round_trip():
    # 500 spectra, 4 <= n <= 8: recover every pairwise distance to 1e-9 and
    # never see the maximum attained more than three times
    failures = 0
    worst = 0.0
    for i in range(500):
        n = 4 + i % 5
        spectrum = np.sort(random_spectrum(n, seed=230_000 + i, low=0.0, high=10.0, min_gap=0.05))
        qm = q_matrix(spectrum)
        top = qm.values.max()
        hits = int(np.sum(np.triu(qm.values, 1) >= top * (1 - 1e-9)))
        if not 1 <= hits <= 3:
            failures += 1
            continue
        d, _ = reconstruct_metric(qm)
        anchored = spectrum - spectrum[0]
        err = float(np.abs(d - np.abs(anchored[:, None] - anchored[None, :])).max())
        worst = max(worst, err)
        if err > 1e-9:
            failures += 1
    ok = failures == 0
    line = _verdict_line(10, ok, f"500 spectra, worst distance error {worst:.2e}")
    assert ok, line


def test_criterion_11_automorphism_form_verification():
    # 100 random (scale, unitary, antiunitary) specs pass 50 trials each;
    # 20 corrupted maps are refuted
    failures = 0
    rng = np.random.default_rng(240)
    for i in range(100):
        alpha = float(rng.uniform(0.2, 3.0))
        u = random_unitary(3, seed=250_000 + i, antiunitary=bool(i % 2))
        spec = AutomorphismSpec(alpha, u)
        if not verify_automorphism(spec, trials=50, dim=3, seed=260_000 + i).passed:
            failures += 1

    refuted = 0
    for i in range(20):
        u = random_unitary(3, seed=270_000 + i).matrix
        shift = float(rng.uniform(0.5, 2.0))

        def corrupted(obs, u=u, shift=shift):
            m = u @ obs.matrix @ u.conj().T
            return HermitianObservable(m + shift * obs.matrix @ obs.matrix)

        if not verify_automorphism(corrupted, trials=50, dim=3, seed=280_000 + i).passed:
            refuted += 1
    ok = failures == 0 and refuted == 20
    line = _verdict_line(11, ok, f"100 specs passed, {refuted}/20 corruptions refuted")
    assert ok, line


def test_criterion_12_variance_invariance_suite():
    # quadratic scaling, unitary covariance, and affine-sign invariance of
    # the variance functional, each within 1e-10
    rng = np.random.default_rng(290)
    worst = 0.0
    for i in range(200):
        n = 2 + i % 7
        a = random_hermitian(n, seed=300_000 + i)
        rho = DensityState(random_density_matrix(n, rng))
        base = variance(a, rho)
        eye = np.eye(n)

        alpha = float(rng.uniform(-3.0, 3.0))
        scaled = variance(HermitianObservable(alpha * a.matrix), rho)
        worst = max(worst, abs(scaled - alpha**2 * base))

        u = random_unitary(n, seed=310_000 + i).matrix
        rotated = variance(HermitianObservable(u @ a.matrix @ u.conj().T), rho)
        pulled = variance(a, DensityState(u.conj().T @ rho.matrix @ u))
        worst = max(worst, abs(rotated - pulled))

        c = float(rng.uniform(-4.0, 4.0))
        for sign in (1.0, -1.0):
            member = variance(HermitianObservable(sign * a.matrix + c * eye), rho)
            worst = max(worst, abs(member - base))
    ok = worst <= 1e-10
    line = _verdict_line(12, ok, f"200 observables, worst invariance gap {worst:.2e}")
    assert ok, line

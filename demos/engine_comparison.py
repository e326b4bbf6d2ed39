"""Why the noise experiment integrates with a Gauss-Hermite product rule.

Sigma points place 2d+1 deterministic points so that no point displaces
the state and the observation noise at the same time. For the noise
magnitude model that symmetry makes every state/feature cross moment
vanish exactly, at any monomial order, so the filter never updates.
Monte Carlo draws break the symmetry and see the coupling, up to
sampling noise. A 3 x 3 Gauss-Hermite grid displaces both in the same
points and gives the quadratic fit's moments exactly, from 9 points;
it is the experiment's default engine.

Run:  python demos/engine_comparison.py
"""

import numpy as np

from fgfilter import (
    gauss_hermite,
    joint_moments,
    make_monomial_feature,
    make_noise_magnitude_model,
    monte_carlo,
    run_noise_experiment,
    sigma_point,
)


def main():
    model, prior = make_noise_magnitude_model()
    quad = make_monomial_feature(1, 2)

    print("cross moments cov(M, [1, y, y^2]) at the prior:")
    for label, engine in (
        ("sigma points", sigma_point()),
        ("monte carlo 10^5", monte_carlo(100_000, seed=0)),
        ("gauss-hermite 3x3", gauss_hermite(3)),
    ):
        mom = joint_moments(prior, model, quad, engine)
        entries = "  ".join(f"{v:9.5f}" for v in mom.s_xf[0])
        print(f"  {label:17s} {entries}")
    print()
    print("cov(M, y^2) is the signal; its exact value at the prior is 10.")
    print("Sigma points return exactly zero, so the quadratic filter they")
    print("drive is as blind as the plain one:")
    print()

    for label, engine in (
        ("sigma points", sigma_point()),
        ("monte carlo", monte_carlo(seed=7)),
        ("gauss-hermite", gauss_hermite(3)),
    ):
        # seed 7 drifts well away from the prior, so staying pinned is costly
        rep = run_noise_experiment(steps=300, seed=7, engine=engine, orders=(2,))
        drift = float(np.max(np.abs(rep.means[2] - 5.0)))
        print(
            f"  {label:13s} quadratic rmse {rep.rmse[2]:.4f}"
            f"   max |mean - prior| {drift:.4f}"
        )


if __name__ == "__main__":
    main()

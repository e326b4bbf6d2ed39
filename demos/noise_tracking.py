"""Track a slowly drifting sensor noise magnitude.

The state is the magnitude M of the measurement noise itself: every
observation is y = M * w with w standard normal. M and y are exactly
uncorrelated, so a plain Gaussian filter computing exact expectations
never moves off its prior, and the experiment's default Gauss-Hermite
rule computes them exactly (driven by Monte Carlo it would move only on
estimation noise). Adding y^2 to the feature vector exposes the scale
information and the feature filter locks on.

Run:  python demos/noise_tracking.py
"""

import numpy as np

from fgfilter import run_noise_experiment


def main():
    rep = run_noise_experiment(steps=300, seed=7, orders=(2,))

    print("noise magnitude tracking, 300 steps, seed 7")
    print(f"  plain filter rmse:      {rep.rmse[1]:.4f}")
    print(f"  quadratic feature rmse: {rep.rmse[2]:.4f}")
    print()
    print("  step   truth   plain   quadratic")
    for t in range(0, 300, 50):
        truth = float(np.asarray(rep.true_states).reshape(-1)[t])
        gf = float(rep.means[1][t])
        fgf = float(rep.means[2][t])
        print(f"  {t:4d}  {truth:6.3f}  {gf:6.3f}  {fgf:10.3f}")
    print()
    print("the plain column holds its prior mean; the quadratic")
    print("column follows the drift.")


if __name__ == "__main__":
    main()

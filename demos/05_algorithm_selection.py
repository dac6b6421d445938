"""When the lower-AUC algorithm is the right one to deploy.

Two score models over the same individuals: "toprank" ranks the top quintile
perfectly but scrambles everyone below it; "smooth" is moderately noisy
everywhere.  smooth wins AUC.  Under scarce capacity the system only operates
at high thresholds, where toprank is sharper -- OpAUC weights exactly those
thresholds and picks toprank, and simulation confirms the choice.
"""

from pathlib import Path

import numpy as np

import capthresh as ct
from capthresh import scenario as sio

OUT = Path(__file__).parent / "output"

rng = np.random.default_rng(20260801)
size, cut, sigma = 150_000, 0.75, 0.25
r = rng.random(size)
toprank = ct.EmpiricalJoint(np.where(r >= cut, r, cut * rng.random(size)), r)
smooth = ct.EmpiricalJoint(np.clip(r + sigma * rng.standard_normal(size), 0, 1), r)

params = ct.BehavioralParams(p0=0.1, delta_p=0.5)
mu = ct.Atoms(((0.05, 1 / 3), (0.1, 1 / 3), (0.15, 1 / 3)))

print("TPR at a few thresholds (the ROC curves cross):")
print(f"{'tau':>6} {'toprank':>9} {'smooth':>9}")
for tau in (0.2, 0.5, 0.8, 0.9):
    print(f"{tau:6.1f} {ct.tpr_at(toprank, tau):9.3f} {ct.tpr_at(smooth, tau):9.3f}")

report = ct.select_algorithm(
    [ct.AlgorithmCandidate("toprank", toprank), ct.AlgorithmCandidate("smooth", smooth)],
    mu, params,
)
print("\nmetric comparison under capacity ratios {0.05, 0.10, 0.15}:")
for cand in report.candidates:
    print(f"  {cand.name:8s} AUC {cand.auc:.3f}   OpAUC {cand.opauc:.4f}")
print(f"winner by AUC:   {report.winner_by_auc}")
print(f"winner by OpAUC: {report.winner_by_opauc}\n")

print("simulated efficacy at each candidate's own optimal threshold:")
for name, model in (("toprank", toprank), ("smooth", smooth)):
    total = 0.0
    for rho, w in mu.atoms:
        cfg = ct.SimConfig(n=2000, m=int(2000 * rho), params=params, trials=800, seed=5)
        total += w * ct.simulate_policy(cfg, ct.TwoPointOptimal(), model).mean
    print(f"  {name:8s}: {total:8.2f} expected served value")

csv_path, json_path = sio.write_selection_report(report, OUT / "selection")
print(f"\naudit tables written to {csv_path.relative_to(OUT.parent)} and {json_path.relative_to(OUT.parent)}")

"""How much value naive threshold policies leave on the table.

Sweeps the capacity ratio and the baseline request probability for a
beta-mixture score distribution, comparing fixed predictive thresholds and
the capacity-matching rule against the two-point optimum.  Writes the sweep
tables as CSV and three-panel SVG plots under demos/output/.
"""

from pathlib import Path

import numpy as np

import capthresh as ct
from capthresh import scenario as sio

OUT = Path(__file__).parent / "output"

model = ct.Analytic(ct.BetaMixture(((0.7, 2, 10), (0.3, 8, 2))), ct.Perfect())
params = ct.BehavioralParams(p0=0.1, delta_p=0.5)
policies = [
    ct.TwoPointOptimal(),
    ct.CapacityMatching(),
    ct.Fixed(0.8),
    ct.Fixed(0.6),
]


def sweep_to_table(axis, grid, rho=None):
    curves = [
        ct.gap_curve(policy, axis=axis, grid=grid, model=model, params=params, rho=rho, n=1000)
        for policy in policies
    ]
    return sio.sweep_table([policy.label for policy in policies], curves)


print("Sweeping the capacity ratio (p0 fixed at 0.1)...")
rho_table = sweep_to_table("rho", np.linspace(0.02, 0.7, 69))
sio.write_sweep_csv(rho_table, OUT / "rho_sweep.csv")
sio.render_sweep_svg(rho_table, "capacity ratio m/n", OUT / "rho_sweep.svg")

worst = {}
for row in rho_table.rows:
    worst[row.policy] = max(worst.get(row.policy, 0.0), row.rel_gap)
for policy, gap in sorted(worst.items()):
    print(f"  worst relative gap, {policy:22s}: {gap:6.1%}")

print("\nSweeping the baseline request probability (rho fixed at 0.2)...")
p0_table = sweep_to_table("p0", np.linspace(0.0, 0.45, 46), rho=0.2)
sio.write_sweep_csv(p0_table, OUT / "p0_sweep.csv")
sio.render_sweep_svg(p0_table, "baseline request probability p0", OUT / "p0_sweep.svg")

p0_bar = ct.critical_baseline(0.2, model, 0.5)
cm = [r for r in p0_table.rows if r.policy == "capacity_matching"]
zero_region = max((r.axis_value for r in cm if r.rel_gap <= 1e-9), default=None)
print(f"  capacity-matching is exactly optimal up to p0 = {zero_region:.2f}")
print(f"  (the critical baseline is p0_bar = {p0_bar:.4f}; beyond it the gap grows)")
print(f"\nWrote {OUT.name}/rho_sweep.csv, {OUT.name}/p0_sweep.csv and matching SVGs.")

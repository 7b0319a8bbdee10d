"""The evaluation toolbox: ROC/PR sweeps, AUC as a ranking probability, t-tests.

The curves and statistics are computed from first principles: threshold
sweeps with tied scores grouped, trapezoid areas, and the paired t
statistic, whose Student-t tail is the regularized incomplete beta
function from scipy.  The demo cross-checks the AUC against the
brute-force pairwise ranking count to show they coincide.

Run:  python demos/04_metrics_from_scratch.py
"""

import numpy as np

from correntia import auc, confusion_counts, paired_ttest, pr_curve, roc_curve, student_t_sf

rng = np.random.default_rng(2024)
n = 40
truth = rng.integers(0, 2, n).astype(bool)
# noisy scores, quantized so ties actually occur
scores = np.round(truth * 1.2 + rng.standard_normal(n), 1)

print("confusion counts at a few thresholds:")
for threshold in (-1.0, 0.5, 2.0):
    c = confusion_counts(scores, truth, threshold)
    print(f"  t={threshold:+.1f}: tp={c.tp:2d} fp={c.fp:2d} tn={c.tn:2d} fn={c.fn:2d}")

roc = roc_curve(scores, truth)  # a Curve: threshold, x and y arrays, one entry per threshold
print(f"\nROC sweep produced {roc.x.size} points; first/last: "
      f"({roc.x[0]:.0f},{roc.y[0]:.0f}) -> ({roc.x[-1]:.0f},{roc.y[-1]:.0f})")

area = auc(roc)
pairs = [(sp, sn) for sp in scores[truth] for sn in scores[~truth]]
ranking = np.mean([1.0 if sp > sn else 0.5 if sp == sn else 0.0 for sp, sn in pairs])
print(f"trapezoid AUC        : {area:.12f}")
print(f"pairwise ranking prob: {ranking:.12f}   (identical, ties counted half)")

pr = pr_curve(scores, truth)
print(f"\nPR curve starts at recall {pr.x[0]:.0f}, precision {pr.y[0]:.0f} "
      f"(zero-predicted-positives convention)")

print("\npaired t-test on matched per-split accuracies:")
a = np.array([0.94, 0.96, 0.95, 0.97, 0.93, 0.96, 0.95, 0.94, 0.96, 0.95])
b = a - rng.uniform(0.0, 0.03, 10)
t, p = paired_ttest(a, b)
print(f"  t = {t:.3f}, two-sided p = {p:.5f}")
print(f"  tail check: P(|T| >= 2.0) with 9 dof = {student_t_sf(2.0, 9):.10f}")

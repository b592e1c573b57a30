"""Fit a power law to experiment records and read the goodness of fit.

We generate a synthetic sweep of 8 model scales at aspect ratio 32 (hidden
width = 32 * layers), five finetuning runs each, following a known law with
1% multiplicative noise, then recover the law from the records alone.
"""

import math
from pathlib import Path

import scalefit as sf

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

# --- a ladder of model configurations, 12k to 6.3M parameters
scales = sf.scale_ladder(32, range(1, 9))
for s in scales:
    print(f"  L={s.layers}  H={s.hidden:4d}  params={s.params:>9,}")

# --- synthesize records on y = 20 * N^0.08 with per-run log noise 0.01
spec = sf.SynthSpec(
    true_alpha=0.08,
    true_log_c=math.log(20),
    scales=tuple(scales),
    seeds_per_scale=5,
    sigma_fin=0.01,
    rng_seed=7,
    direction="minimize",
    metric="loss",
)
runset, truth = sf.generate(spec)
data_path = out_dir / "sweep.jsonl"
sf.emit(runset, data_path)
print(f"\nwrote {len(runset)} records to {data_path}")

# --- round trip through the canonical file format, then fit
records = sf.ingest(data_path)
runset = sf.group(records)[("synthetic", "synthetic", "loss")]
fit = sf.fit_line(runset.points())
print(f"\ntrue law:   alpha={truth.alpha}, log_c={truth.log_c:.4f}")
print(f"fitted law: alpha={fit.alpha:.4f}, beta={fit.beta:.4f}")
print(f"log-space R^2 = {fit.r_squared:.4f} over {fit.n_points} points")
r2_linear, _, _ = sf.goodness_of_fit(runset.points(), fit, "linear")
print(f"linear-space R^2 = {r2_linear:.4f}")

# --- depth-filtered fit: drop the single-layer scale and refit
deep = sf.fit_runset(runset, min_layers=2)
print(f"\nR^2 with layers >= 2 only: {deep.r_squared:.4f} "
      f"(vs {fit.r_squared:.4f} unfiltered)")

# --- render the scatter and fitted line
plot = sf.plot_runset(runset, fit=fit, title="synthetic sweep, AR 32")
svg_path = out_dir / "fit.svg"
sf.write_plot(plot, svg_path)
print(f"\nplot written to {svg_path}")

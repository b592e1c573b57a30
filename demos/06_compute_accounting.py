"""Count what the small-scale methodology costs and saves.

Sweeping 8 small scales instead of training the 12-layer model once: how
do the parameter totals compare, and what do the training FLOPs (6 * N * D
for forward plus backward) look like once token counts enter?
"""

import scalefit as sf

small = sf.scale_ladder(32, range(1, 9))
large = sf.ScaleSpec.from_dims(12, 768)

total_small = sum(s.params for s in small)
print(f"sweep parameters:  {total_small:>12,}  (8 scales, AR 32)")
print(f"target parameters: {large.params:>12,}  (L=12, H=768)")

ratio = sf.savings_ratio(small, large, "equal_tokens")
print(f"\nequal-token savings ratio: {ratio:.2f}x")

# with real token counts the comparison moves to FLOPs; small models often
# observe more tokens per parameter, eating into the savings
tokens_small = [2_000_000] * len(small)  # longer finetuning at small scale
tokens_large = 1_000_000
ratio_flops = sf.savings_ratio(
    small, large, "supplied_tokens", small_tokens=tokens_small, large_tokens=tokens_large
)
print(f"supplied-token savings ratio: {ratio_flops:.2f}x")

est = sf.ComputeEstimate(large.params, tokens_large)
print(f"\ntarget training cost: {est.flops:,} FLOPs "
      f"(params={est.params:,}, tokens={est.tokens:,})")
print("note: evaluation passes triggered by early stopping are not counted")

"""KL contraction coefficients, and the certificate that settles k = 4.

A channel W with reference input P* contracts KL divergence by the factor
d* = sup KL(WP || WP*) / KL(P || P*).  For the occupation channel the
conjecture is that the supremum is attained by the degenerate corner
input, giving d* = H(2/k) / ln C(k,2); the k = 4 case is certified
numerically below.
"""

import math

import numpy as np

from occuthresh import (
    Channel,
    Pmf,
    certify_k4_contraction,
    conjectured_contraction,
    contraction_coefficient,
    divergence_ratio,
    occupation_contraction,
    OverlapPoint,
)

print("Generic channels first:")
value, arg = contraction_coefficient(Pmf(np.ones(2) / 2), Channel(np.eye(2)), grid_depth=100)
print(f"  identity channel:  d* = {value:.12f}  (no information lost)")
bsc = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
value, arg = contraction_coefficient(Pmf(np.ones(2) / 2), bsc, grid_depth=200)
print(f"  binary symmetric, flip 0.1, uniform reference: d* = {value:.9f}")
print(f"  (the chi-square bound (1 - 2*0.1)^2 = {0.8 ** 2} is met in the limit p -> p*)")

print()
print("Occupation channel suprema (grid over w1 at the least-divergence w2):")
print("k   conjectured   measured sup   gap         argmax")
for k in (4, 5, 6):
    res = occupation_contraction(k, grid_depth=150)
    print(
        f"{k}   {res.conjectured:.9f}   {res.sup:.9f}    {res.gap:+.2e}  "
        f"({res.argmax.w1:.4f}, {res.argmax.w2:.4f})"
    )
print("The k=4 supremum lands exactly on the corner w = (1, 1); for k >= 5 the")
print("corner value is conjectured to be the supremum, and the measured gap is")
print("reported without a verdict.")

print()
print("Ratio along the boundary at k=4:")
for w in ((1.0, 1.0), (0.0, 0.0), (0.9, 0.85)):
    r = divergence_ratio(OverlapPoint(*w), 4)
    print(f"  R{w} = {r:.9f}")
print(f"corner value ln 2 / ln 6 = {math.log(2) / math.log(6):.9f}")

print()
print("The k = 4 certificate (five grid checks, every margin recorded):")
cert = certify_k4_contraction()
print(f"  crossover of the two lower bounds: w_bar = {cert.w_bar:.6f}")
print(f"  second root of the comparison curve: w_0 = {cert.w_0:.6f}")
print(f"  bound ratio at w_bar: {cert.ratio_at_w_bar:.6f} < {cert.conjectured_d_star:.6f}")
print(f"  grid max of the ratio envelope: {cert.max_ratio_found:.9f}")
for name in sorted(cert.margins):
    print(f"  margin {name} = {cert.margins[name]:+.3e}")
assert math.isclose(cert.conjectured_d_star, conjectured_contraction(4), rel_tol=0)
print("All five checks passed; the corner value is the supremum at grid resolution.")

"""Sampling configuration-model instances and counting their solutions exactly.

A configuration wires variable half-edges to constraint half-edges by a
uniform random permutation.  Everything is seeded and portable: the same
seed reproduces the same instance on any machine.
"""

import numpy as np

from occuthresh import (
    Params,
    count_solutions,
    count_two_cycles,
    estimate_sat_probability,
    ones_quota,
    overlap,
    sample_configuration,
    sample_simple,
    serialize,
)

params = Params(n=12, d=2, k=4, r=2)
cfg = sample_configuration(params, seed=2024)
print(f"Sampled a (k={params.k}, d={params.d}) instance on n={params.n} variables,")
print(f"m = {params.m} constraints, {count_two_cycles(cfg)} two-cycles.")
print()
print("Canonical text form (feed this to `occuthresh count --in ...`):")
print(serialize(cfg))

print("Constraint neighborhoods (variables, with multiplicity):")
for a, row in enumerate(np.sort(cfg.constraint_members(), axis=1)):
    print(f"  constraint {a}: {row.tolist()}")

quota = ones_quota(params)
z = count_solutions(cfg)
print()
print(f"Any solution must set exactly {quota} of {params.n} variables to one;")
print(f"exact enumeration finds Z = {z} solutions.")

if z >= 2:
    # dig out two solutions and measure their overlap profile
    from itertools import combinations

    sols = []
    for ones in combinations(range(params.n), quota):
        x = np.zeros(params.n, dtype=np.int64)
        x[list(ones)] = 1
        from occuthresh import is_solution

        if is_solution(cfg, x):
            sols.append(x)
        if len(sols) == 2:
            break
    prof = overlap(cfg, sols[0], sols[1])
    print(f"Two of them share r1 = {prof.r1} one-variables; r2 = {prof.r2} constraints")
    print(f"see both shared ones; normalized w = ({prof.w1:.3f}, {prof.w2:.3f}).")

print()
simple = sample_simple(Params(n=60, d=3, k=4, r=2), seed=7)
print(f"Rejection sampling until two-cycle-free: {count_two_cycles(simple)} two-cycles left.")

print()
print("Satisfiability fractions (200 trials each, Wilson 95% intervals):")
for row in estimate_sat_probability(k=4, d=3, n_list=[8, 16], trials=200, seed=7, threads=2):
    print(
        f"  n = {row.n:<3} sat fraction = {row.sat_fraction:.3f} "
        f"[{row.ci_low:.3f}, {row.ci_high:.3f}]"
    )
print("Degree 3 sits above d*(4) = 2.83, so the fraction falls as n grows.")

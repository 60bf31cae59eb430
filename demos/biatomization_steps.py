"""
Repairing biatomicity one atom at a time
========================================

A triangle with its centroid marked gives a convex-set lattice that is
atomistic and join-semidistributive but not biatomic: some atom pairs
(p, b) admit no atom below their join that still covers p's share.
Each repair step adds a single fresh atom below a carefully chosen apex,
keeping the class properties intact.
"""

from latkit.analysis import (
    biatomicity_problems,
    is_atomistic,
    is_biatomic,
    is_join_semidistributive,
    solve_problem_instance,
)
from latkit.extend import partial_biatomization
from latkit.geometry import PointConfiguration, RationalPoint, co_points

cfg = PointConfiguration(
    ["a", "b", "c", "m"],
    [RationalPoint.of(0, 3), RationalPoint.of(-3, -3),
     RationalPoint.of(3, -3), RationalPoint.of(0, -1)],
)
L = co_points(cfg)

print(f"base: {L.n} elements, biatomic={is_biatomic(L)}")
problems = biatomicity_problems(L)
unsolved = [(p, a, b) for p, a, b, x, y in problems.tolist() if x < 0]
print(f"unsolved splitting problems: {len(unsolved)}")
for p, a, b in unsolved:
    print(f"  p={L.label(p)}  below  {L.label(a)} v {L.label(b)}")

ext, emb, steps = partial_biatomization(L)

print()
print(f"extension: {L.n} -> {ext.n} elements in {len(steps)} steps")
for i, step in enumerate(steps):
    row = step.as_dict()
    print(f"  step {i}: apex={row['apex']}  new atom={row['new_atom']}")

print("  atomistic:", is_atomistic(ext))
print("  jsd:      ", is_join_semidistributive(ext))
print("  embedding:", emb.preserved.as_dict())

# every original problem is now solvable inside the extension
solved = all(
    solve_problem_instance(ext, p, a, b) is not None
    for p, a, b in problems[:, :3].tolist()
)
print("  all original problems solved:", solved)

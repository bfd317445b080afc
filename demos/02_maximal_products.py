"""
Maximal part products over restricted partitions
================================================

"""

# For partitions of n using only allowed part sizes, which one has the
# largest product of parts?  That maximum M(n) controls the growth of
# the coefficient tables, so the package computes it exactly, together
# with every partition that attains it.

from eulerprod import (
    closed_form_max,
    exceptions_from_spec,
    max_product,
    max_product_bruteforce,
    max_product_values,
)

# Unrestricted case first.  The classical answer: use parts 3 and 2
# only, never 1, never anything above 4.
E = exceptions_from_spec("none")
for n in (6, 7, 10):
    r = max_product(E, n)
    parts = [m.parts for m in r.maximizers]
    print(f"n = {n}: M = {r.product}, maximizers {parts}")

# n = 7 has two maximizers, (3, 2, 2) and (4, 3).  The report carries
# the tie structure: uniqueness, the runner-up product, and the
# combinatorial coefficient sum over maximizers.
r = max_product(E, 7)
print("unique:", r.unique, " second best:", r.second_product,
      " coefficient:", r.coefficient)

# A dynamic program produces these; a brute-force enumeration over all
# restricted partitions confirms them on small n.
rb = max_product_bruteforce(E, 7)
print("brute force agrees:", rb == r)

# Excluding parts reshapes the optimum.  With 2 and 4 gone the best
# products lean on 3s and 5s.
E24 = exceptions_from_spec("2,4")
print("M(1..12), parts 2 and 4 excluded:", max_product_values(E24, 12)[1:])

# When the smallest allowed parts fall into a known case, the maximizer
# follows a closed form and no search is needed.  With 2 excluded the
# smallest parts are 1, 3, 4 and then everything from 5 on, and M(n)
# mixes 3s and 4s once n is large enough.
E2 = exceptions_from_spec("2")
r = closed_form_max(E2, 25)
print("closed form at n = 25:", r.product,
      [m.parts for m in r.maximizers])

# The closed form and the dynamic program meet on the same answer.
rd = max_product(E2, 25)
print("dp product matches:", rd.product == r.product)

# Outside its hypotheses the closed form declines rather than guess.
print("declines at n = 23:", closed_form_max(E2, 23) is None)

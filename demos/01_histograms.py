"""
Counting histograms instead of agent tuples
===========================================

Five agents each pick one of three moves.  Writing down who picked what
takes a tuple of five symbols and there are 3^5 = 243 of those.  If the
agents are interchangeable, all that matters is how many picked each
move, and those occupancy vectors are far fewer.
"""

import math

from declift import (
    enumerate_histograms,
    format_histogram_tuple_key,
    histogram_count,
    histogram_multiplicity,
    is_peak_shaped,
    tuple_to_histogram,
)

moves = ("rock", "paper", "scissors")

# the closed form is the stars-and-bars binomial C(n+r-1, r-1)
print("tuples:    ", 3**5)
print("histograms:", histogram_count(5, 3), "= C(7,2) =", math.comb(7, 2))
print()

# every histogram, its key syntax, and how many tuples collapse onto it
total = 0
for h in enumerate_histograms(5, len(moves)):
    mult = histogram_multiplicity(h)
    total += mult
    tag = "  <- everyone agrees" if is_peak_shaped(h) else ""
    print(f"{format_histogram_tuple_key([h]):>9}  covers {mult:3d} tuples{tag}")
print("covered in total:", total)
print()

# collapsing a concrete tuple
witness = ("paper", "rock", "paper", "paper", "scissors")
print(witness, "->", format_histogram_tuple_key([tuple_to_histogram(witness, moves)]))

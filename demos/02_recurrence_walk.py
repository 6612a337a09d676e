"""Walking a characteristic matrix through c -> c +/- 24.

Starting from the stored seed of the semion class c = 1 mod 24, one
reverse step lands on the exact matrix at c = -23 whose fractional first
column rules out that genus; the walk is exactly invertible.  One step
up is the paper's map f_plus, one step down its inverse f_minus, and
``iterate`` composes either any number of times.
"""

from fractions import Fraction

from extremal2.chimat import alpha_beta, iterate, seed_rows

c, chi, h = seed_rows("semion")[0]
print(f"seed: c = {c}, h_ext = {h}, chi = {chi}")

down, h_down = iterate(chi, h, -1)
print(f"c = {c - 24}: h_ext = {h_down}, chi = {down}")
ab = alpha_beta(down)
print(f"  alpha = {ab.alpha}, beta = {ab.beta}")
print(f"  chi_00 = {down.x} is not an integer -> no extremal VOA at c = {c - 24}")

back, h_back = iterate(down, h_down, 1)
assert (back, h_back) == (chi, h), "the two steps are exact inverses"
print("f_plus undoes f_minus exactly")

# six steps up and back, all exact
far, h_far = iterate(chi, h, 6)
print(f"c = {c + 144}: chi_00 = {far.x}")
assert iterate(far, h_far, -6) == (chi, h)

# the diagonal shortcut used for the positive-side bound
from extremal2.chimat import g_closed

state, h_state = chi, h
for n in range(4):
    assert g_closed(chi.x, chi.w, h, n) == (state.x, state.w, h_state)
    state, h_state = iterate(state, h_state, 1)
print("closed-form diagonal iterate matches stepping, n <= 3:",
      g_closed(chi.x, chi.w, h, 3))

# Fraction interop: everything stays rational
assert isinstance(down.x, Fraction)

"""Exact q-series: the integer modular forms behind the character recursion.

Every coefficient is a Python int; nothing here ever touches a float.  The
ODE itself reads (J - 240)/E and 1/E from ``ode_series``, built from the
same integer lists; J and E are read back off those two series.
"""

from extremal2.exactq import _div, _mul, delta, eisenstein, ode_series


def show(coeffs: list[int], lead: int = 0) -> str:
    """coeffs[k] is the coefficient of q^(lead + k), known below q^(lead + len)."""
    powers = {0: "", 1: "*q"}
    parts = [f"{c}{powers.get(n, f'*q^{n}')}" for n, c in enumerate(coeffs, lead) if c]
    return f"{' + '.join(parts) or '0'} + O(q^{lead + len(coeffs)})"


print("E4 =", show(eisenstein(4, 6)))
print("E6 =", show(eisenstein(6, 6)))

d = delta(8)
print("Delta = (E4^3 - E6^2)/1728 =", show(d))
assert all(isinstance(c, int) for c in d), "Delta has integer coefficients"

# a = (J - 240)/E and b = 1/E from q^0 on; b starts at q, so qE = 1/(b/q)
a, b = ode_series(7)
script_e = _div([1] + [0] * 5, b[1:])  # qE, that is E from q^-1 on
j = _mul(a, script_e)  # qJ - 240q
j[1] += 240
print("J =", show(j, -1))
print("E =", show(script_e, -1))

# the anchors every later computation leans on
assert j[:3] == [1, 0, 196884]
assert script_e[:3] == [1, -240, -141444]

# 1/E is b itself, from q on
print("1/E =", show(b[1:], 1))
print("E * (1/E) =", show(_mul(script_e, b[1:])))

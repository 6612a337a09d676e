"""The binary-code certificates behind the c = 33 realization.

Everything is brute force over small spans: Reed-Muller codes of length
16 and 64, dual codes, weight enumerators, and the coset computation
whose minimum weight 28 certifies a twisted module of top weight
28/16 = 7/4.
"""

from extremal2.reedmuller import (
    XI_ALPHA,
    construction_xi,
    lemma6_scan,
    min_weight_rm46,
    rm_codes,
    verify_theorem1_xi,
    weight_enumerator,
    word_str,
)

codes = rm_codes()
print("dimensions:",
      f"RM(1,4) = {codes.rm14.dim}, RM(2,4) = {codes.rm24.dim},",
      f"RM(1,6) = {codes.rm16.dim}, RM(4,6) = {codes.rm46.dim}")
print("RM(1,6) weight enumerator:", weight_enumerator(codes.rm16))
print("RM(2,4) weight enumerator:", weight_enumerator(codes.rm24))

mw, witness = min_weight_rm46()
print(f"RM(4,6) minimum weight {mw}, witness: {word_str(witness, 64)}")

sweep = lemma6_scan()
print(f"weight-6 words of RM(2,4): {sweep.weight6_count}; "
      f"every coset enumerator equals {sweep.coset_enumerator}: "
      f"{sweep.all_cosets_match}")

cert = verify_theorem1_xi()
print(f"alpha = {word_str(XI_ALPHA, 16)} (weight {cert.alpha_weight}, in RM(2,4): "
      f"{cert.alpha_in_rm24})")
print(f"xi = {word_str(construction_xi(), 64)}")
print(f"conditions (i)-(iv) all hold: "
      f"{cert.conditions.cond_i and cert.conditions.cond_ii and cert.conditions.cond_iii and cert.conditions.cond_iv}")
print(f"minimum coset weight {cert.min_coset_weight} -> top weight {cert.top_weight}")

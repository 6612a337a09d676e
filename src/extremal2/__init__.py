"""Exact classification of extremal two-module VOA characters.

The pipeline: integer modular-form q-series (`exactq`), the rank-two category
catalog and genus arithmetic (`genus`), the c -> c +/- 24 recurrence on
characteristic matrices (`chimat`), effective central-charge bounds
(`bounds`), the classification sweep producing the fifteen surviving
genera (`classify`), the differential-equation character expansion
(`charser`), and the GF(2) Reed-Muller certificates behind the c = 33
realization (`reedmuller`).  ``python -m extremal2`` exposes it all on
the command line.
"""

from .bounds import (
    BoundReport,
    c_extremes,
    nmax_negative,
    nmax_positive,
    silly_estimate_holds,
)
from .charser import (
    CharacterVector,
    FundamentalExpansion,
    character_vector,
    d_coefficients,
    expand,
    holomorphic_sum_check,
)
from .chimat import (
    AlphaBeta,
    CharMatrix,
    alpha_beta,
    f_minus,
    f_plus,
    g_closed,
    g_step,
    iterate,
    k_closed,
    k_step,
    seed,
)
from .classify import (
    ClassificationRow,
    candidates,
    chi_of,
    classify_all,
    first_column_admissible,
)
from .exactq import delta, eisenstein, j_and_script_e
from .genus import (
    CATALOG,
    CategoryInfo,
    Genus,
    category,
    ell_general,
    genus,
    h_ext,
    modular_rep_check,
)
from .reedmuller import (
    LinearCode,
    lemma5_check,
    lemma6_scan,
    min_weight_rm46,
    rm46_member,
    rm_codes,
    verify_theorem1_xi,
    weight_enumerator,
    word,
    word_str,
)

__version__ = "1.0.0"

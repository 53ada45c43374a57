"""Exact Frobenius-Schur indicators of group-theoretical fusion categories
built from pairs of permutation groups."""

from .catalog import VerificationReport, claim_ids, run_all, verify
from .chartab import (
    Character,
    CharacterTable,
    ClassData,
    character_table,
    conjugacy_classes,
    induce,
    inner_product,
    nu_classical,
)
from .cli import GroupSpec, main, parse_group_spec
from .config import RunConfig, load_config
from .cosets import (
    DoubleCoset,
    DoubleCosetDecomposition,
    canonical_normal_form,
    double_cosets,
    is_null_coset,
    left_coset_reps,
    normal_form_census,
    normal_form_with_multiplier,
    stabilizer,
    sym_census,
)
from .cyclo import Cyclotomic
from .indicators import (
    IndicatorEntry,
    IndicatorReport,
    InvarianceCheck,
    ReductionCheck,
    category_scan,
    index_two_overgroup,
    invariance_check,
    nu2_extension,
    nu2_induced,
    nu2_squares,
    nu2_stab,
    nu_m,
    nu_twisted,
    reduction_check,
    two_power_rep,
    vanishing_witness,
)
from .perm import (
    BoundExceeded,
    PermGroup,
    Permutation,
    alt,
    alt_embed,
    conjugate,
    cyclic,
    sym,
    sym_embed,
    sym_prime,
    tilde_sym,
    trivial,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded", "Character", "CharacterTable", "ClassData", "Cyclotomic",
    "DoubleCoset", "DoubleCosetDecomposition", "GroupSpec", "IndicatorEntry",
    "IndicatorReport", "InvarianceCheck", "PermGroup", "Permutation",
    "ReductionCheck", "RunConfig", "VerificationReport", "alt", "alt_embed",
    "canonical_normal_form", "category_scan", "character_table", "claim_ids",
    "conjugacy_classes", "conjugate", "cyclic", "double_cosets",
    "index_two_overgroup", "induce", "inner_product", "invariance_check",
    "is_null_coset", "left_coset_reps", "load_config", "main",
    "normal_form_census", "normal_form_with_multiplier", "nu2_extension",
    "nu2_induced", "nu2_squares", "nu2_stab", "nu_classical", "nu_m",
    "nu_twisted", "parse_group_spec", "reduction_check", "run_all",
    "stabilizer", "sym", "sym_census", "sym_embed", "sym_prime", "tilde_sym",
    "trivial", "two_power_rep", "vanishing_witness", "verify",
]

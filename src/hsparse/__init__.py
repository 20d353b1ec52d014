"""Block-sparse recovery toolkit.

Signals live in a space split into subspaces (contiguous coordinate blocks);
sparsity counts occupied blocks.  The package computes the coherence and
spark quantities governing recoverability, runs three recovery algorithms
(exhaustive fewest-blocks search, mixed-norm relaxation, greedy pursuit),
builds structured sampling operators (multi-coset rows of a DFT,
identity/Fourier pairs, random block dictionaries), and audits kernel and
two-dictionary uncertainty bounds.
"""

from .blocks import (RANK_TOL, ZERO_BLOCK_TOL, BlockDictionary,
                     BlockStructure, BlockVector, ConcentrationCertificate,
                     NumericalAnomaly, best_concentration_set, block_least_squares,
                     block_sigma, concentration_epsilon, cross_block_norm,
                     cross_norm_table, h0_norm, h1_norm, uniform_structure)
from .coherence import (CoherenceReport, block_coherences, coherence_report,
                        hilbert_coherence, mutual_hilbert_coherence,
                        spark_exhaustive)
from .models import (CorrelationSequence, CrossCorrelationTable, MultiCosetSpec,
                     complex_standard_normal, dirichlet_coherence, fourier_basis,
                     identity_basis, identity_dft_pair, multicoset_matrix,
                     random_block_dictionary, si_mutual_coherence)
from .recovery import (RecoveryResult, guarantee_check, hbp_solve, hbp_solve_batch,
                       homp, homp_batch, hp0_exhaustive, hp0_exhaustive_batch)
from .uncertainty import (GupAudit, KernelBound, gup_audit, kernel_sample,
                          kernel_uncertainty_audit, picket_fence)

__version__ = "0.1.0"

__all__ = [
    "BlockDictionary", "BlockStructure", "BlockVector",
    "CoherenceReport", "ConcentrationCertificate", "CorrelationSequence",
    "CrossCorrelationTable", "GupAudit", "KernelBound", "MultiCosetSpec",
    "NumericalAnomaly", "RecoveryResult", "RANK_TOL", "ZERO_BLOCK_TOL",
    "best_concentration_set", "block_coherences", "block_least_squares",
    "block_sigma", "coherence_report", "complex_standard_normal",
    "concentration_epsilon", "cross_block_norm", "cross_norm_table",
    "dirichlet_coherence", "fourier_basis", "guarantee_check", "gup_audit",
    "h0_norm", "h1_norm", "hbp_solve", "hbp_solve_batch", "hilbert_coherence",
    "homp", "homp_batch", "hp0_exhaustive", "hp0_exhaustive_batch", "identity_basis",
    "identity_dft_pair", "kernel_sample",
    "kernel_uncertainty_audit", "multicoset_matrix",
    "mutual_hilbert_coherence", "picket_fence", "random_block_dictionary",
    "si_mutual_coherence", "spark_exhaustive", "uniform_structure",
]

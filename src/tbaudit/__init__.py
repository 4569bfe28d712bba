"""Partition-trapdoor auditor for translation-based block ciphers.

The package splits into a GF(2) substrate (gf2), per-component analyses
(sbox, mixing), the cipher model with chain search and the audit (cipher),
permutation-group cross-checks (groups), and the operator plumbing
(presets, specfile, report, cli).
"""

from .errors import (CapExceeded, IntransitiveError, SingularMatrixError,
                     SpecError)
from .gf2 import (BitMatrix, BrickLayout, Subspace, Wall, as_wall,
                  gaussian_binomial, rref, subspace_image)
from .sbox import (SBox, SBoxReport, analyze_sbox, anti_invariance_order, ddt,
                   differential_uniformity, has_linear_component,
                   is_strongly_anti_invariant, min_derivative_image)
from .mixing import (LayerFamily, MixingLayer, family_strongly_proper,
                     is_proper, is_strongly_proper, wall_trace)
from .cipher import (AuditVerdict, LinearPartition, PartitionChain, Round,
                     TbCipher, audit, build_present_toy_cipher,
                     build_rotation_cipher, build_secure_toy_cipher,
                     chain_holds_under_key, check_lemma_containment, encrypt,
                     encryption_table, find_trapdoor_chains, partition_image,
                     round_table, substitution_table, verify_chain)
from .groups import (BlockSystem, GeneratorSet, Perm,
                     invariant_linear_partition_search, is_primitive,
                     minimal_block, minimal_invariant_partitions,
                     partition_block_system, sample_ind_generators,
                     sample_round_generators)
from .specfile import cipher_to_spec, load_cipher, parse_cipher
from .report import (audit_report, chains_report, dumps_report, mixing_report,
                     sbox_report, verify_report)

__all__ = [
    "CapExceeded", "IntransitiveError", "SingularMatrixError", "SpecError",
    "BitMatrix", "BrickLayout", "Subspace", "Wall", "as_wall",
    "gaussian_binomial", "rref", "subspace_image",
    "SBox", "SBoxReport", "analyze_sbox", "anti_invariance_order", "ddt",
    "differential_uniformity", "has_linear_component",
    "is_strongly_anti_invariant", "min_derivative_image",
    "LayerFamily", "MixingLayer", "family_strongly_proper", "is_proper",
    "is_strongly_proper", "wall_trace",
    "AuditVerdict", "LinearPartition", "PartitionChain", "Round", "TbCipher",
    "audit", "build_present_toy_cipher", "build_rotation_cipher",
    "build_secure_toy_cipher", "chain_holds_under_key",
    "check_lemma_containment", "encrypt", "encryption_table",
    "find_trapdoor_chains", "partition_image", "round_table",
    "substitution_table", "verify_chain",
    "BlockSystem", "GeneratorSet", "Perm", "invariant_linear_partition_search",
    "is_primitive", "minimal_block", "minimal_invariant_partitions",
    "partition_block_system", "sample_ind_generators",
    "sample_round_generators",
    "cipher_to_spec", "load_cipher", "parse_cipher",
    "audit_report", "chains_report", "dumps_report", "mixing_report",
    "sbox_report", "verify_report",
]

__version__ = "0.1.0"

"""Partition-trapdoor auditor for translation-based block ciphers.

The package splits into a GF(2) substrate (gf2), per-component analyses
(sbox, mixing), the cipher model with chain search and the audit (cipher),
permutation-group cross-checks (groups), and the operator plumbing
(presets, specfile, report, cli).

The package re-exports nothing: import from the modules
(``from tbaudit.cipher import audit``), each of which states its public API
in its ``__all__``.
"""

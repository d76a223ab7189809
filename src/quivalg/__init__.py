"""Exact workbench for monomial bound quiver algebras.

Computes dominant dimension via minimal injective coresolutions, detects
Nakayama and QF-2 structure, builds endomorphism algebras of
generator-cogenerators over Nakayama algebras, and verifies the
classification of monomial algebras with the double centraliser property
exhaustively on bounded corpora.
"""

__version__ = "0.1.0"

"""Exact growth analysis of finite sets in groups.

Symmetry sets, product-set statistics, the iterative shrinking
construction of a symmetric identity neighbourhood S with S^k contained in
A^2 A^-2, and independently verifiable certificates for all of it.
"""

__version__ = "0.1.0"

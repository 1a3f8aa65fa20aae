"""Exact desk-scale toolkit for additive combinatorics over F_2^n.

The package re-exports nothing: import from the submodules (`f2lab.core`,
`f2lab.wht`, ...), so that a command loads only the modules it runs.
"""

__version__ = "0.1.0"

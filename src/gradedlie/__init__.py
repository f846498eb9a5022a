"""Exact-arithmetic engine for graded complex semisimple Lie algebras.

Each public name is imported from its own module, for example
``from gradedlie.chevalley import build_algebra``; importing the package loads
no module of it.
"""

__version__ = "0.1.0"

"""Fixture package for the worxlint planted-violation tests.

Layer map used by the tests: lib=0, mid=1, app=2, srv=2, facade=3.
Each WORX rule has exactly one violation planted somewhere in this
tree; every other line is deliberately clean so the suite can assert
exact ``rule:path:line`` output.
"""

VERSION = "1.0"

__all__ = ["VERSION"]

"""Parametrized 2-factors in the middle layer of the odd-dimensional cube."""

from .bitcube import format_sequence, parse_sequence
from .construct import build
from .analysis import spectrum, verify_two_factor

__all__ = [
    "build",
    "format_sequence",
    "parse_sequence",
    "spectrum",
    "verify_two_factor",
]

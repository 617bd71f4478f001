"""Exception types shared across the package, and the dense-size guard."""

import sys

# Entries of the largest root or squashed table, or qudit statevector, built.
SIZE_GUARD = 1 << 26
# Bytes of the largest exact table built: SIZE_GUARD entries of int64.
BYTES_GUARD = SIZE_GUARD * 8
# The fold table and the fold circuit stop at 20 bits and 13 qubits.
FOLD_TABLE_GUARD = 1 << 20
FOLD_CIRCUIT_GUARD = 1 << 13


class PolySampleError(Exception):
    """Base class for all package-specific errors."""


class SizeGuardError(PolySampleError):
    """An operation was rejected because it exceeds a desk-scale size guard.

    Guards are checked arithmetically before any large allocation happens,
    so hitting one is cheap. The CLI maps this to exit status 3.
    """


def check_size(what: str, entries: int, limit: int = SIZE_GUARD) -> None:
    """Raise SizeGuardError before a dense object of more than ``limit`` entries is built."""
    if entries > limit:
        raise SizeGuardError(f"{what} of {entries} entries exceeds the size guard {limit}")


def check_bytes(what: str, nbytes: int, limit: int = BYTES_GUARD) -> None:
    """Raise SizeGuardError before an object estimated at more than ``limit`` bytes is built."""
    if nbytes > limit:
        raise SizeGuardError(f"{what} of about {nbytes} bytes exceed the size guard {limit} bytes")


def check_digits(what: str, value: int) -> None:
    """Raise SizeGuardError before an integer that ``str`` would refuse is written.

    Python 3.11+ raises ValueError when converting an int of more decimal
    digits than ``sys.get_int_max_str_digits()`` (0: no limit) to text.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and abs(value) >= 10**limit:
        raise SizeGuardError(f"{what} has more than {limit} decimal digits, the int-to-str limit")


class InvalidMonomialError(PolySampleError, ValueError):
    """A monomial mask violates its family's structural invariant."""


class ParityError(PolySampleError, ValueError):
    """An integer assignment violates the value-parity constraint v_i = k (mod 2)."""


class ShapeMismatchError(PolySampleError, ValueError):
    """Two tables (or a table and a query) disagree on radix or length."""


class NumericalCheckError(PolySampleError):
    """An internal exactness or tolerance self-check failed.

    Raised when a constructed object contradicts an identity it is supposed
    to satisfy (table normalization, transform unitarity, ...). This signals
    a bug in the inputs or the library, never an expected runtime condition.
    """

"""Shared exception types."""


class CertificateError(ArithmeticError):
    """An exact certificate the engine checks on its own results failed."""


class SizeCapError(Exception):
    """A requested computation would exceed a configured size cap."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap

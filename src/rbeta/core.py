"""Shared small types: tolerances, verification records, complex parsing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair; at least one must be positive."""

    abs: float = 0.0
    rel: float = 0.0

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs == 0 and self.rel == 0:
            raise ValueError("at least one of abs, rel must be positive")


@dataclass
class VerificationRecord:
    """One identity check: both sides, gaps, tolerance and verdict."""

    identity_id: str
    inputs: Dict[str, Any]
    lhs: complex
    rhs: complex
    abs_gap: float
    rel_gap: float
    tol: Tolerance
    passed: bool
    runtime_ms: float = 0.0

    @classmethod
    def compare(cls, identity_id: str, inputs: Dict[str, Any], lhs: complex,
                rhs: complex, tol: Tolerance) -> "VerificationRecord":
        lhs = complex(lhs)
        rhs = complex(rhs)
        if all(math.isfinite(v) for v in (lhs.real, lhs.imag, rhs.real, rhs.imag)):
            abs_gap = abs(lhs - rhs)
            scale = max(abs(lhs), abs(rhs))
            rel_gap = abs_gap / scale if scale > 0 else 0.0
        else:
            abs_gap = rel_gap = math.inf
        passed = abs_gap <= tol.abs or rel_gap <= tol.rel
        return cls(identity_id, inputs, lhs, rhs, abs_gap, rel_gap, tol, passed)


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'bi', '-i' style complex literals (i or j suffix)
    by Python's complex() grammar, without its '_' digit separators,
    parentheses and 'J' suffix.  A literal that overflows to inf, such as
    '1e400', is refused, and so are inf and nan."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    refused = ValueError(f"cannot parse complex number {text!r}")
    if any(c in s for c in "_()J"):
        raise refused
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise refused from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex number {text!r} is not finite")
    return z


def parse_complex_list(text: str) -> tuple:
    return tuple(parse_complex(p) for p in text.split(",") if p.strip() != "")


def format_complex(z: complex, digits: int = 15) -> str:
    z = complex(z)
    re_s = f"{z.real:.{digits}g}"
    im = z.imag
    if im == 0:
        return re_s
    sign = "+" if im >= 0 else "-"
    return f"{re_s}{sign}{abs(im):.{digits}g}i"

"""JSON codecs, canonical digests, and catalog files.

All interchange is UTF-8 JSON with sorted keys; the digest of a brace is the
SHA-256 of its canonical JSON, so identical tables always hash identically.
A permutation matrix is written as its dimension and the sorted positions of
its 1 entries.
"""

from __future__ import annotations

import hashlib
import json

from .braces import SkewBrace, YBMap, validate_brace
from .errors import ValidationFailure
from .groups import validate_group
from .matrices import ExactMatrix


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _check_declared(obj: dict, key: str, actual: int, message: str) -> None:
    """A declared size ("n" or "count"), when present, must be an int equal to ``actual``."""
    if key in obj and (type(obj[key]) is not int or obj[key] != actual):
        raise ValidationFailure("parse", obj[key], message)


def encode_brace(b: SkewBrace) -> dict:
    return {
        "n": b.n,
        "add": [list(row) for row in b.add.table],
        "mul": [list(row) for row in b.mul.table],
    }


def decode_brace(obj) -> SkewBrace:
    if not isinstance(obj, dict) or "add" not in obj or "mul" not in obj:
        raise ValidationFailure("parse", None, "expected an object with 'add' and 'mul' tables")
    add = validate_group(obj["add"])
    mul = validate_group(obj["mul"])
    b = validate_brace(add, mul)
    _check_declared(obj, "n", b.n, "declared order does not match table size")
    return b


def brace_digest(b: SkewBrace) -> str:
    return hashlib.sha256(canonical_json(encode_brace(b)).encode("utf-8")).hexdigest()


def encode_ybmap(m: YBMap) -> dict:
    return {
        "n": m.n,
        "sigma": [list(row) for row in m.sigma],
        "tau": [list(row) for row in m.tau],
    }


def encode_permutation_matrix(m: ExactMatrix) -> dict:
    """A matrix whose entries are all 1, as {"dim", "entries": sorted [row, col] positions}."""
    return {"dim": m.dim, "entries": [list(pos) for pos in sorted(m.coeffs)]}


def encode_catalog(order: int, skew: bool, braces: list[SkewBrace]) -> dict:
    return {
        "version": 1,
        "order": order,
        "skew": skew,
        "count": len(braces),
        "braces": [encode_brace(b) for b in braces],
    }


def decode_catalog(obj) -> list[SkewBrace]:
    if not isinstance(obj, dict) or "braces" not in obj:
        raise ValidationFailure("parse", None, "expected a catalog with a 'braces' list")
    if not isinstance(obj["braces"], list):
        raise ValidationFailure("parse", None, "catalog 'braces' must be a list")
    braces = [decode_brace(rec) for rec in obj["braces"]]
    _check_declared(obj, "count", len(braces), "catalog count disagrees with record list")
    return braces


def load_subjects(obj) -> list[SkewBrace]:
    """Accept either a single brace object or a catalog file."""
    if isinstance(obj, dict) and "braces" in obj:
        return decode_catalog(obj)
    return [decode_brace(obj)]

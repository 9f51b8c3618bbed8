"""Group-spec documents: parsing, validation, and group construction.

A spec is a single JSON object:

    {
      "name": "GL2(F3)",
      "kind": "matrix",                     # or "permutation"
      "field": {"p": 3, "k": 1},            # matrix kind only; k > 1 adds
                                            #   "modulus": [c0, .., ck]
      "degree": 2,                          # matrix size / permutation domain
      "generators": [[[1,1],[0,1]], [[0,1],[1,0]]]
    }

Matrix entries are field-element indices (residues mod p for k = 1, base-p
digit encodings otherwise); permutation generators are image arrays.  Every
integer field must be a JSON integer (true and false are rejected), and the
field order p^k may not exceed 2^20.
The parser builds a matrix spec's field once, as `GroupSpec.field` (its
modulus reduced mod p), and `GroupSpec.generator_elements` is the one place
generators become group elements.  The parse's singular check inverts each
matrix generator once; `generator_elements` wraps the validated data, so
`build_group` inverts it only once more, for the closure's seeds.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass
from importlib import resources
from itertools import chain

from .errors import GroupSpecParseError, GroupSpecValidationError
from .fields import MAX_FIELD_ORDER, Field, field_create, is_prime
from .groups import (
    CLOSURE_CAP,
    FiniteGroup,
    GroupElement,
    MatrixCarrier,
    group_generate,
    is_int,
    matrix_element,
    permutation_element,
)


MAX_SPEC_BYTES = 1 << 20  # the largest spec file `load_group_spec` reads


@dataclass(frozen=True)
class GroupSpec:
    """A validated spec; `field` is the built field of a matrix spec, None
    for a permutation spec."""

    name: str
    kind: str
    field: Field | None
    degree: int
    generators: tuple

    def generator_elements(self) -> list[GroupElement]:
        """The generators as group elements, in spec order.  Matrix rows are
        wrapped as they are: the parse has already refused singular ones."""
        if self.kind == "permutation":
            return [permutation_element(g) for g in self.generators]
        carrier = MatrixCarrier(self.field, self.degree)
        return [GroupElement(carrier, tuple(chain.from_iterable(g))) for g in self.generators]


def _fail(path: str, message: str):
    raise GroupSpecValidationError(f"{path}: {message}")


def parse_group_spec(document: str) -> GroupSpec:
    """Parse and validate a spec document, naming the offending field on error."""
    try:
        obj = json.loads(document)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
        raise GroupSpecParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise GroupSpecParseError("top level must be a single object")

    name = obj.get("name")
    if not isinstance(name, str) or not name:
        _fail("name", "required non-empty string")
    kind = obj.get("kind")
    if kind not in ("matrix", "permutation"):
        _fail("kind", "must be 'matrix' or 'permutation'")
    degree = obj.get("degree")
    if not is_int(degree) or degree < 1:
        _fail("degree", "required integer >= 1")
    gens = obj.get("generators")
    if not isinstance(gens, list) or not gens:
        _fail("generators", "required non-empty array")

    if kind == "permutation":
        if obj.get("field") is not None:
            _fail("field", "permutation specs take no field")
        for gi, gen in enumerate(gens):
            if not isinstance(gen, list) or len(gen) != degree:
                _fail(f"generators[{gi}]", f"image array of length {degree} required")
            if not all(is_int(x) for x in gen) or sorted(gen) != list(range(degree)):
                _fail(f"generators[{gi}]", "not a permutation of 0..degree-1")
        return GroupSpec(name, kind, None, degree, tuple(tuple(g) for g in gens))

    fobj = obj.get("field")
    if not isinstance(fobj, dict):
        _fail("field", "required object for matrix specs")
    p, k = fobj.get("p"), fobj.get("k", 1)
    if not is_int(p) or p < 2:
        _fail("field.p", "required integer >= 2")
    if not is_int(k) or k < 1:
        _fail("field.k", "required integer >= 1")
    # before is_prime, whose trial division would stall on a huge p; k > 20
    # already gives p^k >= 2^21, and k <= 20 keeps p**k cheap
    if k > 20 or p**k > MAX_FIELD_ORDER:
        _fail("field", f"order p^k must be at most {MAX_FIELD_ORDER}")
    if not is_prime(p):
        _fail("field.p", f"{p} is not prime")
    modulus = fobj.get("modulus")
    if modulus is not None and (
        not isinstance(modulus, list) or not all(is_int(c) for c in modulus)
    ):
        _fail("field.modulus", "must be an integer array")
    try:
        field = field_create(p, k, tuple(modulus) if modulus is not None else None)
    except Exception as exc:
        _fail("field", str(exc))
    order = field.order
    norm_gens = []
    for gi, gen in enumerate(gens):
        if not isinstance(gen, list) or len(gen) != degree:
            _fail(f"generators[{gi}]", f"{degree} rows required")
        for ri, row in enumerate(gen):
            if not isinstance(row, list) or len(row) != degree:
                _fail(f"generators[{gi}][{ri}]", f"row of length {degree} required")
            for ci, x in enumerate(row):
                if not is_int(x) or not 0 <= x < order:
                    _fail(
                        f"generators[{gi}][{ri}][{ci}]",
                        f"field index in [0, {order}) required",
                    )
        try:
            matrix_element(field, gen)
        except ValueError as exc:
            _fail(f"generators[{gi}]", str(exc))
        norm_gens.append(tuple(tuple(row) for row in gen))
    return GroupSpec(name, kind, field, degree, tuple(norm_gens))


def build_group(spec: GroupSpec, cap: int = CLOSURE_CAP) -> FiniteGroup:
    """Generate the finite group described by a validated spec."""
    return group_generate(spec.generator_elements(), cap=cap, name=spec.name)


def _regular_file_opener(path, flags: int) -> int:
    """Open without blocking and refuse anything but a regular file, so a
    FIFO with no writer, a device such as /dev/zero or a directory is
    refused at once rather than waited on or read without end."""
    fd = os.open(path, flags | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise GroupSpecParseError(f"cannot read {path}: not a regular file")
    except BaseException:
        os.close(fd)
        raise
    return fd


def load_group_spec(path) -> GroupSpec:
    """Read and parse a spec file of at most MAX_SPEC_BYTES bytes.  Only a
    regular file is opened, and one byte past the budget is read and no
    more, so no input is read until memory runs out."""
    try:
        with open(path, "rb", opener=_regular_file_opener) as handle:
            data = handle.read(MAX_SPEC_BYTES + 1)
        if len(data) > MAX_SPEC_BYTES:
            raise GroupSpecParseError(f"{path} is larger than {MAX_SPEC_BYTES} bytes")
        document = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise GroupSpecParseError(f"cannot read {path}: {reason}") from exc
    return parse_group_spec(document)


CORPUS_NAMES = ("s3", "d4", "q8", "s4", "gl2_f2", "gl2_f3", "gl3_f2")


def corpus_spec(name: str) -> GroupSpec:
    """One of the bundled group specs by short name."""
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus spec {name!r}; have {CORPUS_NAMES}")
    text = resources.files("commprob").joinpath(f"corpus/{name}.json").read_text("utf-8")
    return parse_group_spec(text)


def corpus_group(name: str) -> FiniteGroup:
    return build_group(corpus_spec(name))

"""Line-oriented model files.

Sections are headed by ``[variables]``, ``[parameters]``, ``[type]``,
``[matrix]``, ``[euler]``, ``[hyperplanes]``, ``[samples]``,
``[supplied]``.  Matrix rows are comma-separated expressions, one row
per line.  ``#`` starts a comment.  The format is hand-writable,
diff-friendly and round-trips through :func:`format_model`.

Input is checked here, where it enters: a keyed line of ``[type]``, of
``[euler]`` or of ``[supplied]`` takes only its section's keys, each
once, with integer values.  Every error in a file names its line; the
matrix entries, samples and hyperplane forms, which are read later,
name theirs too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .detmodel import DeterminantalType, PresentationMatrix
from .errors import ParseError, PreconditionError, ValidationError
from .genericity import Hyperplane
from .invariants import ChiData
from .poly import VariableSet, parse_polynomial, poly_to_str

_SECTIONS = (
    "variables",
    "parameters",
    "type",
    "matrix",
    "euler",
    "hyperplanes",
    "samples",
    "supplied",
)

_STRATUM_LINE = re.compile(r"^stratum\s+(\d+)\s*:\s*(.*)$")


class ModelFile(NamedTuple):
    """Parsed model file: the matrix data plus the optional sections.

    The default of ``euler`` and ``supplied`` is an empty read-only
    mapping, so the records that share it cannot change it."""

    variables: tuple
    parameters: tuple
    rows: int
    cols: int
    t: int
    matrix: tuple  # row-major tuples of expression strings
    matrix_lines: tuple = ()  # source line of each matrix row, for errors
    euler_reduced: bool = False
    euler: dict = MappingProxyType({})  # stratum -> (chi_stab, chi_section)
    hyperplanes: tuple = ()
    hyperplane_lines: tuple = ()  # source line of each form, for errors
    samples: tuple = ()  # tuples of (name, Fraction) pairs
    sample_lines: tuple = ()  # source line of each sample, for errors
    supplied: dict = MappingProxyType({})  # stratum -> {e_pair, polar}

    def variable_set(self):
        return VariableSet(self.variables, self.parameters)

    def chi_data(self):
        return {
            s: ChiData.from_input(a, b, self.euler_reduced)
            for s, (a, b) in self.euler.items()
        }


def _parse_fraction(text, line_no):
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:\s*/\s*(\d+))?", text)
    if not m:
        raise ParseError(f"expected a rational number, got {text!r}", line=line_no)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", line=line_no)
    return Fraction(num, den)


def _parse_int(text, line_no):
    text = text.strip()
    if not re.fullmatch(r"-?\d+", text):
        raise ParseError(f"expected an integer, got {text!r}", line=line_no)
    return int(text)


def _parse_assignments(text, line_no, given=()):
    """name -> value text for each ``name = value`` on a line.  A name
    repeated on the line, or already in ``given`` (the names of earlier
    lines that set the same keys), is a ParseError at this line."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ParseError(f"expected name = value, got {piece!r}", line=line_no)
        name, value = piece.split("=", 1)
        name = name.strip()
        if name in out or name in given:
            raise ParseError(f"key {name!r} repeats", line=line_no)
        out[name] = value.strip()
    return out


def _int_fields(text, line_no, keys, section, given=()):
    """name -> int for each ``name = value`` on a line of a keyed section.
    A name outside ``keys``, a repeat (as :func:`_parse_assignments`
    finds it) or a value that is not an integer is a ParseError at this
    line."""
    out = {}
    for name, value in _parse_assignments(text, line_no, given).items():
        if name not in keys:
            raise ParseError(f"unknown {section} field {name!r}", line=line_no)
        out[name] = _parse_int(value, line_no)
    return out


def parse_model_file(text) -> ModelFile:
    sections = {}
    headers = {}  # section name -> line of its header
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", line=line_no)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=line_no)
            current = []
            sections[name] = current
            headers[name] = line_no
            continue
        if current is None:
            raise ParseError("content before the first section header", line=line_no)
        current.append((line_no, stripped))

    for required in ("variables", "type", "matrix"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]", line=1)

    names = {"variables": [], "parameters": []}
    seen = set()
    # In file order, so that a repeated name is reported where it repeats.
    for section in sorted(names, key=lambda s: headers.get(s, 0)):
        for line_no, line in sections.get(section, []):
            for name in line.replace(",", " ").split():
                if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
                    raise ParseError(f"bad variable name {name!r}", line=line_no)
                if name in seen:
                    raise ParseError(f"variable name {name!r} repeats", line=line_no)
                seen.add(name)
                names[section].append(name)
    variables, parameters = names["variables"], names["parameters"]

    type_fields = {}
    for line_no, line in sections["type"]:
        type_fields |= _int_fields(line, line_no, ("rows", "cols", "t"), "[type]", type_fields)
    for needed in ("rows", "cols", "t"):
        if needed not in type_fields:
            raise ParseError(f"[type] is missing {needed!r}", line=headers["type"])
    rows, cols, t = type_fields["rows"], type_fields["cols"], type_fields["t"]

    matrix = []
    matrix_lines = []
    for line_no, line in sections["matrix"]:
        row = tuple(cell.strip() for cell in line.split(","))
        if len(row) != cols:
            raise ParseError(
                f"matrix row has {len(row)} entries, expected {cols}", line=line_no
            )
        matrix.append(row)
        matrix_lines.append(line_no)
    if len(matrix) != rows:
        raise ParseError(
            f"matrix has {len(matrix)} rows, expected {rows}", line=headers["matrix"]
        )

    euler_reduced = False
    euler = {}
    settings = {}  # the euler lines that are not stratum lines
    for line_no, line in sections.get("euler", []):
        m = _STRATUM_LINE.match(line)
        if m:
            idx = int(m.group(1))
            if idx in euler:
                raise ParseError(f"euler stratum {idx} repeats", line=line_no)
            fields = _int_fields(m.group(2), line_no, ("chi_stab", "chi_section"), "euler")
            for needed in ("chi_stab", "chi_section"):
                if needed not in fields:
                    raise ParseError(
                        f"euler line for stratum {idx} is missing {needed!r}",
                        line=line_no,
                    )
            euler[idx] = (fields["chi_stab"], fields["chi_section"])
        else:
            fields = _parse_assignments(line, line_no, settings)
            settings.update(fields)
            if "reduced" not in fields or len(fields) != 1:
                raise ParseError(
                    "euler lines are 'reduced = true|false' or "
                    "'stratum N: chi_stab = .., chi_section = ..'",
                    line=line_no,
                )
            value = fields["reduced"].lower()
            if value not in ("true", "false"):
                raise ParseError("reduced must be true or false", line=line_no)
            euler_reduced = value == "true"

    forms = sections.get("hyperplanes", [])

    samples = []
    sample_lines = []
    for line_no, line in sections.get("samples", []):
        point = {}
        for name, value in _parse_assignments(line, line_no).items():
            point[name] = _parse_fraction(value, line_no)
        samples.append(tuple(sorted(point.items())))
        sample_lines.append(line_no)

    supplied = {}
    for line_no, line in sections.get("supplied", []):
        m = _STRATUM_LINE.match(line)
        if not m:
            raise ParseError(
                "supplied lines look like 'stratum N: e_pair = .., polar = ..'",
                line=line_no,
            )
        idx = int(m.group(1))
        if idx in supplied:
            raise ParseError(f"supplied stratum {idx} repeats", line=line_no)
        supplied[idx] = _int_fields(m.group(2), line_no, ("e_pair", "polar"), "supplied")

    return ModelFile(
        variables=tuple(variables),
        parameters=tuple(parameters),
        rows=rows,
        cols=cols,
        t=t,
        matrix=tuple(matrix),
        matrix_lines=tuple(matrix_lines),
        euler_reduced=euler_reduced,
        euler=euler,
        hyperplanes=tuple(form for _, form in forms),
        hyperplane_lines=tuple(line_no for line_no, _ in forms),
        samples=tuple(samples),
        sample_lines=tuple(sample_lines),
        supplied=supplied,
    )


def build_model(mf: ModelFile) -> PresentationMatrix:
    """The model's matrix.  Each sample must name every parameter and
    nothing else; one that does not raises the error ``specialize`` would
    (PreconditionError for a parameter left out, ValidationError for an
    unknown name), with its line, whether or not the command reads
    samples."""
    vars = mf.variable_set()
    n = min(mf.rows, mf.cols)
    k = abs(mf.rows - mf.cols)
    dtype = DeterminantalType(n, k, mf.t)
    entries = []
    for r, row in enumerate(mf.matrix):
        line = mf.matrix_lines[r] if r < len(mf.matrix_lines) else None
        parsed = []
        for cell in row:
            try:
                parsed.append(parse_polynomial(cell, vars))
            except ParseError as exc:
                raise ParseError(
                    f"bad matrix entry {cell!r}: {exc}", line=line
                ) from None
        entries.append(parsed)
    model = PresentationMatrix(dtype, entries, vars)
    for point, line in zip(mf.samples, mf.sample_lines):
        try:
            model._check_sample(dict(point))
        except (PreconditionError, ValidationError) as exc:
            raise type(exc)(f"{exc} (line {line})") from None
    return model


def build_hyperplanes(mf: ModelFile, vars: VariableSet):
    """The hyperplanes of the forms in ``mf``.  A bad form raises its
    error with its line when ``hyperplane_lines`` holds one."""
    out = []
    lines = mf.hyperplane_lines or (None,) * len(mf.hyperplanes)
    for text, line in zip(mf.hyperplanes, lines):
        try:
            out.append(Hyperplane.from_linear_form(parse_polynomial(text, vars), vars))
        except ValidationError as exc:
            if line is None:
                raise
            raise type(exc)(f"{exc} (line {line})") from None
    return out


def load_model_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    return parse_model_file(text)


def format_model(m: PresentationMatrix) -> str:
    """Model-file text for a model (used by the slice command); the
    output re-parses to an equal model."""
    lines = ["[variables]", " ".join(m.vars.ambient)]
    if m.vars.parameters:
        lines += ["", "[parameters]", " ".join(m.vars.parameters)]
    lines += [
        "",
        "[type]",
        f"rows = {m.rows}",
        f"cols = {m.cols}",
        f"t = {m.dtype.t}",
        "",
        "[matrix]",
    ]
    for row in m.entries:
        lines.append(", ".join(poly_to_str(e) for e in row))
    return "\n".join(lines) + "\n"

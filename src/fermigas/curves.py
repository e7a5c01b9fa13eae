"""Sampled universal curves, and the one writer of CSV/JSON tables.

Serialized output is byte-stable across runs: floats are written with 17
significant digits, which round-trips IEEE doubles exactly.
"""

import json

from .errors import DomainError, to_float
from .record import Record

AXIS_LABELS = frozenset({"t", "s", "q", "m", "c", "msd", "density"})
# most samples a table asks linspace for: far above the default 300
MAX_SAMPLES = 1_000_000


def sample_count(name, value) -> int:
    """value as an int; DomainError unless a whole number from 2 to MAX_SAMPLES."""
    n = to_float(name, value, f"an integer from 2 to {MAX_SAMPLES}")
    if not (2.0 <= n <= MAX_SAMPLES and n % 1.0 == 0.0):  # NaN fails both
        raise DomainError(f"{name} must be an integer from 2 to {MAX_SAMPLES}, got {value!r}")
    return int(n)


def _cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def linspace(lo: float, hi: float, n: int) -> list:
    """n >= 2 floats from lo to hi, numpy's linspace bit for bit: lo + i*step,
    ending on hi exactly."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def write_table(fmt, header=(), rows=(), notes=(), doc=None) -> str:
    """One table as text ending in a newline, in fmt "csv" or "json".

    CSV: a ``# name = value`` line per (name, value) note, the header, then
    one line per row, floats to 17 significant digits.  JSON: doc alone,
    indented by two spaces.
    """
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown output format {fmt!r}")
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"# {name} = {value:.17g}" for name, value in notes]
    lines.append(",".join(header))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


class UniversalCurve(Record):
    """Ordered (x, y) table for one of the dimensionless universal figures."""

    x_label: str
    y_label: str
    samples: tuple

    def __post_init__(self):
        if self.x_label not in AXIS_LABELS or self.y_label not in AXIS_LABELS:
            raise DomainError(
                f"curve labels must come from {sorted(AXIS_LABELS)}, "
                f"got ({self.x_label!r}, {self.y_label!r})")
        if len(self.samples) == 0:
            raise DomainError("curve has no samples")
        xs = [x for x, _ in self.samples]
        for a, b in zip(xs, xs[1:]):
            if b <= a:
                raise DomainError(f"curve abscissa {self.x_label} must be strictly increasing, "
                                  f"got {b!r} after {a!r}")

    def to_csv(self) -> str:
        return write_table("csv", (self.x_label, self.y_label), self.samples)

    def to_json_obj(self) -> dict:
        return {
            "x_label": self.x_label,
            "y_label": self.y_label,
            "samples": [[x, y] for x, y in self.samples],
        }

    def to_json(self) -> str:
        return write_table("json", doc=self.to_json_obj())


def parse_csv(text: str) -> UniversalCurve:
    """Round-trip reader for the CSV layout written by to_csv; a line that is not two
    comma-separated fields, or a sample that is not two numbers, is refused by its number
    and text."""
    rows = []
    for number, ln in enumerate(text.splitlines(), 1):
        if ln and not ln.startswith("#"):
            fields = ln.split(",")
            if len(fields) != 2:
                raise DomainError(f"curve line {number} must hold two comma-separated fields, "
                                  f"got {ln!r}")
            if rows:  # a sample: the first line holds the labels
                try:
                    fields = tuple(map(float, fields))
                except ValueError as exc:
                    raise DomainError(f"curve line {number} must hold two numbers, "
                                      f"got {ln!r}") from exc
            rows.append(fields)
    if not rows:
        raise DomainError("empty curve file")
    x_label, y_label = (tok.strip() for tok in rows[0])
    return UniversalCurve(x_label, y_label, tuple(rows[1:]))


"""Report documents and their table/JSON emitters.

A ReportDocument is assembled once by the scenario runner and only formatted
here; emitters never recompute statistics. Tables round to six significant
digits and mark off-support outcomes with a dash; JSON keeps full float
precision so reports round-trip exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .correlation import CorrelationReport
from .errors import ValidationError
from .measure import DensityFunction, DiscreteMeasure, ProductSpace
from .tolerance import PRODUCT_RULE_TOL

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = ["ReportDocument", "emit_report"]

OFF_SUPPORT = "—"


@dataclass
class ReportDocument:
    """Everything a run produces: measures, densities, flags, and notes.

    `scenario` is the scenario as it was run; its echo, the normalized copy
    a JSON report carries, is built only when JSON is asked for. `blocks`
    maps each decomposition's name to the engine's split for it, in report
    order.
    """

    scenario: Scenario
    mode: str
    space: ProductSpace
    joint_measure: DiscreteMeasure
    marginal_1: DiscreteMeasure
    marginal_2: DiscreteMeasure
    product_measure: DiscreteMeasure
    rho_t: DensityFunction
    blocks: dict[str, CorrelationReport]
    flags: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return self._jsonable(np.ndarray.tolist)

    def _jsonable(self, array) -> dict:
        """The JSON document, each float array of the echo passed through
        `array` (see `scenario._echo`)."""
        from .scenario import _echo  # scenario imports this module

        return {
            "schema": "qcorr/report/1",
            "scenario": _echo(self.scenario, array),
            "mode": self.mode,
            "outcomes": [list(point) for point in self.space.points],
            "measures": {
                "joint": _measure_values(self.joint_measure),
                "marginal_1": _measure_values(self.marginal_1),
                "marginal_2": _measure_values(self.marginal_2),
                "product_of_marginals": _measure_values(self.product_measure),
            },
            "total_correlation": _density_values(self.rho_t),
            "decompositions": [
                {
                    "name": name,
                    "source": block.decomposition_source,
                    "size": block.decomposition_size,
                    "classical_product_measure": _measure_values(block.classical_product),
                    "classical_correlation": _density_values(block.rho_c),
                    "entanglement": _density_values(block.rho_e),
                    "classical_correlation_error": block.rho_c_error,
                    "entanglement_error": block.rho_e_error,
                    "product_rule_residual": block.product_rule_residual,
                    "product_rule_pass": block.product_rule_pass,
                }
                for name, block in self.blocks.items()
            ],
            "flags": dict(self.flags),
            "notes": list(self.notes),
        }


def _measure_values(measure: DiscreteMeasure) -> list[float]:
    return measure.as_array().tolist()


def _density_values(rho: DensityFunction | None) -> list[float | None] | None:
    if rho is None:
        return None
    return [None if math.isnan(v) else v for v in rho.as_array().tolist()]


def _fmt(value: float | None) -> str:
    if value is None:
        return OFF_SUPPORT
    return f"{value:.6g}"


def _cells(values: list[float | None] | None, count: int) -> list[str]:
    """Formatted table cells; a density that does not exist is all dashes."""
    if values is None:
        return [OFF_SUPPORT] * count
    return [_fmt(v) for v in values]


def _point_header(point: tuple[str, str]) -> str:
    return f"({point[0]},{point[1]})"


_escape = json.encoder.encode_basestring_ascii

_FLOAT_OR_NONE = {float, type(None)}


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_text(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for dict keys that are
    strings, and for a float ndarray what stdlib writes for its `tolist()`:
    stdlib's type tests and spellings, with one join per container in place
    of its pure-Python chunk generator. No type is both a container and a
    scalar, so testing containers first keeps stdlib's choices."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {float}:
            text = sep.join(map(float.__repr__, obj))
            if "n" in text:  # "nan" or "inf", which stdlib spells otherwise
                text = sep.join(map(_float_text, obj))
        elif kinds == {str}:
            text = sep.join(map(_escape, obj))
        elif kinds <= _FLOAT_OR_NONE:  # a density with points off its support
            text = sep.join(["null" if v is None else _float_text(v) for v in obj])
        elif kinds == {list} and all(v and set(map(type, v)) == {str} for v in obj):
            # the outcomes: lists of labels
            deeper = inner + "  "
            text = sep.join(
                ["[" + deeper + ("," + deeper).join(map(_escape, v)) + inner + "]" for v in obj]
            )
        else:
            text = sep.join([_json_text(v, inner) for v in obj])
        return "[" + inner + text + indent + "]"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        layout = _layout(obj.shape, indent)
        values = obj.ravel().tolist()
        text = layout % tuple(map(float.__repr__, values))
        if "n" in text:  # the layout holds no "n"
            text = layout % tuple(map(_float_text, values))
        return text
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [_escape(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=128)
def _layout(shape: tuple[int, ...], indent: str) -> str:
    """What `_json_text` writes for nested lists of `shape` at `indent`,
    with a `%s` for each entry; a report holds a few shapes, so they are
    cached."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        outer = indent + "  " * depth
        inner = outer + "  "
        if shape[depth]:
            text = "[" + inner + ("," + inner).join([text] * shape[depth]) + outer + "]"
        else:
            text = "[]"
    return text


def emit_report(report: ReportDocument, format: str = "table") -> str:
    """Render a report as fixed-width text or as JSON."""
    if format == "json":
        return _json_text(report._jsonable(np.asarray))
    if format != "table":
        raise ValidationError(f"format must be 'table' or 'json', got {format!r}")
    return _emit_table(report)


def _emit_table(report: ReportDocument) -> str:
    points = report.space.points
    headers = [_point_header(p) for p in points]

    count = len(points)
    rows: list[tuple[str, list[str]]] = [
        ("joint measure", _cells(_measure_values(report.joint_measure), count)),
        ("product of marginals", _cells(_measure_values(report.product_measure), count)),
        ("rho_t (total)", _cells(_density_values(report.rho_t), count)),
    ]
    block_rows = [
        [
            ("classical product", _cells(_measure_values(block.classical_product), count)),
            ("rho_c (classical)", _cells(_density_values(block.rho_c), count)),
            ("rho_e (entanglement)", _cells(_density_values(block.rho_e), count)),
        ]
        for block in report.blocks.values()
    ]

    label_width = max(
        [len(label) for label, _ in rows]
        + [len(label) for entries in block_rows for label, _ in entries]
    ) + 2
    widths = []
    for index, header in enumerate(headers):
        cells = [cells[index] for _, cells in rows]
        cells += [entry[1][index] for entries in block_rows for entry in entries]
        widths.append(max(len(header), *(len(c) for c in cells)) + 2)

    def line(label: str, cells: list[str], indent: str = "") -> str:
        out = f"{indent}{label:<{label_width}}"
        for width, cell in zip(widths, cells):
            out += f"{cell:<{width}}"
        return out.rstrip()

    lines = []
    lines.append(f"scenario: {report.scenario.name}")
    lines.append(f"mode: {report.mode}")
    left = ",".join(report.space.left.labels)
    right = ",".join(report.space.right.labels)
    lines.append(f"outcome space: {{{left}}} x {{{right}}}")
    lines.append("")
    lines.append(line("", headers))
    for label, cells in rows:
        lines.append(line(label, cells))
    lines.append("")
    for index, marginal in ((1, report.marginal_1), (2, report.marginal_2)):
        pairs = zip(marginal.space.labels, _measure_values(marginal))
        lines.append(
            f"marginal {index}: " + "  ".join(f"{label}={_fmt(v)}" for label, v in pairs)
        )
    for (name, block), entries in zip(report.blocks.items(), block_rows):
        lines.append("")
        size = block.decomposition_size
        size = f", {size} components" if size is not None else ""
        lines.append(f"decomposition '{name}' ({block.decomposition_source}{size}):")
        for label, cells in entries:
            lines.append(line(label, cells, indent="  "))
        if block.rho_c_error:
            lines.append(f"  classical correlation unavailable: {block.rho_c_error}")
        if block.rho_e_error:
            lines.append(f"  entanglement unavailable: {block.rho_e_error}")
        if block.product_rule_residual is not None:
            verdict = "PASS" if block.product_rule_pass else "FAIL"
            lines.append(
                f"  product_rule_residual: {block.product_rule_residual:.6g} "
                f"(<{PRODUCT_RULE_TOL:g}: {verdict})"
            )
    if report.flags:
        lines.append("")
        lines.append("flags:")
        for key, value in report.flags.items():
            lines.append(f"  {key}: {_json_text(value)}")
    if report.notes:
        lines.append("")
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"

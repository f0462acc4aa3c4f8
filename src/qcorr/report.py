"""Report documents and their table/JSON emitters.

A ReportDocument is assembled once by the scenario runner and only formatted
here; emitters never recompute statistics. Tables round to six significant
digits and mark off-support outcomes with a dash; JSON keeps full float
precision so reports round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .correlation import CorrelationReport
from .errors import ValidationError
from .measure import DensityFunction, DiscreteMeasure, ProductSpace
from .tolerance import PRODUCT_RULE_TOL

__all__ = ["ReportDocument", "emit_report"]

OFF_SUPPORT = "—"


@dataclass
class ReportDocument:
    """Everything a run produces: measures, densities, flags, and notes.

    `blocks` maps each decomposition's name to the engine's split for it, in
    report order.
    """

    scenario: dict
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
        return {
            "schema": "qcorr/report/1",
            "scenario": self.scenario,
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


def emit_report(report: ReportDocument, format: str = "table") -> str:
    """Render a report as fixed-width text or as JSON."""
    if format == "json":
        return json.dumps(report.to_jsonable(), indent=2)
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
    lines.append(f"scenario: {report.scenario.get('name', '')}")
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
            lines.append(f"  {key}: {json.dumps(value)}")
    if report.notes:
        lines.append("")
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"

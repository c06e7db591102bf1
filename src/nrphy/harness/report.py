"""Run reports and CSV emission."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


@dataclass
class RunReport:
    """Outcome of a harness run: CSV rows plus summary statistics.

    CSV content is a pure function of (config, seed); timing lives only in
    ``wall_clock_s`` / ``throughput_mbps`` summaries except for the
    benchmark, whose measurement *is* the row payload.
    """

    kind: str
    config: dict
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    iterations_histogram: dict[int, int] = field(default_factory=dict)
    bler: float | None = None
    throughput_mbps: float | None = None
    wall_clock_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    def add_row(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def count_iterations(self, iterations: int) -> None:
        self.iterations_histogram[iterations] = (
            self.iterations_histogram.get(iterations, 0) + 1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.columns, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.kind}] config: " +
                 " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))]
        if self.bler is not None:
            lines.append(f"[{self.kind}] bler={self.bler:.6g}")
        if self.throughput_mbps is not None:
            lines.append(f"[{self.kind}] throughput={self.throughput_mbps:.3f} Mbps")
        if self.iterations_histogram:
            hist = " ".join(f"{k}:{v}" for k, v in sorted(self.iterations_histogram.items()))
            lines.append(f"[{self.kind}] iterations histogram: {hist}")
        lines.append(f"[{self.kind}] wall clock: {self.wall_clock_s:.3f} s")
        lines.extend(self.notes)
        return lines

"""Category-stratified report tables rendered to Markdown and CSV."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Category, SpokenUdError


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]  # first column is the row label
    rows: tuple[tuple[str, ...], ...]

    def to_markdown(self) -> str:
        lines = ["| " + " | ".join(row) + " |" for row in (self.columns, *self.rows)]
        lines.insert(1, "|" + "|".join(["---"] * len(self.columns)) + "|")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        # No cell needs quoting: each is a column name, a category label,
        # "Overall", "-" or a formatted number.
        return "\n".join(",".join(row) for row in (self.columns, *self.rows)) + "\n"


@dataclass(frozen=True)
class CategoryTable:
    """One summary per category in the fixed category order (None when no
    sentence has it), then the summary of every sentence as Overall."""

    columns: tuple[str, ...]
    per_category: tuple[tuple[Category, int, object], ...]
    overall: object
    cells: Callable[[object], tuple[str, ...]]  # a summary's cells after the label

    def to_table(self) -> Table:
        blank = ("-",) * (len(self.columns) - 1)
        rows = [(category.display_label,) + (blank if summary is None else self.cells(summary))
                for category, _, summary in self.per_category]
        rows.append(("Overall",) + self.cells(self.overall))
        return Table(self.columns, tuple(rows))

    def to_markdown(self) -> str:
        return self.to_table().to_markdown()

    def to_csv(self) -> str:
        return self.to_table().to_csv()


def category_table(results: Iterable, columns: tuple[str, ...],
                   summarize: Callable[[list], object],
                   cells: Callable[[object], tuple[str, ...]]) -> CategoryTable:
    """Results (with ``sentence_id`` and ``category``) grouped by category in
    input order, each group and all results summarized; a repeated id is refused."""
    results = list(results)
    seen: set[str] = set()
    groups: dict[Category, list] = {}
    for result in results:
        if result.sentence_id in seen:
            raise SpokenUdError(f"duplicate sentence id: {result.sentence_id}")
        seen.add(result.sentence_id)
        if result.category is not None:
            groups.setdefault(result.category, []).append(result)
    per_category = tuple(
        (category, len(groups[category]), summarize(groups[category]))
        if category in groups else (category, 0, None) for category in Category)
    return CategoryTable(columns, per_category, summarize(results), cells)

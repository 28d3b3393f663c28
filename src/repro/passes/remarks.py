"""Optimization remarks — the ``-Rpass=openmp-opt`` analogue (paper §VII).

Passes report what they did (``passed``) and what they could not do and
why (``missed``/``analysis``), so users can see leftover abstractions
exactly like the paper's compiler diagnostics."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List


class RemarkKind(enum.Enum):
    PASSED = "passed"
    MISSED = "missed"
    ANALYSIS = "analysis"


@dataclass(frozen=True)
class Remark:
    kind: RemarkKind
    pass_name: str
    function: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.pass_name} @{self.function}: {self.message}"


class RemarkCollector:
    """Accumulates remarks across a pipeline run."""

    def __init__(self) -> None:
        self.remarks: List[Remark] = []

    def passed(self, pass_name: str, function: str, message: str) -> None:
        self.remarks.append(Remark(RemarkKind.PASSED, pass_name, function, message))

    def missed(self, pass_name: str, function: str, message: str) -> None:
        self.remarks.append(Remark(RemarkKind.MISSED, pass_name, function, message))

    def analysis(self, pass_name: str, function: str, message: str) -> None:
        self.remarks.append(Remark(RemarkKind.ANALYSIS, pass_name, function, message))

    def by_kind(self, kind: RemarkKind) -> List[Remark]:
        return [r for r in self.remarks if r.kind == kind]

    def by_pass(self, pass_name: str) -> List[Remark]:
        return [r for r in self.remarks if r.pass_name == pass_name]

    def contains(self, fragment: str) -> bool:
        return any(fragment in r.message for r in self.remarks)

    def __len__(self) -> int:
        return len(self.remarks)

"""Solved-criterion evaluation and performance profiles across solvers.

A (solver, problem, seed) cell records the noisy evaluations spent until the
noiseless objective crossed the tau threshold; unsolved cells count as
infinite. Per-problem scores average the per-seed counts (any unsolved seed
makes the score infinite), and the profile curve of a solver at ratio r is
the fraction of problems it scored within r times the best solver's score.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class DegenerateProblemError(ValueError):
    pass


def check_tau(tau: float) -> None:
    if not 0 < tau < 1:  # also rejects NaN
        raise ValueError(f"tau must lie in (0,1), got {tau!r}")


def tau_solved(f_x0: float, f_best_found: float, f_star: float, tau: float) -> bool:
    """True iff (f(x0) - f') / (f(x0) - f*) > 1 - tau."""
    check_tau(tau)
    if f_x0 <= f_star:
        raise DegenerateProblemError("f(x0) must exceed f_star")
    return (f_x0 - f_best_found) / (f_x0 - f_star) > 1.0 - tau


def solve_threshold(f_x0: float, f_star: float, tau: float) -> float:
    """Value below which the tau criterion holds: f' < f* + tau (f(x0) - f*)."""
    check_tau(tau)
    if f_x0 <= f_star:
        raise DegenerateProblemError("f(x0) must exceed f_star")
    return f_star + tau * (f_x0 - f_star)


@dataclass(frozen=True)
class ProfileRow:
    solver: str
    problem: str
    seed: int
    evals_to_solve: Optional[int]  # None when unsolved
    tau: float
    budget: int

    def __post_init__(self):
        if self.evals_to_solve is not None and self.evals_to_solve > self.budget:
            raise ValueError("solved cell exceeds its budget")


@dataclass
class ProfileTable:
    rows: List[ProfileRow] = field(default_factory=list)

    def add(self, solver, problem, seed, evals_to_solve, tau, budget):
        self.rows.append(ProfileRow(solver, problem, int(seed),
                                    None if evals_to_solve is None else int(evals_to_solve),
                                    float(tau), int(budget)))

    def solvers(self) -> List[str]:
        return sorted({r.solver for r in self.rows})

    def problems(self) -> List[str]:
        return sorted({r.problem for r in self.rows})

    def sorted_rows(self) -> List[ProfileRow]:
        return sorted(self.rows, key=lambda r: (r.solver, r.problem, r.seed))

    def scores(self) -> Dict[Tuple[str, str], float]:
        """(solver, problem) -> mean evals over seeds, inf if any seed unsolved."""
        cells: Dict[Tuple[str, str], List[Optional[int]]] = {}
        for r in self.rows:
            cells.setdefault((r.solver, r.problem), []).append(r.evals_to_solve)
        return {key: (math.inf if any(v is None for v in vals)
                      else float(np.mean([float(v) for v in vals])))
                for key, vals in cells.items()}

    # CSV (schema: header row, comma separated, deterministic row order) -----
    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["solver", "problem", "seed", "evals_to_solve", "tau", "budget"])
        for r in self.sorted_rows():
            w.writerow([r.solver, r.problem, r.seed,
                        "" if r.evals_to_solve is None else r.evals_to_solve,
                        repr(r.tau), r.budget])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "ProfileTable":
        rdr = csv.reader(io.StringIO(text))
        header = next(rdr)
        if header[:6] != ["solver", "problem", "seed", "evals_to_solve", "tau", "budget"]:
            raise ValueError("unrecognized profile CSV header")
        table = ProfileTable()
        for rec in rdr:
            if not rec:
                continue
            table.add(rec[0], rec[1], int(rec[2]),
                      None if rec[3] == "" else int(rec[3]),
                      float(rec[4]), int(rec[5]))
        return table

    def __eq__(self, other):
        if not isinstance(other, ProfileTable):
            return NotImplemented
        return self.sorted_rows() == other.sorted_rows()


@dataclass
class ProfileCurves:
    solvers: List[str]
    ratios: np.ndarray
    fractions: Dict[str, np.ndarray]

    def value_at(self, solver: str, r: float) -> float:
        idx = np.searchsorted(self.ratios, r, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.fractions[solver][idx])

    def to_csv(self, plot_columns: bool = False) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        header = ["solver", "ratio", "fraction_solved"]
        if plot_columns:
            header.append("log10_ratio")
        w.writerow(header)
        for solver in self.solvers:
            for r, frac in zip(self.ratios, self.fractions[solver]):
                rec = [solver, repr(float(r)), repr(float(frac))]
                if plot_columns:
                    rec.append(repr(float(np.log10(r))))
                w.writerow(rec)
        return buf.getvalue()


def profile_fraction(table: ProfileTable, solver: str, r: float) -> float:
    """Fraction of problems this solver scored within r times the best score."""
    scores = table.scores()
    problems = table.problems()
    solvers = table.solvers()
    hits = 0
    for prob in problems:
        best = min(scores.get((s, prob), math.inf) for s in solvers)
        mine = scores.get((solver, prob), math.inf)
        if math.isfinite(mine) and math.isfinite(best) and mine <= r * best:
            hits += 1
    return hits / len(problems)


def build_profiles(table: ProfileTable, ratios: Optional[Sequence[float]] = None,
                   n_points: int = 64) -> ProfileCurves:
    """Ratio-based performance profiles on a logarithmic grid of [1, budget]."""
    if not table.rows:
        raise ValueError("empty profile table")
    solvers = table.solvers()
    if len(solvers) < 2:
        raise ValueError("profiles need at least two solvers")
    if ratios is None:
        r_max = max(r.budget for r in table.rows)
        ratios = np.logspace(0.0, np.log10(max(r_max, 2.0)), n_points)
    ratios = np.asarray(sorted(set([1.0] + [float(r) for r in ratios])))
    fractions = {s: np.array([profile_fraction(table, s, r) for r in ratios])
                 for s in solvers}
    return ProfileCurves(solvers=solvers, ratios=ratios, fractions=fractions)

"""Table 4: differences between the implementations.

The paper's Table 4 lists, per environment and problem, how many
threads perform the sendings and the receptions ("N is the number of
processors").  In this reproduction those numbers are not merely
documentation: they are the live configuration of every environment's
communication model (:class:`repro.envs.base.ThreadPolicy`), so this
experiment renders the table straight from the objects the simulator
consumes -- guaranteeing the reproduction actually runs what Table 4
describes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.envs import PROBLEM_KINDS, asynchronous_environments
from repro.experiments.spec import render_table

#: The paper's Table 4, verbatim, for the verification tests.
PAPER_TABLE4 = {
    ("pm2", "sparse_linear"): "one sending thread / receiving threads created on demand",
    ("mpimad", "sparse_linear"): "one sending thread / one receiving thread",
    ("omniorb", "sparse_linear"): "N sending threads / receiving threads created on demand",
    ("pm2", "chemical"): "two sending threads / one receiving thread",
    ("mpimad", "chemical"): "two sending threads / two receiving threads",
    ("omniorb", "chemical"): "two sending threads / receiving threads created on demand",
}

_NUMBER_WORDS = {1: "one", 2: "two", 3: "three"}


def _verbalise(description: str) -> str:
    """Normalise '1 sending thread' to the paper's 'one sending thread'.

    Only digits are substituted -- the capital "N" of "N sending
    threads" (N = number of processors) must survive verbatim.
    """
    out = description
    for number, word in _NUMBER_WORDS.items():
        out = out.replace(f"{number} sending thread", f"{word} sending thread")
        out = out.replace(f"{number} receiving thread", f"{word} receiving thread")
    return out


def run_table4() -> Dict[str, object]:
    rows: List[List[str]] = []
    matches: Dict[tuple, bool] = {}
    for problem in PROBLEM_KINDS:
        for env in asynchronous_environments():
            policy = env.thread_policy(problem)
            description = _verbalise(policy.describe())
            expected = PAPER_TABLE4[(env.name, problem)]
            matches[(env.name, problem)] = description == expected
            rows.append([problem, env.display_name, description, expected])
    return {"rows": rows, "matches": matches, "all_match": all(matches.values())}


def format_table4(outcome: Dict[str, object]) -> str:
    return render_table(
        ["Problem", "Environment", "Implementation (live config)", "Paper Table 4"],
        outcome["rows"],
        title="Table 4 -- differences between the implementations",
    ) + f"\nAll rows match the paper: {outcome['all_match']}"


__all__ = ["run_table4", "format_table4", "PAPER_TABLE4"]

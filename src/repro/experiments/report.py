"""One-shot reproduction report: run every registry experiment, emit markdown.

``python -m repro report [--quick] [-o report.md]`` runs every experiment of
:data:`~repro.experiments.registry.EXPERIMENTS` with the parameters
``repro <id>`` uses and renders one ``##`` section per table, in the style
of EXPERIMENTS.md but with freshly measured numbers, each experiment's
sections followed by its ``- claim <name> [<section>]: holds|FAILED``
lines, so a user can validate the reproduction on their own machine in one
command.
"""

from __future__ import annotations

import datetime
import platform
from typing import Callable, List, Optional, Tuple

from .centralized import _fmt
from .registry import EXPERIMENTS

__all__ = ["generate_report"]


def _md_table(rows: List[dict]) -> str:
    """``rows`` as a markdown table, each cell as ``format_table`` prints it."""
    if not rows:
        return "*(no rows)*"
    cols = list(rows[0])
    out = ["| " + " | ".join(str(c) for c in cols) + " |"]
    out.append("|" + "---|" * len(cols))
    for r in rows:
        out.append("| " + " | ".join(_fmt(r.get(c)) for c in cols) + " |")
    return "\n".join(out)


def generate_report(
    quick: bool = True, progress: Optional[Callable[[str], None]] = None
) -> Tuple[str, bool]:
    """Run every registry experiment; return a markdown report and whether
    every experiment's claims held.

    Parameters
    ----------
    quick:
        Each experiment's ``--quick`` parameters; False for full paper scale.
    progress:
        Optional callable receiving one status line per experiment.
    """
    say = progress or (lambda msg: None)
    sections: List[str] = []
    ok = True
    for experiment in EXPERIMENTS.values():
        say(f"{experiment.id} ...")
        outcome = experiment.execute(quick)
        for table in outcome.tables:
            sections.append(f"## {table.title}\n\n{_md_table(table.rows)}")
        if outcome.footer:
            sections[-1] += f"\n\n{outcome.footer}"
        if outcome.verdicts:
            sections[-1] += "\n\n" + "\n".join(f"- {line}" for line in outcome.claim_lines())
        ok = ok and outcome.ok

    header = (
        "# SWAT reproduction report\n\n"
        f"- generated: {datetime.datetime.now().isoformat(timespec='seconds')}\n"
        f"- python: {platform.python_version()} on {platform.system()}\n"
        f"- mode: {'quick' if quick else 'full'}\n\n"
        "Paper-vs-measured context and interpretation live in EXPERIMENTS.md;\n"
        "this file records a fresh run on this machine.\n"
    )
    return header + "\n\n" + "\n\n".join(sections) + "\n", ok

"""Persistent perf history: an append-only JSONL ledger of bench runs.

Simulated cycles already have a regression gate (``BENCH_*.json`` +
``repro-obs diff``); this module keeps the *other* axis — how long the
simulator itself takes — durable across commits, so the ROADMAP's speedup
work has a before/after record.  Every ``repro-obs bench --history`` run
(and every service bench job) appends one entry per workload × variant:

.. code-block:: json

    {"version": 1, "ts": 1754650000.0, "git_sha": "b54a3b3…",
     "host": {"platform": "…", "python": "3.12.3", "cpu_count": 8},
     "workload": "mp3d", "variant": "cachier", "source": "bench",
     "cycles": 123456, "host_seconds": 2.31,
     "phases": {"machine": 1.2e9, "protocol": 0.6e9}}

Host wall-times are machine-dependent, so they live *only* here — never in
the BENCH files, whose bytes the parallel-determinism gate compares — and
they never gate: regression detection over host seconds is informational,
cycles remain the only hard gate.

Storage is a JSONL file appended via read + atomic rewrite
(:mod:`repro.util.atomic_write`), read back under the same salvage
contract as the run manifest (:func:`repro.util.jsonl.read_jsonl`): a
truncated trailing line is dropped, mid-file corruption raises.
"""

from __future__ import annotations

import os
import threading

from repro.errors import ObsError

HISTORY_VERSION = 1

#: ledger file name conventions (CLI default / service data dir)
DEFAULT_LEDGER = "perf_history.jsonl"

#: where entries may come from
SOURCES = ("bench", "seed", "service")

#: eight-level unicode sparkline ramp
_SPARK = "▁▂▃▄▅▆▇█"

#: appends are read-modify-replace; serialise them within a process (the
#: CLI appends from the parent only and the service from worker threads,
#: so a process-wide lock is the whole story)
_APPEND_LOCK = threading.Lock()


# ----------------------------------------------------------- entry making
def host_fingerprint() -> dict:
    """A small, stable description of the benching host."""
    import platform

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_sha(repo_dir: str | None = None) -> str:
    """The current commit (short sha), or ``"unknown"`` outside git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def make_entry(
    workload: str,
    variant: str,
    cycles: int,
    host_seconds: float | None = None,
    source: str = "bench",
    phases: dict | None = None,
    ts: float | None = None,
    sha: str | None = None,
    host: dict | None = None,
) -> dict:
    if source not in SOURCES:
        raise ObsError(
            f"history source must be one of {SOURCES}, got {source!r}"
        )
    import time

    return {
        "version": HISTORY_VERSION,
        "ts": time.time() if ts is None else ts,
        "git_sha": git_sha() if sha is None else sha,
        "host": host_fingerprint() if host is None else host,
        "workload": workload,
        "variant": variant,
        "source": source,
        "cycles": int(cycles),
        "host_seconds": (
            None if host_seconds is None else round(float(host_seconds), 6)
        ),
        "phases": phases,
    }


# ------------------------------------------------------------ ledger I/O
def read_history(path: str) -> list[dict]:
    """Every surviving ledger entry (missing file -> empty history)."""
    from repro.util.jsonl import read_jsonl

    if not os.path.exists(path):
        return []
    entries = read_jsonl(path, what="history entry")
    for entry in entries:
        if not isinstance(entry, dict) or "workload" not in entry:
            raise ObsError(
                f"{path}: not a perf history ledger "
                f"(entry without a 'workload' field)"
            )
    return entries


def append_entries(path: str, entries: list[dict]) -> int:
    """Append ``entries``, atomically rewriting the ledger; returns the new
    total entry count.  A truncated trailing line in the existing file is
    dropped here — appending *repairs* a torn ledger rather than
    perpetuating it."""
    import json

    from repro.util.atomic_write import atomic_write_text

    if not entries:
        return len(read_history(path))
    with _APPEND_LOCK:
        existing = read_history(path)
        merged = existing + list(entries)
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        text = "".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in merged
        )
        atomic_write_text(path, text)
    return len(merged)


def seed_from_baselines(baseline_dir: str, path: str) -> int:
    """Seed the ledger from committed ``BENCH_*.json`` baselines.

    One synthetic epoch-0 entry per workload × variant, tagged
    ``source="seed"`` with ``ts=0`` and no host timings (the committed
    baselines are cycle-only by design).  Idempotent: a (workload,
    variant) that already has a seed entry is skipped.  Returns the number
    of entries added.
    """
    import glob

    from repro.obs.baseline import read_bench

    bench_files = sorted(
        glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))
    )
    if not bench_files:
        raise ObsError(f"no BENCH_*.json files under {baseline_dir}")
    seeded = {
        (e["workload"], e["variant"])
        for e in read_history(path)
        if e.get("source") == "seed"
    }
    fresh = []
    for bench_file in bench_files:
        bench = read_bench(bench_file)
        workload = bench["workload"]
        for variant in sorted(bench["variants"]):
            if (workload, variant) in seeded:
                continue
            fresh.append(make_entry(
                workload, variant,
                cycles=int(bench["variants"][variant]["cycles"]),
                source="seed", ts=0.0, sha="seed",
                host={"platform": "baseline", "python": "-",
                      "machine": "-", "cpu_count": 0},
            ))
    if fresh:
        append_entries(path, fresh)
    return len(fresh)


def series(entries: list[dict]) -> dict[tuple[str, str], list[dict]]:
    """Group entries by (workload, variant), preserving ledger order."""
    out: dict[tuple[str, str], list[dict]] = {}
    for entry in entries:
        out.setdefault((entry["workload"], entry["variant"]), []).append(entry)
    return out


def latest_host_seconds(
    entries: list[dict], workload: str, variant: str, last: int = 2
) -> list[float]:
    """The most recent ``last`` host timings for one series (newest last);
    seed entries have none and are skipped."""
    values = [
        e["host_seconds"]
        for e in entries
        if e["workload"] == workload and e["variant"] == variant
        and e.get("host_seconds") is not None
    ]
    return values[-last:]


# -------------------------------------------------- regression detection
def detect_regressions(
    entries: list[dict],
    window: int = 3,
    threshold: float = 0.25,
) -> list[str]:
    """Windowed trend notes per series (informational, never gating).

    For each (workload, variant) with at least ``2 * window`` timed
    entries, compares the mean of the newest ``window`` host timings
    against the mean of the ``window`` before them; a growth past
    ``threshold`` is flagged.  Cycles get the same treatment across *all*
    entries (seeds included) with the bench gate's 10% sensibility — but
    the result is still just a note; ``repro-obs diff`` is the gate.
    """
    if window < 1:
        raise ObsError(f"window must be >= 1, got {window}")
    notes = []
    for (workload, variant), run in sorted(series(entries).items()):
        cycles = [e["cycles"] for e in run]
        if len(cycles) >= 2 and cycles[0] > 0:
            delta = (cycles[-1] - cycles[0]) / cycles[0]
            if abs(delta) > 0.10:
                notes.append(
                    f"{workload}/{variant}: cycles {cycles[0]} -> "
                    f"{cycles[-1]} ({delta:+.1%} since first entry)"
                )
        timed = [
            e["host_seconds"] for e in run
            if e.get("host_seconds") is not None
        ]
        if len(timed) >= 2 * window:
            older = sum(timed[-2 * window:-window]) / window
            newer = sum(timed[-window:]) / window
            if older > 0 and (newer - older) / older > threshold:
                notes.append(
                    f"{workload}/{variant}: host time regressed "
                    f"{(newer - older) / older:+.1%} over the last "
                    f"{window} runs ({older:.3f}s -> {newer:.3f}s mean)"
                )
    return notes


# -------------------------------------------------------------- rendering
def sparkline(values: list[float]) -> str:
    """Unicode sparkline (▁▂▃▄▅▆▇█) of a value series."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[0] * len(values)
    steps = len(_SPARK) - 1
    return "".join(
        _SPARK[round((v - lo) / (hi - lo) * steps)] for v in values
    )


def render_trends(entries: list[dict]) -> str:
    """Terminal trend table: one row per (workload, variant) series."""
    from repro.harness.reporting import render_table

    rows = []
    for (workload, variant), run in sorted(series(entries).items()):
        cycles = [e["cycles"] for e in run]
        timed = [
            e["host_seconds"] for e in run
            if e.get("host_seconds") is not None
        ]
        rows.append([
            workload, variant, len(run),
            cycles[-1], sparkline([float(c) for c in cycles]),
            round(timed[-1], 3) if timed else "-",
            sparkline(timed) if timed else "-",
        ])
    return render_table(
        ["workload", "variant", "entries", "cycles", "cycles_trend",
         "host_s", "host_trend"],
        rows,
        title="perf history (cycles gate; host time informational)",
    )


def _svg_sparkline(values: list[float], width: int = 160,
                   height: int = 28) -> str:
    """Inline SVG sparkline — deterministic formatting only (coordinates
    rounded to 2 decimals, no ids, no timestamps) so live and statically
    exported pages stay byte-identical."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = width / max(n - 1, 1)
    pad = 3
    points = " ".join(
        f"{i * step:.2f},{height - pad - (v - lo) / span * (height - 2 * pad):.2f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline fill="none" stroke="#23407c" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


_PERF_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.75rem 0 1.5rem; }
caption { text-align: left; font-weight: 600; padding-bottom: 0.35rem; }
th, td { border: 1px solid #d0d0e0; padding: 0.3rem 0.6rem; }
th { background: #f0f0f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
svg.spark { vertical-align: middle; }
p.note { color: #7a1f1f; }
a { color: #23407c; }
"""


def render_perf_html(entries: list[dict]) -> str:
    """The ``/perf.html`` trend page — a *pure* function of the ledger
    entries (no clocks, no environment), which is what makes the live
    route and the static dashboard export byte-identical."""
    import html as _html

    def esc(value: object) -> str:
        return _html.escape(str(value), quote=True)

    body = [
        "<h1>repro perf history</h1>",
        "<p>Host wall-time per bench run alongside simulated cycles; "
        "cycles gate regressions, host time is informational "
        "(machine-dependent).</p>",
    ]
    if not entries:
        body.append("<p>No history yet — run "
                    "<code>repro-obs bench --history</code> or seed from "
                    "the committed baselines with "
                    "<code>repro-obs history --seed-from</code>.</p>")
    else:
        rows = []
        for (workload, variant), run in sorted(series(entries).items()):
            cycles = [float(e["cycles"]) for e in run]
            timed = [
                e["host_seconds"] for e in run
                if e.get("host_seconds") is not None
            ]
            last = run[-1]
            rows.append(
                "<tr>"
                f"<td>{esc(workload)}</td><td>{esc(variant)}</td>"
                f'<td class="num">{len(run)}</td>'
                f'<td class="num">{esc(last["cycles"])}</td>'
                f"<td>{_svg_sparkline(cycles)}</td>"
                f'<td class="num">'
                f'{esc(round(timed[-1], 3)) if timed else "-"}</td>'
                f'<td>{_svg_sparkline(timed) if timed else "-"}</td>'
                f"<td>{esc(last.get('git_sha', '-'))}</td>"
                "</tr>"
            )
        body.append(
            "<table><caption>per-workload trends "
            "(oldest &rarr; newest)</caption>"
            "<thead><tr><th>workload</th><th>variant</th><th>entries</th>"
            "<th>cycles (last)</th><th>cycles trend</th>"
            "<th>host s (last)</th><th>host trend</th><th>last sha</th>"
            "</tr></thead><tbody>"
            + "\n".join(rows) + "</tbody></table>"
        )
        notes = detect_regressions(entries)
        if notes:
            body.append("<h2>trend notes (informational)</h2>")
            body.extend(f'<p class="note">{esc(note)}</p>' for note in notes)
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        "<title>repro perf history</title>\n"
        f"<style>{_PERF_STYLE}</style>\n"
        "</head><body>\n"
        + "\n".join(body) +
        "\n</body></html>\n"
    )


__all__ = [
    "DEFAULT_LEDGER",
    "HISTORY_VERSION",
    "SOURCES",
    "append_entries",
    "detect_regressions",
    "git_sha",
    "host_fingerprint",
    "latest_host_seconds",
    "make_entry",
    "read_history",
    "render_perf_html",
    "render_trends",
    "seed_from_baselines",
    "series",
    "sparkline",
]

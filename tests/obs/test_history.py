"""Perf-history ledger: salvage contract, seeding, trends, HTML purity."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import history as hist


def entry(workload="mp3d", variant="plain", cycles=1000, host_seconds=None,
          **kw):
    return hist.make_entry(
        workload, variant, cycles=cycles, host_seconds=host_seconds,
        ts=kw.pop("ts", 1.0), sha=kw.pop("sha", "abc1234"),
        host=kw.pop("host", {"platform": "test", "python": "3",
                             "machine": "x", "cpu_count": 1}),
        **kw,
    )


# ------------------------------------------------------------- ledger I/O
#: a ledger line as written before entries lost their always-null
#: stack-sampler digest field; old ledgers must keep reading
OLD_LEDGER_LINE = (
    '{"cycles": 1100, "git_sha": "0ld5ha1", "host": {"cpu_count": 1, '
    '"machine": "x", "platform": "test", "python": "3"}, '
    '"host_seconds": 0.5, "phases": null, "samples_digest": null, '
    '"source": "bench", "ts": 0.5, "variant": "plain", "version": 1, '
    '"workload": "mp3d"}\n'
)


def test_append_and_read_roundtrip(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    assert hist.read_history(path) == []
    total = hist.append_entries(path, [entry(), entry(variant="cachier")])
    assert total == 2
    total = hist.append_entries(path, [entry(cycles=900)])
    assert total == 3
    entries = hist.read_history(path)
    assert [e["cycles"] for e in entries] == [1000, 1000, 900]
    assert all(e["version"] == hist.HISTORY_VERSION for e in entries)

    old = tmp_path / "old.jsonl"
    old.write_text(OLD_LEDGER_LINE)
    assert hist.append_entries(str(old), [entry(cycles=900)]) == 2
    entries = hist.read_history(str(old))
    assert [e["cycles"] for e in entries] == [1100, 900]
    text = hist.render_trends(entries)
    assert "mp3d" in text and "900" in text


def test_truncated_trailing_line_is_salvaged(tmp_path):
    """Same salvage contract as read_manifest: drop a torn tail, and the
    next append repairs the file."""
    path = tmp_path / "ledger.jsonl"
    good = json.dumps(entry(), sort_keys=True)
    path.write_text(good + "\n" + good[: len(good) // 2])
    assert len(hist.read_history(str(path))) == 1
    hist.append_entries(str(path), [entry(variant="cachier")])
    text = path.read_text()
    assert len(text.splitlines()) == 2
    assert text.endswith("\n")  # repaired: every line complete again


def test_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "ledger.jsonl"
    good = json.dumps(entry(), sort_keys=True)
    path.write_text("{broken\n" + good + "\n")
    with pytest.raises(ObsError, match="ledger.jsonl:1"):
        hist.read_history(str(path))


def test_non_ledger_content_rejected(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"not": "a ledger entry"}\n')
    with pytest.raises(ObsError, match="workload"):
        hist.read_history(str(path))


def test_bad_source_rejected():
    with pytest.raises(ObsError, match="source"):
        hist.make_entry("mp3d", "plain", 1, source="martian")


# ---------------------------------------------------------------- seeding
def test_seed_from_baselines_is_idempotent(tmp_path):
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    (baselines / "BENCH_mp3d.json").write_text(json.dumps({
        "version": 1, "workload": "mp3d",
        "variants": {"plain": {"cycles": 145726},
                     "cachier": {"cycles": 84957}},
    }))
    path = str(tmp_path / "ledger.jsonl")
    assert hist.seed_from_baselines(str(baselines), path) == 2
    assert hist.seed_from_baselines(str(baselines), path) == 0  # idempotent
    entries = hist.read_history(path)
    assert len(entries) == 2
    assert all(e["source"] == "seed" and e["ts"] == 0.0 for e in entries)
    assert all(e["host_seconds"] is None for e in entries)


def test_seed_from_empty_dir_raises(tmp_path):
    with pytest.raises(ObsError, match="no BENCH"):
        hist.seed_from_baselines(str(tmp_path), str(tmp_path / "l.jsonl"))


# ------------------------------------------------------- trends and notes
def test_detect_regressions_windowed():
    run = [entry(host_seconds=s, ts=float(i))
           for i, s in enumerate([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])]
    notes = hist.detect_regressions(run, window=3, threshold=0.25)
    assert any("host time regressed" in n for n in notes)
    # flat series: quiet
    flat = [entry(host_seconds=1.0, ts=float(i)) for i in range(6)]
    assert not any("host time" in n
                   for n in hist.detect_regressions(flat, window=3))


def test_detect_regressions_cycles_note():
    run = [entry(cycles=1000), entry(cycles=1500)]
    notes = hist.detect_regressions(run)
    assert any("cycles 1000 -> 1500" in n for n in notes)
    with pytest.raises(ObsError):
        hist.detect_regressions(run, window=0)


def test_latest_host_seconds_skips_untimed():
    run = [entry(), entry(host_seconds=1.5), entry(host_seconds=2.5)]
    assert hist.latest_host_seconds(run, "mp3d", "plain") == [1.5, 2.5]
    assert hist.latest_host_seconds(run, "mp3d", "cachier") == []


def test_sparkline_shape():
    assert hist.sparkline([]) == ""
    assert hist.sparkline([1.0, 1.0]) == "▁▁"
    line = hist.sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == "▁" and line[-1] == "█"


def test_render_trends_table():
    run = [entry(host_seconds=1.0), entry(host_seconds=1.2),
           entry(variant="cachier", cycles=84957)]
    text = hist.render_trends(run)
    assert "perf history" in text
    assert "mp3d" in text and "cachier" in text
    assert "▁" in text  # sparkline rendered


# ------------------------------------------------------------ HTML purity
def test_render_perf_html_is_pure_and_escaped():
    bad = entry(workload="<script>alert(1)</script>",
                sha='"><img onerror=x>')
    html_a = hist.render_perf_html([bad])
    html_b = hist.render_perf_html([bad])
    assert html_a == html_b  # pure: same input, same bytes
    assert "<script>alert" not in html_a
    assert "&lt;script&gt;" in html_a
    assert "<svg" in html_a  # sparkline present


def test_render_perf_html_empty_state():
    page = hist.render_perf_html([])
    assert "No history yet" in page
    assert page == hist.render_perf_html([])

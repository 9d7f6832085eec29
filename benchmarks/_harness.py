"""Helpers shared by the benchmark files (kept out of conftest so imports are explicit)."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments.registry import run_experiment

#: Where the machine-readable pipeline benchmark report is written.
BENCH_DIR = Path(__file__).resolve().parent
PIPELINE_REPORT_PATH = BENCH_DIR / "BENCH_pipeline.json"

#: Schema version of ``BENCH_pipeline.json`` (see benchmarks/README.md).
PIPELINE_REPORT_SCHEMA = 1


def run_and_report(benchmark, context, experiment_module):
    """Benchmark one experiment driver and print its regenerated table."""
    result = benchmark.pedantic(
        lambda: run_experiment(experiment_module.EXPERIMENT_ID, context), rounds=1, iterations=1
    )
    print()
    print(result.text)
    return result


def update_pipeline_report(entries: dict[str, dict], path: Path = PIPELINE_REPORT_PATH) -> Path:
    """Merge ``entries`` into ``BENCH_pipeline.json`` and rewrite it.

    Existing entries under other names are preserved so independent benchmark
    tests can each contribute their own section; ``generated_at`` always
    reflects the latest write.  See benchmarks/README.md for the schema.
    """
    payload: dict = {"schema_version": PIPELINE_REPORT_SCHEMA, "entries": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("entries"), dict):
                payload["entries"] = existing["entries"]
        except (json.JSONDecodeError, OSError):
            pass  # a corrupt report is rebuilt from scratch
    payload["entries"].update(entries)
    payload["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

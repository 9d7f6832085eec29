"""Child process of the campaign benchmark: corpus set-up, or the traced CLI.

    python child.py [--trace OUT.json] setup SEED SCALE
    python child.py [--trace OUT.json] [--results OUT.json] cli [CLI ARGUMENT ...]

``setup`` generates the executable corpora and the MySQL corpus through
:mod:`repro.corpus` into the process-default artifact store
(``REPRO_STORE_DIR``), exactly as the experiments CLI would build them, so the
timed campaign only finds them there.  ``cli`` calls
``repro.experiments.__main__.main(argv)`` in-process and exits with its code.
``--trace`` installs the layer wrappers of :mod:`tracer` first and writes the
spans plus the cache, store and worker counters to ``OUT.json`` at the end;
``--results`` writes each experiment's id and text as the CLI's batch returns
them, which is how the storeless reference learns where each result starts.
"""

from __future__ import annotations

import json
import resource
import sys


def set_up(seed: int, scale: float) -> None:
    from repro.corpus import build_all_suites, build_suite
    from repro.corpus.generate import DEFAULT_FILE_COUNT

    build_all_suites(seed=seed, scale=scale)
    # the CLI builds the MySQL corpus (analysed, never executed) this way
    build_suite("mysql", file_count=max(3, int(round(DEFAULT_FILE_COUNT["mysql"] * scale))), seed=seed)


def _store_counters(stores: list) -> dict:
    counters = {"errors": 0, "by_namespace": {}}
    for store in stores:
        counters["errors"] += store.stats.errors
        for namespace, bucket in store.stats.by_namespace.items():
            merged = counters["by_namespace"].setdefault(namespace, {"hits": 0, "misses": 0})
            merged["hits"] += bucket["hits"]
            merged["misses"] += bucket["misses"]
    return counters


def _recording_results(path: str) -> None:
    """Write each experiment's id and text to ``path`` when the CLI's batch ends."""
    from repro.experiments import __main__ as cli

    run_batch = cli.run_batch

    def recording(*args, **kwargs):
        results = run_batch(*args, **kwargs)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([[result.experiment_id, result.text] for result in results], handle)
        return results

    cli.run_batch = recording


def main(argv: list[str]) -> int:
    options = {}
    while argv[0] in ("--trace", "--results"):
        options[argv[0]], argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    recorder = None
    if "--trace" in options:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    if mode == "setup":
        set_up(int(rest[0]), float(rest[1]))
        code = 0
    elif mode == "cli":
        from repro.experiments.__main__ import main as cli_main

        if "--results" in options:
            _recording_results(options["--results"])
        code = cli_main(rest)
        sys.stdout.flush()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if recorder is not None:
        from repro.perf.cache import cache_stats

        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        extra = recorder.report()
        extra["caches"] = cache_stats()
        extra["store"] = _store_counters(recorder.stores)
        extra["worker_cpu_s"] = workers.ru_utime + workers.ru_stime
        recorder.dump(options["--trace"], extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

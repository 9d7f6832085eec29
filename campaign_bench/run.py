"""Campaign benchmark: the experiments CLI, timed from outside, on three workloads.

Run from the root of a checkout (README.md says why each workload exists and
which end-to-end metric each layer metric should move):

    python3 campaign_bench/run.py --workload cold_campaign --seed 0 --seconds 25 --trace 0

A run sets its workload up several times (``setup_s`` is their median) and
follows each set-up with its share of ``--seconds`` seconds of timed
campaigns, each on a copy of that set-up's store.  Each timed campaign is a fresh ``python -m repro.experiments``
process measured from outside: wall time from spawn to exit, CPU and peak RSS
from its ``wait4`` rusage (pool workers included), interpreter teardown from
the last byte of its unbuffered stdout to its exit.  Every campaign's 14
results are compared with the storeless serial reference of the same scale
and seed, computed once per code version outside every timed section.

``--trace 1`` adds a traced set-up and two traced campaigns, which call the
same ``main(argv)`` in-process under the wrappers of ``tracer.py``, and prints
the per-layer metrics instead of the end-to-end ones.

Every child process runs in its own run directory with ``HOME``, ``TMPDIR``
and ``REPRO_STORE_DIR`` pinned inside it; the rest of the checkout is
snapshotted around every child and must not change.  Counts that must repeat
exactly across the runs of a set (store entries and bytes per namespace,
records, cells, front-end call counts) are compared, and a drift marks the
set as a harness fault.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: corpus scale of every workload: a quarter of the CLI default ``--scale 1.0``
#: (≈9.7k record results across the plain and translated matrices), sized so
#: one run repeats its campaign several times
SCALE = 0.25
#: set-ups per run; setup_s is their median
SETUPS = 3
#: fewest timed campaigns per run, however long they take
MIN_REPS = 3
#: every child is killed once the run has lasted this long
RUN_LIMIT_S = 170.0
#: namespaces only set-up may write; a timed campaign that adds to them would
#: be timing corpus generation
CORPUS_NAMESPACES = ("corpus-files", "corpus-suites", "file-donor")
STORE_NAMESPACES = ("file-results", "matrix-cells", "donor-runs", "file-analysis", "corpus-suites")
WORK_DIRNAME = ".bench_work"


@dataclass(frozen=True)
class Workload:
    #: the CLI's ``--workers``
    workers: int
    #: set-up also runs a priming cold campaign into the store
    primed: bool


WORKLOADS = {
    "cold_campaign": Workload(workers=1, primed=False),
    "warm_replay": Workload(workers=1, primed=True),
    "sharded_cold": Workload(workers=2, primed=False),
}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Measured:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    teardown_s: float
    stdout: str
    stderr: str


class Bench:
    """State of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload_name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = root / WORK_DIRNAME
        self.run_dir = self.work / "runs" / f"{workload}-{seed}-{os.getpid()}"
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.code_version = _code_version(root / "src" / "repro")

    # -- children ------------------------------------------------------------------

    def env(self, directory: Path) -> dict[str, str]:
        env = {key: value for key, value in os.environ.items() if not key.startswith(("REPRO_", "PYTHON"))}
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONPYCACHEPREFIX=str(self.work / "pycache"),
            PYTHONUNBUFFERED="1",
            HOME=str(directory / "home"),
            TMPDIR=str(directory / "tmp"),
            REPRO_STORE_DIR=str(directory / "store"),
        )
        return env

    def spawn(self, argv: list[str], directory: Path) -> Measured:
        """Run one child in ``directory`` and measure it from outside."""
        for name in ("home", "tmp"):
            (directory / name).mkdir(parents=True, exist_ok=True)
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise HarnessError(f"run exceeded {RUN_LIMIT_S:.0f}s before {argv[1:4]}")
        before = self.outside_snapshot(directory)
        with open(directory / "stderr.txt", "w+b") as errors:
            start = time.perf_counter()
            process = subprocess.Popen(
                argv, cwd=directory, env=self.env(directory), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=errors
            )
            killer = threading.Timer(remaining, process.kill)
            killer.start()
            chunks, last_byte = [], None
            try:
                while True:
                    data = os.read(process.stdout.fileno(), 1 << 16)
                    if not data:
                        break
                    last_byte = time.perf_counter()
                    chunks.append(data)
                _, status, usage = os.wait4(process.pid, 0)
                end = time.perf_counter()
            finally:
                killer.cancel()
                process.stdout.close()
            process.returncode = os.waitstatus_to_exitcode(status)
            errors.seek(0)
            stderr = errors.read().decode("utf-8", "replace")
        changed = _diff(before, self.outside_snapshot(directory))
        if changed:
            self.faults.append(f"{argv[1:4]} wrote outside its run directory: {changed[:5]}")
        return Measured(
            returncode=process.returncode,
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mib=usage.ru_maxrss / 1024.0,
            teardown_s=end - (last_byte if last_byte is not None else end),
            stdout=b"".join(chunks).decode("utf-8", "replace"),
            stderr=stderr,
        )

    def outside_snapshot(self, directory: Path) -> dict[str, tuple[int, int]]:
        """Size and mtime of every checkout file a child may not touch."""
        return _snapshot(self.root, skip={directory, self.work / "pycache", self.root / ".git"})

    def cli_argv(self, *extra: str) -> list[str]:
        return [sys.executable, "-m", "repro.experiments", "--scale", repr(SCALE), "--seed", str(self.seed), *extra]

    def child_argv(self, *arguments: str) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), *arguments]

    # -- reference and checks --------------------------------------------------------

    def reference(self) -> dict:
        """Storeless serial output for the seed, once per code version."""
        cache = self.work / "reference" / self.code_version / f"{SCALE!r}-{self.seed}.json"
        if cache.is_file():
            return json.loads(cache.read_text(encoding="utf-8"))
        directory = self.fresh_dir("reference")
        results = directory / "results.json"
        cli = self.cli_argv("--no-store", "--workers", "1")[3:]
        run = self.spawn(self.child_argv("--results", str(results), "cli", *cli), directory)
        if run.returncode != 0 or not results.is_file():
            raise HarnessError(f"storeless reference run exited {run.returncode}:\n{run.stderr[-2000:]}")
        recorded = json.loads(results.read_text(encoding="utf-8"))
        if run.stdout != "".join(text + "\n\n" for _, text in recorded) or len(recorded) != 14:
            raise HarnessError("the storeless reference printed something other than its 14 results")
        reference = {
            "ids": [experiment_id for experiment_id, _ in recorded],
            "heads": [text.split("\n", 1)[0] for _, text in recorded],
            "blocks": [text.rstrip("\n") for _, text in recorded],
        }
        cache.parent.mkdir(parents=True, exist_ok=True)
        partial = cache.with_suffix(f".tmp-{os.getpid()}")
        partial.write_text(json.dumps(reference), encoding="utf-8")
        os.replace(partial, cache)
        shutil.rmtree(directory)
        return reference

    def check(self, run: Measured, reference: dict, what: str) -> None:
        """Count the 14 results of one campaign against the reference."""
        expected = reference["blocks"]
        self.attempted += len(expected)
        if run.returncode != 0:
            self.failed += len(expected)
            print(f"{what}: exit code {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
            return
        actual = _split_results(run.stdout, reference["heads"])
        wrong = [name for name, got, want in zip(reference["ids"], actual, expected) if got != want]
        self.failed += len(wrong)
        if wrong:
            print(f"{what}: results differ from the storeless reference: {wrong}", file=sys.stderr)

    def agree(self, what: str, values: list) -> None:
        """Determinism guard: ``values`` must repeat exactly."""
        if any(value != values[0] for value in values[1:]):
            self.faults.append(f"harness fault: {what} drifted across the runs of the set: {values}")

    # -- workload steps ------------------------------------------------------------------

    def fresh_dir(self, name: str) -> Path:
        directory = self.run_dir / name
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        return directory

    def set_up(self, name: str, traced: bool = False) -> tuple[Path, float]:
        """Generate the corpora (and prime the store); returns (directory, seconds).

        A traced set-up leaves its spans in ``directory / "trace.json"``.
        """
        directory = self.fresh_dir(name)
        tracing = ["--trace", str(directory / "trace.json")] if traced else []
        generate = self.spawn(self.child_argv(*tracing, "setup", str(self.seed), repr(SCALE)), directory)
        if generate.returncode != 0:
            raise HarnessError(f"corpus set-up exited {generate.returncode}:\n{generate.stderr[-2000:]}")
        seconds = generate.wall_s
        if self.workload.primed:
            prime = self.spawn(self.cli_argv("--workers", "1"), directory)
            self.check(prime, self.reference(), f"{name} priming campaign")
            seconds += prime.wall_s
        return directory, seconds

    def campaign(self, template: Path, name: str, traced: bool = False) -> tuple[Measured, dict, dict | None]:
        """One campaign on a copy of the set-up store.

        Returns the measured process, the store census after it, and — for a
        traced campaign — the trace document.
        """
        directory = self.fresh_dir(name)
        shutil.copytree(template / "store", directory / "store")
        cli = self.cli_argv("--workers", str(self.workload.workers))
        if traced:
            cli = self.child_argv("--trace", str(directory / "trace.json"), "cli", *cli[3:])
        run = self.spawn(cli, directory)
        self.check(run, self.reference(), name)
        census = _census(directory / "store")
        document = None
        if traced and run.returncode == 0:
            trace = directory / "trace.json"
            document = json.loads(trace.read_text(encoding="utf-8"))
            kept = self.work / "traces" / f"{self.workload_name}-{self.seed}.json"
            kept.parent.mkdir(parents=True, exist_ok=True)
            os.replace(trace, kept)
        shutil.rmtree(directory)
        return run, census, document

    # -- one benchmark run -------------------------------------------------------------------

    def run(self, seconds: int, trace: bool) -> dict:
        self.reference()
        # The vCPU's speed drifts in phases of a few seconds, so the timed
        # campaigns are spread over the whole run: each set-up is followed by
        # its share of them, on its own store.
        setup_seconds, templates, runs, censuses = [], [], [], []
        campaign_seconds = 0.0
        for index in range(SETUPS):
            if index:
                shutil.rmtree(template)
            template, elapsed = self.set_up(f"setup{index}")
            setup_seconds.append(elapsed)
            templates.append(_census(template / "store"))
            while campaign_seconds < seconds * (index + 1) / SETUPS or len(runs) < MIN_REPS * (index + 1) // SETUPS:
                run, census, _ = self.campaign(template, f"campaign{len(runs)}")
                campaign_seconds += run.wall_s
                runs.append(run)
                censuses.append(census)
        self.agree("set-up store census", templates)
        self.agree("post-campaign store census", censuses)
        for namespace in CORPUS_NAMESPACES:
            if censuses[0].get(namespace) != templates[0].get(namespace):
                self.faults.append(f"harness fault: the timed campaign wrote {namespace} entries (corpus generation inside the timed run)")

        walls = [run.wall_s for run in runs]
        end_to_end = {
            "setup_s": statistics.median(setup_seconds),
            "campaign_s": statistics.median(walls),
            "cpu_s": statistics.median(run.cpu_s for run in runs),
            "peak_rss_mib": statistics.median(run.maxrss_mib for run in runs),
            "store_mib": sum(bytes_ for _, bytes_ in censuses[0].values()) / 2**20,
        }
        print(
            f"{self.workload_name} seed {self.seed}: {len(runs)} campaigns {[round(w, 3) for w in walls]} s, "
            f"set-ups {[round(s, 3) for s in setup_seconds]} s",
            file=sys.stderr,
        )
        if not trace:
            return end_to_end
        return self.traced(template, censuses[0], runs, end_to_end["campaign_s"])

    def traced(self, template: Path, census: dict, runs: list[Measured], untraced_s: float) -> dict:
        """Per-layer metrics from a traced set-up and two traced campaigns."""
        directory, _ = self.set_up("traced-setup", traced=True)
        self.agree("traced set-up store census", [_census(directory / "store"), _census(template / "store")])
        setup_doc = json.loads((directory / "trace.json").read_text(encoding="utf-8"))
        documents, walls, censuses = [], [], [census]
        for index in range(2):
            run, traced_census, document = self.campaign(template, f"traced{index}", traced=True)
            if document is None:
                raise HarnessError(f"traced campaign exited {run.returncode}:\n{run.stderr[-2000:]}")
            documents.append(document)
            walls.append(run.wall_s)
            censuses.append(traced_census)
        self.agree("traced store census", censuses)
        for name in ("sqlparser.tokenize", "engine.parse", "dialects.translate", "experiments.cells", "core.transplant"):
            self.agree(f"{name} calls", [_span(document, name, "calls") for document in documents])
        for name in ("core.runner.records", "experiments.records"):
            self.agree(name, [document["counters"].get(name, 0) for document in documents])
        return _layer_metrics(documents, walls, setup_doc, runs, untraced_s)


# -- helpers ---------------------------------------------------------------------------------


def _code_version(source: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def _snapshot(root: Path, skip: set[Path]) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file under ``root`` outside ``skip``; a file
    that vanishes during the walk is simply absent."""
    found: dict[str, tuple[int, int]] = {}
    pending = [root]
    while pending:
        current = pending.pop()
        try:
            with os.scandir(current) as entries:
                for entry in entries:
                    path = Path(entry.path)
                    if path in skip:
                        continue
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(path)
                    else:
                        stat = entry.stat(follow_symlinks=False)
                        found[entry.path] = (stat.st_size, stat.st_mtime_ns)
        except FileNotFoundError:
            continue
    return found


def _diff(before: dict, after: dict) -> list[str]:
    return sorted(path for path in before.keys() | after.keys() if before.get(path) != after.get(path))


def _census(store: Path) -> dict[str, tuple[int, int]]:
    """Artifact count and bytes per store namespace, read from disk."""
    census: dict[str, tuple[int, int]] = {}
    if not store.is_dir():
        return census
    for namespace in sorted(path for path in store.iterdir() if path.is_dir()):
        files = [path for path in namespace.rglob("*") if path.is_file()]
        census[namespace.name] = (len(files), sum(path.stat().st_size for path in files))
    return census


def _split_results(text: str, heads: list[str]) -> list[str | None]:
    """Cut CLI output into one block per experiment, each starting at its
    reference's first line (None when that line is missing)."""
    lines = text.split("\n")
    starts: list[int | None] = []
    position = 0
    for head in heads:
        found = next((index for index in range(position, len(lines)) if lines[index] == head), None)
        starts.append(found)
        if found is not None:
            position = found + 1
    blocks: list[str | None] = []
    for index, start in enumerate(starts):
        if start is None:
            blocks.append(None)
            continue
        end = next((later for later in starts[index + 1 :] if later is not None), len(lines))
        blocks.append("\n".join(lines[start:end]).rstrip("\n"))
    return blocks


def _span(document: dict, name: str, field: str) -> int:
    return document["layers"].get(name, {}).get(field, 0)


def _hit_rate(document: dict, cache: str) -> float:
    stats = document["caches"].get(cache, {"hits": 0, "misses": 0})
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def _layer_metrics(documents: list[dict], walls: list[float], setup_doc: dict, runs: list[Measured], untraced_s: float) -> dict:
    first = documents[0]

    def self_s(name: str, doc: list[dict] | None = None) -> float:
        return statistics.median(_span(document, name, "self_ns") / 1e9 for document in (doc or documents))

    metrics = {
        "process.teardown_s": statistics.median(run.teardown_s for run in runs),
        "corpus.generate.self_s": self_s("corpus.generate", [setup_doc]),
        "formats.parse.self_s": self_s("formats.parse", [setup_doc]),
        "formats.parse.files": _span(setup_doc, "formats.parse", "calls"),
        "perf.cache.tokenize.hit_rate": _hit_rate(first, "tokenize"),
        "perf.cache.translate.hit_rate": _hit_rate(first, "translate"),
        "perf.cache.plan.hit_rate": _hit_rate(first, "plan"),
        "perf.cache.fault_match.hit_rate": _hit_rate(first, "fault_match"),
        "core.runner.records": first["counters"].get("core.runner.records", 0),
        "core.transplant.cells": _span(first, "core.transplant", "calls"),
        "core.transplant.self_s": self_s("core.transplant"),
        "core.transplant.infra_failures": first["counters"].get("core.transplant.infra_failures", 0),
        "core.parallel.shard.wall_s": statistics.median(_span(document, "core.parallel.shard", "total_ns") / 1e9 for document in documents),
        "core.parallel.worker_cpu_s": statistics.median(document["worker_cpu_s"] for document in documents),
        "store.write_mib": first["counters"].get("store.write_bytes", 0) / 2**20,
        "store.errors": first["store"]["errors"],
        "experiments.cells": _span(first, "experiments.cells", "calls"),
        "experiments.records": first["counters"].get("experiments.records", 0),
        "trace.overhead_share": statistics.median(walls) / untraced_s - 1.0,
        "trace.uncovered_s": statistics.median(wall - document["root_ns"] / 1e9 for wall, document in zip(walls, documents)),
    }
    for name in (
        "sqlparser.tokenize", "dialects.translate", "engine.parse", "engine.execute", "adapters.sqlite.execute",
        "adapters.reset", "core.comparison.compare", "core.coverage.measure", "store.load", "store.save",
        "codec.encode", "codec.decode", "analysis.scan",
    ):
        metrics[f"{name}.calls"] = _span(first, name, "calls")
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("core.runner.run_file", "core.parallel.assemble", "store.keys", "analysis.partials", "experiments.finalize"):
        metrics[f"{name}.self_s"] = self_s(name)
    for namespace in STORE_NAMESPACES:
        bucket = first["store"]["by_namespace"].get(namespace, {"hits": 0, "misses": 0})
        metrics[f"store.{namespace}.hits"] = bucket["hits"]
        metrics[f"store.{namespace}.misses"] = bucket["misses"]
    return metrics


def _declared_metrics(root: Path, trace: bool) -> list[dict]:
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return declared["per_layer" if trace else "end_to_end"]


def _remove_stale_runs(runs: Path) -> None:
    """Delete run directories left behind by benchmark processes that died."""
    if not runs.is_dir():
        return
    for entry in runs.iterdir():
        pid = entry.name.rsplit("-", 1)[-1]
        try:
            os.kill(int(pid), 0)
        except (ValueError, ProcessLookupError):
            shutil.rmtree(entry, ignore_errors=True)
        except PermissionError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(f"error: {root} is not a checkout of the repository (no src/repro)", file=sys.stderr)
        return 2
    declared = _declared_metrics(root, bool(arguments.trace))
    bench = Bench(root, arguments.workload, arguments.seed)
    _remove_stale_runs(bench.run_dir.parent)
    try:
        measured = bench.run(arguments.seconds, bool(arguments.trace))
    except HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    for fault in bench.faults:
        print(fault, file=sys.stderr)
    missing = [metric["name"] for metric in declared if metric["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0 and not bench.faults,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]} for metric in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for `bipers`: seeded corpora through the `corpus --jobs 1` path.

    python3 bench/run.py --workload hook-sums --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each module goes from `.bpm` text through
`parse_module_file` -> `classify` -> `check_implications` ->
`report_to_json`, one at a time in one process and one thread (a closed
loop with a single caller).  Only that path is timed.  Outside the timed
window every verdict is checked against the corpus's ground truth, and
every certificate is re-checked with `verify_certificate`.

With ``--trace 0`` the run classifies modules for ``--seconds`` seconds of
timed work at reference machine speed (see below) and reports the
end-to-end metrics.  With ``--trace 1`` it classifies a
fixed prefix of the corpus twice, untraced and then traced (see
`tracing.py`), reports the per-layer metrics with the tracing overhead,
and writes every span to ``bench/out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any verdict is wrong.

End-to-end metrics: ``modules_per_s`` counts modules classified correctly
per second of timed work; ``classify_p50_ms`` and ``classify_p95_ms`` are
taken over every attempted module, failed ones included; ``setup_s`` is
the median of five rounds of importing bipers, generating the corpus and
classifying the gallery (interpreter start and the numpy import are not
included); ``peak_rss_mb`` is the process's peak resident memory.  A
module fails when it raises, runs past the time limit or gets a wrong
verdict; ``failed_share`` is printed on the ``run`` line.

Every time behind these metrics is reported at reference machine speed
(see `calibration.py`): a fixed kernel that uses no bipers code is timed
before the first module, after each module and around each set-up round,
and a time is scaled by how much slower or faster than nominal the kernel
ran around it.  The ``run`` line also prints the raw figures and the
median speed factor.

Self-tests: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy  # a dependency of bipers, imported before set-up is timed

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# More cases than one run classifies, so a run rarely sees a case twice.
CORPUS_SIZE = {"hook-sums": 1200, "glued": 1000, "staircases": 1200}
# Cases classified by a traced run: fixed, so its counts repeat exactly.
TRACE_SIZE = {"hook-sums": 100, "glued": 100, "staircases": 200}
# Per-module limit, far above the slowest module at the seed (about 1 s,
# the fixed glued pair at p = 1009).
TIME_LIMIT_S = 20.0
SETUP_ROUNDS = 5
PROBES_PER_GAP = 5  # kernel samples between two set-up rounds
MAX_STRETCH = 1.2  # a run on a slow machine measures at most this many --seconds

END_TO_END_UNITS = {
    "modules_per_s": "1/s",
    "classify_p50_ms": "ms",
    "classify_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, traced layer, field); layer None marks a derived metric.
# decomposition.hom_per_hook is hom_basis calls per certificate hook, with
# the hook count floored at 1, so on rejecting workloads it is the calls.
PER_LAYER = (
    ("decomposition.hom_basis.calls", "count", "decomposition.hom_basis", "calls"),
    ("decomposition.hom_basis.unknowns", "count", "decomposition.hom_basis", "unknowns"),
    ("decomposition.hom_basis.self_s", "s", "decomposition.hom_basis", "self_s"),
    ("decomposition.hook_grid.calls", "count", "decomposition.hook_grid", "calls"),
    ("decomposition.hook_decompose.self_s", "s", "decomposition.hook_decompose", "self_s"),
    ("decomposition.hom_per_hook", "calls/hook", None, None),
    ("bigraded.to_grid.calls", "count", "bigraded.to_grid", "calls"),
    ("bigraded.to_grid.grid_points", "count", "bigraded.to_grid", "grid_points"),
    ("bigraded.to_grid.self_s", "s", "bigraded.to_grid", "self_s"),
    ("bigraded.stable_grid.calls", "count", "bigraded.stable_grid", "calls"),
    ("bigraded.minimize.calls", "count", "bigraded.minimize", "calls"),
    ("bigraded.minimize.self_s", "s", "bigraded.minimize", "self_s"),
    ("resolution.betti_table.self_s", "s", "resolution.betti_table", "self_s"),
    ("resolution.syzygy_presentation.calls", "count", "resolution.syzygy_presentation", "calls"),
    ("resolution.syzygy_presentation.self_s", "s", "resolution.syzygy_presentation", "self_s"),
    ("linalg.rank.calls", "count", "linalg.rank", "calls"),
    ("linalg.kernel_basis.calls", "count", "linalg.kernel_basis", "calls"),
    ("linalg.row_space_echelon.calls", "count", "linalg.row_space_echelon", "calls"),
    ("linalg.solve_matrix.calls", "count", "linalg.solve_matrix", "calls"),
    ("linalg.matrix_new.calls", "count", "linalg.matrix_new", "calls"),
    ("linalg.self_s", "s", None, None),
    ("cli.parse_module_file.self_s", "s", "cli.parse_module_file", "self_s"),
    ("classify.report_to_json.self_s", "s", "classify.report_to_json", "self_s"),
    ("classify.verify_certificate.self_s", "s", None, None),
    ("trace.untraced_modules_per_s", "1/s", None, None),
    ("trace.traced_modules_per_s", "1/s", None, None),
    ("trace.overhead", "ratio", None, None),
)


class ModuleTimeout(Exception):
    """A module ran past the per-module time limit."""


def _on_alarm(signum, frame):
    raise ModuleTimeout()


def load_library():
    """Import bipers and the corpus builders; returns their modules."""
    names = ("cli", "classify", "generators")
    lib = SimpleNamespace(**{n: importlib.import_module(f"bipers.{n}") for n in names})
    lib.corpora = importlib.import_module("corpora")
    return lib


def _forget_library():
    for name in [m for m in sys.modules if m in ("bipers", "corpora") or m.startswith("bipers.")]:
        del sys.modules[name]


def pipeline(lib, text):
    """What `bipers corpus --jobs 1` does with one input, in one call."""
    pres = lib.cli.parse_module_file(text)
    report = lib.classify.classify(pres)
    implications = lib.classify.check_implications(report)
    return pres, report, implications, lib.classify.report_to_json(report)


def warm_up(lib):
    """Classify every gallery module: fixed work, whatever the seed."""
    for name in lib.generators.gallery_names():
        pipeline(lib, lib.cli.presentation_to_bpm(lib.generators.gallery(name)))


def _probe_gap():
    return statistics.median(calibration.probe() for _ in range(PROBES_PER_GAP))


def setup(workload, seed):
    """Import, corpus generation and warm-up, several times; the median
    time at reference speed, each round scaled by the kernel times measured
    just before and just after it."""
    rounds, probes = [], [_probe_gap()]
    for _ in range(SETUP_ROUNDS):
        _forget_library()
        t0 = time.perf_counter()
        lib = load_library()
        cases = lib.corpora.corpus(workload, seed, CORPUS_SIZE[workload])
        warm_up(lib)
        rounds.append(time.perf_counter() - t0)
        probes.append(_probe_gap())
    scaled = [t * f for t, f in zip(rounds, calibration.factors(probes))]
    return statistics.median(scaled), lib, cases


def _expand_betti(triples):
    return tuple(
        tuple(sorted((a, b) for a, b, mult in triples[str(i)] for _ in range(mult)))
        for i in range(3)
    )


def _json_degree(d):
    return tuple(math.inf if v == "inf" else v for v in d)


def problems(lib, case, pres, report, implications, text_json):
    """Every way a report disagrees with the case's ground truth."""
    found = []
    out = json.loads(text_json)
    if not implications:
        found.append("implication diagram violated")
    if out["hook_decomposable"] != (case.hooks is not None):
        found.append(f"hook_decomposable is {out['hook_decomposable']}")
    if case.hooks is not None and out["certificate"] is not None:
        hooks = sorted((tuple(h["p"]), _json_degree(h["q"])) for h in out["certificate"]["hooks"])
        if tuple(hooks) != case.hooks:
            found.append(f"hooks {hooks} != {list(case.hooks)}")
    if _expand_betti(out["betti"]) != case.betti:
        found.append(f"betti {out['betti']} != {case.betti}")
    if out["projective_dimension"] != case.pd:
        found.append(f"pd {out['projective_dimension']} != {case.pd}")
    if report.certificate is not None and not lib.classify.verify_certificate(pres, report.certificate):
        found.append("certificate fails verification")
    return found


@dataclass
class Tally:
    """Outcome of classifying a sequence of modules."""

    times: list = field(default_factory=list)  # seconds per attempted module
    probes: list = field(default_factory=list)  # kernel seconds before and after each module
    timed_s: float = 0.0
    reference_s: float = 0.0  # timed_s at reference machine speed
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    timeouts: int = 0
    hooks: int = 0  # certificate hooks returned
    notes: list = field(default_factory=list)

    @property
    def failed(self):
        return self.wrong + self.errors + self.timeouts

    def note(self, index, message):
        if len(self.notes) < 5:
            self.notes.append(f"case {index}: {message}")


def run_one(lib, text, limit):
    """(seconds, outcome or exception) for one module under a time limit."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            outcome = pipeline(lib, text)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # a failing module is a result; the run goes on
        outcome = exc
    return time.perf_counter() - t0, outcome


def _root(tracer, phase, index):
    return contextlib.nullcontext() if tracer is None else tracer.root(phase, index)


def measure(lib, cases, seconds=math.inf, count=None, tracer=None, limit=TIME_LIMIT_S):
    """Classify cases in order, cycling, until `seconds` of timed work at
    reference speed or `count` modules; check each verdict outside the
    timed window.

    Counting reference time, not raw time, makes a run cover the same
    cases whether the machine is fast or slow at the moment.  Raw timed
    work stops at MAX_STRETCH times `seconds` all the same.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally(probes=[calibration.probe()])
    canonical = {}  # case index -> report JSON without timings
    while tally.attempted == 0 or (
        tally.reference_s < seconds
        and tally.timed_s < MAX_STRETCH * seconds
        and (count is None or tally.attempted < count)
    ):
        index = tally.attempted % len(cases)
        case = cases[index]
        with _root(tracer, "pipeline", index):
            dt, outcome = run_one(lib, case.text, limit)
        tally.probes.append(calibration.probe())
        tally.reference_s += dt * calibration.factors(tally.probes[-2:])[0]
        tally.times.append(dt)
        tally.timed_s += dt
        tally.attempted += 1
        if isinstance(outcome, ModuleTimeout):
            tally.timeouts += 1
            tally.note(index, f"over the {limit:g} s limit")
            continue
        if isinstance(outcome, Exception):
            tally.errors += 1
            tally.note(index, "".join(traceback.format_exception_only(outcome)).strip())
            print(f"case {index}:", "".join(traceback.format_exception(outcome)), file=sys.stderr)
            continue
        pres, report, implications, text_json = outcome
        if report.certificate is not None:
            tally.hooks += len(report.certificate.hooks)
        with _root(tracer, "verify", index):
            stable = lib.classify.report_to_json(report, include_timings=False)
            if index in canonical:
                found = [] if canonical[index] == stable else ["report differs from the first pass"]
            else:
                canonical[index] = stable
                found = problems(lib, case, pres, report, implications, text_json)
        if found:
            tally.wrong += 1
            tally.note(index, "; ".join(found))
    return tally


def reference_times(tally):
    """Module times in seconds at reference machine speed."""
    return [t * f for t, f in zip(tally.times, calibration.factors(tally.probes))]


def end_to_end_metrics(tally, setup_s):
    times = reference_times(tally)
    times_ms = [t * 1e3 for t in times]
    values = {
        "modules_per_s": (tally.attempted - tally.failed) / sum(times),
        "classify_p50_ms": statistics.median(times_ms),
        "classify_p95_ms": statistics.quantiles(times_ms, n=20)[18] if len(times_ms) > 1 else times_ms[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(pipeline_summary, verify_summary, plain, traced):
    derived = {
        "decomposition.hom_per_hook": pipeline_summary.get("decomposition.hom_basis", {}).get("calls", 0)
        / max(traced.hooks, 1),
        "linalg.self_s": sum(v["self_s"] for k, v in pipeline_summary.items() if k.startswith("linalg.")),
        "classify.verify_certificate.self_s": verify_summary.get("classify.verify_certificate", {}).get(
            "self_s", 0.0
        ),
        "trace.untraced_modules_per_s": plain.attempted / plain.timed_s,
        "trace.traced_modules_per_s": traced.attempted / traced.timed_s,
    }
    derived["trace.overhead"] = derived["trace.untraced_modules_per_s"] / derived["trace.traced_modules_per_s"]
    metrics = {}
    for name, unit, layer, key in PER_LAYER:
        value = derived[name] if layer is None else pipeline_summary.get(layer, {}).get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, cases):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_size": len(cases),
        "trace_size": TRACE_SIZE[args.workload],
        "time_limit_s": TIME_LIMIT_S,
        "setup_rounds": SETUP_ROUNDS,
    }


def report(env, tallies, metrics, extra):
    """Human-readable lines, then the result object as the last line."""
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(dict(extra, failed_share=failed / attempted), sort_keys=True))
    for note in (n for t in tallies for n in t.notes):
        print(f"failure {note}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = not any(t.wrong for t in tallies)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(CORPUS_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bipers" / "__init__.py").is_file():
        print(f"bench: no bipers sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_s, lib, cases = setup(args.workload, args.seed)
    env = environment(args, cases)

    if not args.trace:
        tally = measure(lib, cases, seconds=args.seconds)
        tallies = [tally]
        metrics = end_to_end_metrics(tally, setup_s)
        beyond = sum(1 for t in reference_times(tally) if t * 1e3 > metrics["classify_p95_ms"]["value"])
        raw_ms = [t * 1e3 for t in tally.times]
        extra = {
            "samples": tally.attempted,
            "samples_beyond_p95": beyond,
            "timed_s": tally.timed_s,
            "reference_s": tally.reference_s,
            "speed_factor": statistics.median(calibration.factors(tally.probes)),
            "raw_modules_per_s": (tally.attempted - tally.failed) / tally.timed_s,
            "raw_classify_p50_ms": statistics.median(raw_ms),
            "wrong": tally.wrong,
            "errors": tally.errors,
            "timeouts": tally.timeouts,
        }
    else:
        from tracing import Tracer

        prefix = cases[: TRACE_SIZE[args.workload]]
        plain = measure(lib, prefix, count=len(prefix))
        tracer = Tracer()
        tracer.install()
        try:
            tally = measure(lib, prefix, count=len(prefix), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(tracer.summary("pipeline"), tracer.summary("verify"), plain, tally)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        tallies = [plain, tally]
        extra = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return 0 if report(env, tallies, metrics, extra) else 1


if __name__ == "__main__":
    sys.exit(main())

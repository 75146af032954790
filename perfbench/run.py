"""ordq benchmark: time to verdict and throughput, plus a traced per-layer pass.

Run from the root of a checkout (ordq is imported from ./src):

    python3 perfbench/run.py --workload scan-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload powercard --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Load is one closed loop: a single caller in one process, no threads; the
next instance starts only after the previous verdict (for cli-run, after
the previous ``ordq`` process has exited).  Inputs come from --seed and are
generated before they are timed; see gen.py for the workloads and why each
was chosen.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters), instances per second, median and p90 time to verdict, and
peak RSS, with the failed ratio and failure causes beside them.  A run
lasts --seconds of busy time and at least 100 verdicts; powercard instead
always runs its fixed 3002 instances, since its two large instances take
most of a run.  Rate and quantiles are taken over the whole run.  Times
are scaled to a nominal host by a reference timed between verdicts (see
speed.py), since this host's speed drifts by up to 2x; the times as
measured are printed beside them and kept in the results file.

Inputs that reproduce ordq's documented defects are not in the timed
streams; each run verdicts a fixed set of them apart and reports in how
many the defect still shows (see gen.py).

--trace 1 runs a fixed prefix of the stream (its counts repeat exactly
between commits) twice, traced then untraced, prints the per-layer
metrics, and checks that report and ledger JSON are byte-identical across
the two passes.  Spans are written to .perfbench_work/results/.

The last line of output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  "failed" counts every verdict of the stream that is
not "pass"; "correct" is false, and the exit code 1, when any verdict
fails, a defect input fails with another cause than the documented one,
or a byte check fails.

--smoke runs every workload through both passes on a handful of instances.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen
import workloads as wl
from speed import START_NOMINAL_S, Speed, pin, start_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
perf = time.perf_counter

MIN_INSTANCES = 100   # per run, so that ten samples lie beyond its p90
SETUP_REPS = 7        # fresh interpreters per run; the median is reported
SMOKE_PREFIX = 6


def load_ordq():
    """Import ordq from this checkout's sources, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "ordq", "__init__.py")):
        sys.exit(f"perfbench: no ordq sources under {SRC}")
    sys.path.insert(0, SRC)
    import ordq
    import ordq.cli  # noqa: F401  (the cli layer is traced too)
    if not os.path.abspath(ordq.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: ordq was imported from {ordq.__file__}, not {SRC}")
    return ordq


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def sha(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


class Tally:
    """Attempted instances and failures by cause, known defects apart."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.attempted = 0
        self.causes: dict = {}
        self.unexpected: list = []

    def add(self, item: dict, cause, detail: str = "") -> None:
        self.attempted += 1
        if cause is None:
            return
        known = self.workload.is_known(item, cause)
        key = ("known " if known else "") + cause
        self.causes[key] = self.causes.get(key, 0) + 1
        if not known and len(self.unexpected) < 5:
            self.unexpected.append({"cause": cause, "item": item, "detail": detail[:300]})

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


# -- one verdict --------------------------------------------------------------------


def verdict(ordq, case: wl.Case):
    """((start, end) of the verify call, report JSON text, failure cause or
    None, detail)."""
    t0 = perf()
    try:
        report = ordq.verify(case.spec, case.structure, [case.instance])
    except Exception as e:  # one raising instance must not end the run
        return (t0, perf()), f"raise {type(e).__name__}: {e}\n", \
            f"raise:{type(e).__name__}", str(e)
    span = (t0, perf())
    text = json.dumps(report.to_json(), indent=1) + "\n"
    return span, text, wl.row_cause(report), ""


def cli_in_process(ordq, item: dict, work: str):
    """Run one CLI invocation through cli.main; (exit code, stdout)."""
    wl.write_cli_inputs(item, work)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ordq.cli.main(wl.cli_argv(item, work))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue()


def cli_subprocess(item: dict, work: str):
    """Run one ordq process; (seconds, exit code, stdout, peak RSS KiB)."""
    wl.write_cli_inputs(item, work)
    out_path = os.path.join(work, "stdout.txt")
    with open(out_path, "wb") as out:
        t0 = perf()
        proc = subprocess.Popen([sys.executable, "-m", "ordq.cli"] + wl.cli_argv(item, work),
                                cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as handle:
        stdout = handle.read()
    return elapsed, proc.returncode, stdout, usage.ru_maxrss


# -- set-up ---------------------------------------------------------------------------


def setup_child(path: str) -> None:
    """Child side of the set-up measurement: import, build, parse, report."""
    with open(path) as handle:
        inputs = json.load(handle)
    ordq = load_ordq()
    w = wl.WORKLOADS[inputs["workload"]]
    ctx = w.setup(ordq, inputs["context"])
    for item in inputs["items"]:
        w.parse(ordq, ctx, item)
    print("ready", flush=True)


class SetupProbe:
    """Seconds from spawning a fresh interpreter to ready-to-verify.  The
    probes are spread over the run (between verdicts, outside the timed
    region), so that their median does not hang on one stretch of the
    machine's drifting speed; each is scaled by a bare interpreter start
    just before and just after it (see speed.py)."""

    def __init__(self, w: wl.Workload, seed: int, items: list, work: str):
        if w.in_process:
            path = os.path.join(work, "setup-inputs.json")
            with open(path, "w") as out:
                json.dump({"workload": w.name, "context": w.context(seed), "items": items},
                          out)
            self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", path]
        else:
            self.cmd = [sys.executable, "-c", "import ordq.cli; print('ready', flush=True)"]
        self.times: list = []
        self.scaled: list = []
        self.once()                     # warms the file and bytecode caches
        self.times.clear()
        self.scaled.clear()

    def once(self) -> None:
        before = start_time()
        t0 = perf()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = perf() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
        self.times.append(elapsed)
        self.scaled.append(elapsed * START_NOMINAL_S / statistics.median((before, start_time())))


def measure_import(reps: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import ordq.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


# -- passes ---------------------------------------------------------------------------


def take(w: wl.Workload, seed: int, smoke: bool):
    if w.name == "powercard":
        return gen.powercard_stream(seed, big=not smoke)
    return w.stream(seed)


def ledger_texts(ordq, cases: list, limit: int):
    """Ledger JSON of the first `limit` cases, and their mean entry count."""
    texts, entries = [], []
    for case in cases[:limit]:
        if case.item.get("big"):
            continue          # its live run alone takes seconds; the report covers it
        text, n = wl.ledger_text(ordq, case)
        texts.append(text)
        entries.append(n)
    return texts, (sum(entries) / len(entries) if entries else 0.0)


def in_process_pass(ordq, cases: list, tally: Tally, tracer=None):
    """Verdict every case once; (busy seconds, report texts)."""
    texts, busy = [], 0.0
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.instance = i
        t0 = perf()
        if tracer is None:
            _, text, cause, detail = verdict(ordq, case)
        else:       # a root span per instance, so self times add up to its time
            _, text, cause, detail = tracer._span(verdict, "bench.instance", "bench",
                                                  (ordq, case), {})
        busy += perf() - t0
        texts.append(text)
        tally.add(case.item, cause, detail)
    return busy, texts


def cli_pass(ordq, items: list, tally: Tally, work: str, tracer=None):
    """Run every invocation through cli.main once; (busy seconds, bytes
    produced, mean ledger entries of the reduce calls)."""
    produced, busy, entries = [], 0.0, []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.instance = i
        t0 = perf()
        if tracer is None:
            code, stdout = cli_in_process(ordq, item, work)
        else:       # a root span per instance, so self times add up to its time
            code, stdout = tracer._span(cli_in_process, "bench.instance", "bench",
                                        (ordq, item, work), {})
        busy += perf() - t0
        cause, blob = wl.cli_check(item, work, code, stdout)
        n = wl.cli_ledger_entries(item, work)
        if n is not None:
            entries.append(n)
        produced.append(blob)
        tally.add(item, cause, stdout)
        wl.remove_outputs(item, work)
    return busy, produced, (sum(entries) / len(entries) if entries else 0.0)


def instrument(ctx, tracer):
    """Give every spec in the set-up context a spanned reference."""
    import dataclasses
    from ordq.reductions import ReductionSpec
    from layertrace import wrap_plain
    if isinstance(ctx, ReductionSpec):
        return dataclasses.replace(ctx, reference=wrap_plain(
            tracer, ctx.reference, "reductions.reference", "reductions.reference"))
    if isinstance(ctx, dict):
        return {k: instrument(v, tracer) for k, v in ctx.items()}
    return ctx


# -- one run --------------------------------------------------------------------------


class Timings:
    """A run's verdict times, in windows of the speed reference's length
    in busy seconds.  When a window closes, its times are scaled to the
    nominal host by the speed that the reference read during it (see
    speed.py).  Both the measured and the scaled times are kept for the
    whole run."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.raw, self.scaled, self.scales = array.array("d"), array.array("d"), []
        self.busy = self.scaled_busy = 0.0
        self.start, self.window_busy = 0, 0.0

    @property
    def count(self) -> int:
        return len(self.raw)

    def add(self, sample: float, cost: float) -> None:
        self.raw.append(sample)
        self.busy += cost
        self.window_busy += cost
        if self.window_busy >= self.speed.window:
            self.close()

    def close(self) -> None:
        if self.start == len(self.raw):
            return
        f = self.speed.scale()
        self.scaled.extend(x * f for x in self.raw[self.start:])
        self.scaled_busy += self.window_busy * f
        self.scales.append(f)
        self.start, self.window_busy = len(self.raw), 0.0


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_untraced(ordq, w: wl.Workload, seed: int, seconds: float, smoke: bool, work: str):
    prefix = SMOKE_PREFIX if smoke else w.prefix
    stream = take(w, seed, smoke)
    prefix_items = [next(stream) for _ in range(prefix)]
    speed = Speed(processes=not w.in_process)
    probe = SetupProbe(w, seed, prefix_items, work)
    reps = 1 if smoke else SETUP_REPS
    stream = take(w, seed, smoke)
    min_n = prefix if smoke else max(MIN_INSTANCES, prefix)
    tally = Tally(w)
    runs, texts, cases, rss_kib = Timings(speed), [], [], 0
    ctx = w.setup(ordq, w.context(seed)) if w.in_process else None
    with speed:
        while runs.count < min_n or (runs.busy < seconds and not w.fixed):
            item = next(stream)
            if w.in_process:
                case = w.parse(ordq, ctx, item)
                tick, t0 = len(speed.ticks), perf()
                span, text, cause, detail = verdict(ordq, case)
                elapsed = speed.net(tick, *span)
            else:
                speed.before_verdict()
                tick, t0 = len(speed.ticks), perf()
                elapsed, code, stdout, rss = cli_subprocess(item, work)
                rss_kib = max(rss_kib, rss)
                cause, text = wl.cli_check(item, work, code, stdout)
                detail = stdout
                wl.remove_outputs(item, work)
            runs.add(elapsed, speed.net(tick, t0, perf()))
            progress = min(1.0, runs.count / min_n)
            if seconds > 0 and not w.fixed:
                progress = min(progress, runs.busy / seconds)
            if len(probe.times) < reps * progress:
                with speed.paused():
                    probe.once()
            tally.add(item, cause, detail)
            if len(texts) < prefix:
                texts.append(text)
                if w.in_process:
                    cases.append(case)
        runs.close()
    defects = check_defects(ordq, w, seed, ctx, smoke)
    if w.in_process:
        ledgers, _ = ledger_texts(ordq, cases, SMOKE_PREFIX if smoke else w.ledger_prefix)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        ledgers = []                # cli ledgers are part of the produced bytes
    while len(probe.times) < reps:
        probe.once()
    metrics = {
        "setup_s": (statistics.median(probe.scaled), "s"),
        "instances_per_s": (runs.count / runs.scaled_busy, "1/s"),
        "verdict_p50_ms": (statistics.median(runs.scaled) * 1e3, "ms"),
        "verdict_p90_ms": (p90(runs.scaled) * 1e3, "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    notes = {
        "samples": runs.count, "windows": len(runs.scales), "busy_s": runs.busy,
        "measured": {"setup_s": statistics.median(probe.times),
                     "instances_per_s": runs.count / runs.busy,
                     "verdict_p50_ms": statistics.median(runs.raw) * 1e3,
                     "verdict_p90_ms": p90(runs.raw) * 1e3},
        "speed_scales": runs.scales, "speed_readings": len(speed.readings),
        "setup_samples": len(probe.times), "setup_probes_s": probe.times,
        "failed_ratio": tally.failed / tally.attempted,
        "report_sha256": sha(texts), "ledger_sha256": sha(ledgers),
        "digested_instances": len(texts), "digested_ledgers": len(ledgers),
        "input_properties": wl.input_properties(w.name, prefix_items),
    }
    mismatches = []
    if defects is not None:
        notes["known_defect_inputs"] = defects
        if defects["unexpected"]:
            mismatches.append("defect inputs failed with another cause: "
                              + json.dumps(defects["unexpected"])[:300])
    return metrics, tally, notes, mismatches


DEFECT_INPUTS = 50


def check_defects(ordq, w: wl.Workload, seed: int, ctx, smoke: bool):
    """Verdict the inputs that reproduce the workload's documented defect,
    apart from the timed stream; None when it has none."""
    if w.defects is None:
        return None
    tally = Tally(w)
    for item in w.defects(seed, SMOKE_PREFIX if smoke else DEFECT_INPUTS):
        _, _, cause, detail = verdict(ordq, w.parse(ordq, ctx, item))
        tally.add(item, cause, detail)
    shown = sum(n for c, n in tally.causes.items() if c.startswith("known "))
    return {"defect": wl.KNOWN_DEFECTS[w.name][1], "cause": wl.KNOWN_DEFECTS[w.name][0],
            "instances": tally.attempted, "shown": shown,
            "passed": tally.attempted - tally.failed,
            "other_causes": {c: n for c, n in tally.causes.items()
                             if not c.startswith("known ")},
            "unexpected": tally.unexpected}


def run_traced(ordq, w: wl.Workload, seed: int, smoke: bool, work: str, spans_path: str):
    from layertrace import Tracer, layer_metrics
    prefix = SMOKE_PREFIX if smoke else w.prefix
    ledger_prefix = SMOKE_PREFIX if smoke else w.ledger_prefix
    stream = take(w, seed, smoke)
    items = [next(stream) for _ in range(prefix)]
    import_s = measure_import(1 if smoke else 3)
    tracer = Tracer()
    traced_tally, plain_tally = Tally(w), Tally(w)
    tracer.install(ordq)
    try:
        if w.in_process:
            ctx = instrument(w.setup(ordq, w.context(seed)), tracer)
            cases = [w.parse(ordq, ctx, item) for item in items]
            traced_busy, traced_out = in_process_pass(ordq, cases, traced_tally, tracer)
            layers = layer_metrics(tracer, len(cases))
            tracer.instance = -2   # ledger runs below are checked, not measured
            traced_ledgers, entries = ledger_texts(ordq, cases, ledger_prefix)
        else:
            os.makedirs(os.path.join(work, "traced"))
            traced_busy, traced_out, entries = cli_pass(
                ordq, items, traced_tally, os.path.join(work, "traced"), tracer)
            layers = layer_metrics(tracer, len(items))
            traced_ledgers = []
    finally:
        tracer.uninstall()
    instance_spans = sum(o for o, inst in zip(tracer.self_times(), tracer.s_inst)
                         if inst >= 0)
    tracer.write(spans_path)
    if w.in_process:
        plain_busy, plain_out = in_process_pass(ordq, cases, plain_tally)
        plain_ledgers, _ = ledger_texts(ordq, cases, ledger_prefix)
    else:
        os.makedirs(os.path.join(work, "plain"))
        plain_busy, plain_out, _ = cli_pass(ordq, items, plain_tally,
                                            os.path.join(work, "plain"))
        plain_ledgers = []
    layers["oracles.ledger.entries_per_row"] = (entries, "entries/row")
    layers["cli.import_s"] = (import_s, "s")
    layers["cli.bad_exit.count"] = (sum(n for c, n in traced_tally.causes.items()
                                        if "exit:" in c), "count")
    layers["trace.overhead_ratio"] = (plain_busy / traced_busy, "ratio")
    layers["trace.self_cover"] = (instance_spans / traced_busy, "ratio")
    layers["trace.instances"] = (len(items), "count")
    mismatches = []
    if traced_out != plain_out:
        mismatches.append("report JSON differs between the traced and untraced pass")
    if traced_ledgers != plain_ledgers:
        mismatches.append("ledger JSON differs between the traced and untraced pass")
    if traced_tally.causes != plain_tally.causes:
        mismatches.append("failures differ between the traced and untraced pass")
    notes = {
        "samples": len(items), "spans": len(tracer.s_name),
        "traced_busy_s": traced_busy, "untraced_busy_s": plain_busy,
        "failed_ratio": traced_tally.failed / traced_tally.attempted,
        "report_sha256": sha(traced_out), "ledger_sha256": sha(traced_ledgers),
        "digested_instances": len(traced_out), "digested_ledgers": len(traced_ledgers),
        "input_properties": wl.input_properties(w.name, items),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return layers, traced_tally, notes, mismatches


def run_workload(ordq, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    w = wl.WORKLOADS[name]
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}")
    try:
        if trace:
            metrics, tally, notes, mismatches = run_traced(
                ordq, w, seed, smoke, work, stem + ".spans.jsonl")
        else:
            metrics, tally, notes, mismatches = run_untraced(ordq, w, seed, seconds,
                                                             smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not mismatches and tally.failed == 0
    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "why": w.why,
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "failures_by_cause": tally.causes, "unexpected_examples": tally.unexpected,
        "check_failures": mismatches,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **notes,
    }
    with open(stem + ".json", "w") as out:
        json.dump(summary, out, indent=1)
    return summary


def print_summary(s: dict) -> None:
    mode = "traced per-layer pass" if s["trace"] else "closed loop, one caller"
    print(f"perfbench {s['workload']} seed={s['seed']} ({mode})")
    for k, m in s["metrics"].items():
        measured = s.get("measured", {}).get(k)
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}"
              + (f"  (as measured {measured:.6g})" if measured is not None else ""))
    print(f"  {'failed_ratio':40s} {s['failed_ratio']:>16.6g} ratio"
          f"  ({s['failed']} of {s['attempted']} instances)")
    print(f"  samples: {s['samples']}" + (f" in {s['windows']} windows, busy {s['busy_s']:.3f} s"
                                         if "busy_s" in s else "")
          + (f", set-up runs {s['setup_samples']}" if "setup_samples" in s else ""))
    for cause, n in sorted(s["failures_by_cause"].items()):
        print(f"  failures {cause}: {n}")
    for example in s["unexpected_examples"]:
        print(f"  unexpected: {json.dumps(example)[:400]}")
    d = s.get("known_defect_inputs")
    if d:
        print(f"  known defect ({d['defect']}): {d['cause']} in {d['shown']} of "
              f"{d['instances']} inputs kept apart for it, {d['passed']} passed")
    for problem in s["check_failures"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  inputs: {json.dumps(s['input_properties'], sort_keys=True)}")
    print(f"  report sha256 {s['report_sha256']} ({s['digested_instances']} instances)")
    print(f"  ledger sha256 {s['ledger_sha256']} ({s['digested_ledgers']} ledgers)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, both passes, a few instances each")
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    pin()
    ordq = load_ordq()
    if args.smoke:
        summaries = [run_workload(ordq, name, args.seed, 0, trace, True)
                     for name in wl.WORKLOADS for trace in (False, True)]
        for s in summaries:
            print_summary(s)
        ok = all(s["correct"] for s in summaries)
        print(json.dumps({"correct": ok, "attempted": sum(s["attempted"] for s in summaries),
                          "failed": sum(s["failed"] for s in summaries), "metrics": {}}))
        return 0 if ok else 1
    s = run_workload(ordq, args.workload, args.seed, args.seconds, bool(args.trace), False)
    print_summary(s)
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": s["metrics"]}))
    return 0 if s["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own test, so that it cannot rot.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import itertools
import json
import os
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_runs_every_workload_through_both_passes():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["attempted"] == 8 * 6   # four workloads, two passes, six instances
    for name in ("scan-mix", "powercard", "separation", "cli-run"):
        assert f"perfbench {name} seed=1 (closed loop, one caller)" in out.stdout
        assert f"perfbench {name} seed=1 (traced per-layer pass)" in out.stdout
    assert out.stdout.count("known defect (") == 2   # scan-mix and separation


def test_streams_depend_only_on_the_seed():
    for stream in (gen.scan_stream, gen.powercard_stream, gen.separation_stream,
                   gen.cli_stream):
        first = list(itertools.islice(stream(7), 50))
        assert first == list(itertools.islice(stream(7), 50))
        assert first != list(itertools.islice(stream(8), 50))
    for defects in (gen.scan_defects, gen.separation_defects):
        assert defects(7, 20) == defects(7, 20) != defects(8, 20)


def test_defect_inputs_stay_out_of_the_timed_streams():
    import run
    import workloads as wl
    ordq = run.load_ordq()
    w = wl.WORKLOADS["scan-mix"]
    ctx = w.setup(ordq, w.context(3))
    explicit = {s for s, d in enumerate(gen.scan_structures()) if d["kind"] == "explicit-list"}
    risky = [i for i in itertools.islice(gen.scan_stream(3), 2000)
             if i["reduction"] == gen.COMPOSED[0] and i["structure"] in explicit]
    assert risky
    for item in risky:
        _, _, cause, _ = run.verdict(ordq, w.parse(ordq, ctx, item))
        assert cause is None, item
    assert all(i["reduction"] == gen.COMPOSED[0] and i["structure"] in explicit
               for i in gen.scan_defects(3, 40))
    assert not any(i["above_level"] for i in itertools.islice(gen.separation_stream(3), 900))
    assert all(i["above_level"] for i in gen.separation_defects(3, 50))

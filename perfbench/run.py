"""Run one perfbench workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload facility-year --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # each workload in a fresh process

A run measures for ``--seconds`` seconds and checks the program's outputs.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``BENCHMARK.json``. Before the final line it prints
every number by name with its unit and one ``record`` line: the full result
stamped with the host fingerprint, git SHA, seed and run length. The final
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "facility-year": "wl_facility_year",
    "workflow-dag": "wl_workflow_dag",
    "verify": "wl_verify",
}

#: Knobs that select non-default code paths; a run always measures the
#: production defaults, whatever the caller's environment says.
FOREIGN_KNOBS = ("REPRO_ENGINE_IMPL", "REPRO_TIMER_BANK")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", type=lambda f: Path(f).resolve(),
                   default=None, metavar="FILE",
                   help="write the traced run's spans here as JSON lines")
    return p.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process; non-zero if any fails."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], timeout=600).returncode
        worst = max(worst, code)
    return worst


def _metric_specs(bench: dict, trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics this kind of run must report."""
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = json.loads((HERE / "layers.json").read_text())[args.workload]

    # One CPU for the run and every process it starts: the speed probe then
    # samples the CPU the work runs on. (The campaign's closed loop never
    # runs its worker and server at once, so it loses no overlap.)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)  # temp paths stay short and relative (unix sockets)
    tmp_root = Path(".perfbench-tmp")
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    os.environ["REPRO_CACHE_DIR"] = str((tmp / "cache").resolve())
    for knob in FOREIGN_KNOBS:
        os.environ.pop(knob, None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from harness import (
            Context, Tracer, git_sha, host_fingerprint, peak_rss_mib,
        )

        module = importlib.import_module(WORKLOADS[args.workload])
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      tracer=Tracer(bool(args.trace)), tmp=tmp,
                      trace=bool(args.trace))
        ctx.measure_imports(module.IMPORTS)
        outcome = module.run(ctx)
        if args.spans_out is not None:
            ctx.tracer.write(args.spans_out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    run_s = ctx.median("run")
    setup_s = (ctx.median("import", traced=None)
               + ctx.median("setup", traced=None))
    failed, base, base_name = outcome.failed_share
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "failed_share": (failed / base if base else 0.0,
                         f"of {base} {base_name}"),
        **outcome.metrics,
    }
    specs = _metric_specs(bench, bool(args.trace))
    # spans are wall time: report them at the reference CPU speed too
    speed = ctx.speed()
    layers = {
        name: value * speed if specs.get(name) in ("s", "ms") else value
        for name, value in outcome.layers.items()
    }
    if args.trace:
        layers["bench.trace_overhead_s"] = (
            ctx.median("run", traced=True) - run_s
        )
        if set(layers) != set(declared["layers"]):
            raise SystemExit(
                "perfbench: layer metrics differ from layers.json: "
                f"{sorted(set(layers) ^ set(declared['layers']))}"
            )
        values = layers
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mib": named["peak_rss_mib"][0],
            "run_s": run_s,
            "items_per_s": outcome.items / run_s,
        }
    unknown = set(values) - set(specs)
    if unknown:
        raise SystemExit(f"perfbench: metrics not in BENCHMARK.json: "
                         f"{sorted(unknown)}")
    # a layer this workload never enters did no work: report it as 0
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in specs.items()}

    checks = ctx.checks
    for name, (value, unit) in named.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    for name in sorted(layers):
        print(f"{name:<34} {metrics[name]['value']:>14.6g} "
              f"{metrics[name]['unit']}")
    for message in checks.messages:
        print(f"check failed: {message}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_passes": sum(1 for x in ctx.samples if x.kind == "run"),
        "host_speed": speed,
        "run_wall_s": ctx.median("run", scaled=False),
        "wall_s": time.perf_counter() - started,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "why": declared["why"],
        "output_digest": outcome.digest,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in named.items()},
        "layers": layers,
        "checks": {"attempted": checks.attempted, "failed": checks.failed},
    }
    print("record " + json.dumps(record, sort_keys=True))
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, and exit without printing a result
        traceback.print_exc()
        sys.exit(1)

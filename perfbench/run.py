"""linkmorse benchmark: drives ``linkmorse.cli.main`` in-process on seeded inputs.

One run:
    python3 perfbench/run.py --workload verify_sweep --seed 0 --seconds 36 --trace 0

Every end-to-end metric of every workload, one fresh process per workload, one
after another:
    python3 perfbench/run.py --workload all --seed 0

Count self-test and tracing overhead (two traced runs and one untraced run
per workload on one seed):
    python3 perfbench/run.py --self-test --workload all --seed 0

A run times the import in five fresh interpreters and sets up its inputs
three times; setup_s is the median import plus the median set-up. It then makes
whole passes over the workload's items while the next pass still fits in
--seconds; there is always at least one pass. Item times cover the CLI calls
only. Output checks run in a forked child, outside the item times and outside
this process's peak RSS. With --trace 1 the per-layer metrics are reported per
pass and the spans are written under perfbench/out/. The last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("verify_sweep", "symbolic_records", "pitchfork_continuation")
# the import takes 0.2 s and is timed in fresh interpreters, where five samples
# cost little; generating the symbolic_records instances takes 4-5 s
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_s.p50", "s"), ("peak_rss_mb", "MB"))
RUN_TIMEOUT_S = 180
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import numpy, linkmorse.cli; print(time.perf_counter() - t0)")


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "linkmorse" / "__init__.py").is_file():
        raise SystemExit(f"error: no linkmorse sources under {src}")
    sys.path.insert(0, str(src))
    import linkmorse.cli

    if Path(linkmorse.cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: imported linkmorse from {linkmorse.cli.__file__}")
    return linkmorse.cli


def _import_seconds() -> float:
    """Seconds to import numpy and the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S)
    return float(proc.stdout)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment(seeds: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seeds": seeds,
    }


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten items beyond it (needs 11 items)."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(times)[n - 11], "items": n}


def _run_item(cli, item, tracer, label) -> tuple[float, int, str | None]:
    """(seconds in CLI calls, bytes written, failure or None)."""
    out = Path(tempfile.mkdtemp(prefix="item-", dir=OUT))
    if tracer:
        tracer.item = label
    elapsed, written, failure = 0.0, 0, None
    try:
        for argv in item.calls(out):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            elapsed += time.perf_counter() - t0
            if rc != 0:
                failure = f"exit code {rc} from {argv}"
                break
        written = sum(p.stat().st_size for p in out.iterdir())
        if failure is None:
            failure = _check_apart(item, out)
    except Exception as exc:  # an item that raises counts as failed; the run goes on
        failure = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return elapsed, written, failure


def _check_apart(item, out: Path) -> str | None:
    """Run the item's output check in a forked child, so that the memory it
    takes (the worked example's 33 MB output, loaded) never counts towards this
    process's peak RSS, and spans it records stay in the child. Returns the
    failure or None."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report and leave without running the parent's cleanup
        os.close(read_end)
        code = 0
        try:
            item.check(out)
        except BaseException as exc:
            traceback.print_exc(file=sys.stderr)
            os.write(write_end, f"{type(exc).__name__}: {exc}".encode()[:4096])
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        message = fh.read().decode(errors="replace")
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return message or f"output check ended with status {code}"
    return None


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    cli = _import_program()
    import workloads
    from tracing import PER_LAYER, Tracer

    import_times = [_import_seconds() for _ in range(IMPORT_REPEATS)]
    setup_times, setup = [], None
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        t0 = time.perf_counter()
        new = workloads.SETUPS[workload](workdir, seed)
        setup_times.append(time.perf_counter() - t0)
        if setup is not None:
            shutil.rmtree(setup[0])
        setup = (workdir, new)
    workdir, setup = setup

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    item_times, pass_times, failures, out_bytes = [], [], [], 0
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            t_pass = time.perf_counter()
            in_calls = 0.0
            for item in setup.items:
                label = f"{len(pass_times)}:{item.name}"
                dt, written, failure = _run_item(cli, item, tracer, label)
                item_times.append(dt)
                in_calls += dt
                out_bytes += written
                if failure:
                    failures.append({"item": label, "failure": failure})
            pass_times.append(in_calls)
            now = time.perf_counter()
            if now - start + (now - t_pass) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(pass_times)
    end_to_end = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "wall_s": statistics.median(pass_times),
        "item_s.p50": statistics.median(item_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "workload": workload,
        "trace": trace,
        "env": _environment(setup.seeds | {"benchmark": seed}),
        "seconds": seconds,
        "passes": passes,
        "attempted": len(item_times),
        "failed": len(failures),
        "failed_frac": len(failures) / len(item_times),
        "failures": failures,
        "item_s.tail": _tail(item_times),
        "item_s": item_times,
        "setup_times_s": setup_times,
        "import_times_s": import_times,
        "end_to_end": end_to_end,
        "info": setup.info,
    }
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer:
        result["per_layer"] = tracer.layer_metrics(passes, out_bytes)
        result["spans_per_pass"] = len(tracer.spans) / passes
        result["per_layer_units"] = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _report(result: dict) -> dict:
    """Human-readable lines, then the result object for the last line."""
    tail = result["item_s.tail"]
    tail_text = (f"p{tail['percentile']:.1f} = {tail['value_s']:.4f} s over {tail['items']} items"
                 if tail else f"n/a ({result['attempted']} items < 11)")
    print(f"# {result['workload']}: {result['passes']} pass(es), "
          f"failed_frac = {result['failed_frac']} "
          f"({result['failed']}/{result['attempted']}), item_s.tail = {tail_text}")
    for f in result["failures"]:
        print(f"# FAILED {f['item']}: {f['failure']}")
    if result["info"]:
        print(f"# info: {json.dumps(result['info'], sort_keys=True)}")
    print(f"# env: {json.dumps(result['env'], sort_keys=True)}")
    if result["trace"]:
        units = result["per_layer_units"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
        e2e = result["end_to_end"]
        print(f"# traced wall_s = {e2e['wall_s']:.4f} s, item_s.p50 = {e2e['item_s.p50']:.4f} s, "
              f"{result['spans_per_pass']:.0f} spans per pass")
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _child(args, workload: str, trace: int) -> dict:
    """One run in a fresh process; returns its result file."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} run exited with code {proc.returncode}")
    with open(OUT / f"{workload}-seed{args.seed}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args, names) -> int:
    rows, failed = [], 0
    for w in names:
        res = _child(args, w, 0)
        _report(res)
        failed += res["failed"]
        for name, unit in END_TO_END:
            rows.append((w, name, res["end_to_end"][name], unit))
        rows.append((w, "failed_frac", res["failed_frac"], "ratio"))
    print(f"{'workload':24s} {'metric':14s} {'value':>14s} unit")
    for w, name, value, unit in rows:
        print(f"{w:24s} {name:14s} {value:14.6f} {unit}")
    return 0 if failed == 0 else 1


def self_test(args, names) -> int:
    """Two traced runs on one seed give equal counts, byte totals and ratios;
    report the tracing overhead."""
    ok = True
    for w in names:
        # untraced between the two traced runs, so slow drift in machine
        # speed biases the overhead estimate less
        first = _child(args, w, 1)
        plain = _child(args, w, 0)
        second = _child(args, w, 1)
        units = first["per_layer_units"]
        for name, unit in units.items():
            if unit == "s":
                continue
            a, b = first["per_layer"][name], second["per_layer"][name]
            same = a == b
            ok &= same
            print(f"{w:24s} {name:42s} {a:>14} {b:>14} {'ok' if same else 'DIFFERS'}")
        traced = statistics.median([first["end_to_end"]["wall_s"],
                                    second["end_to_end"]["wall_s"]])
        untraced = plain["end_to_end"]["wall_s"]
        print(f"{w:24s} tracing overhead: traced wall_s {traced:.4f} s, untraced "
              f"{untraced:.4f} s, {100.0 * (traced / untraced - 1.0):+.1f}%, "
              f"{first['spans_per_pass']:.0f} spans per pass")
    print("self-test:", "counts repeat exactly" if ok else "COUNTS DIFFER")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.self_test:
        return self_test(args, names)
    if args.workload == "all":
        return run_all(args, names)
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    line = _report(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

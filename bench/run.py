"""Benchmark of the gipip attack pipeline: one workload per process.

    python3 bench/run.py --workload gipip-b1 --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, then calls `gipip attack` in this
process, one round after another, each into a fresh output directory, until
--seconds have passed since the first inversion started.  The first round
is the cold one and gives `setup_s`; `iters_per_s` is the median of the
rounds' rates.  Every round's outputs are checked (see checks.py).  The
last line of standard output is one JSON object: `correct`, `attempted` and
`failed` (inversions), and the end-to-end metrics, or with --trace 1 the
per-layer metrics of a traced run.
"""

from __future__ import annotations

import os

# one BLAS thread: a second one only burns CPU on these small matrices.
# OpenBLAS reads this when numpy loads, so it comes before any numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from probe import Probe, Round  # noqa: E402
from workloads import WORKLOADS, Workload, config_text, make_corpus  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"

def process_age_s() -> float:
    """Seconds since this process was started (0 where /proc is missing)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rpartition(")")[2].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def run_rounds(attack_main, w: Workload, seed: int, seconds: float, probe: Probe,
               work: Path) -> list[Round]:
    """Call `gipip attack` again and again until `seconds` after the first inversion."""
    rounds = []
    while not rounds or time.perf_counter() - (probe.first_attack or 0.0) < seconds:
        k = len(rounds)
        out = work / f"round{k}"
        prior = work / "round0" / "prior_model.bin" if k and w.uses_prior else None
        cfg = work / f"round{k}.ini"
        cfg.write_text(config_text(w, seed, work / "corpus", prior), encoding="ascii")
        argv = ["attack", "--config", str(cfg), "--output", str(out), "--jobs", "1"]
        rounds.append(probe.run_round(lambda: attack_main(argv), out))
    return rounds


def check_rounds(w: Workload, rounds: list[Round], pixels
                 ) -> tuple[list[str], list[checks.RoundOutput]]:
    """Check every round's outputs; returns the problems and the checked outputs."""
    problems, outputs = [], []
    for k, r in enumerate(rounds):
        try:
            if r.exit_code != 0:
                raise checks.CheckError(f"gipip attack exited with {r.exit_code}")
            if not r.steps:
                raise checks.CheckError("no optimizer step was seen")
            if len(r.inversions) != w.inversions:
                raise checks.CheckError(f"{len(r.inversions)} inversions ran, "
                                        f"expected {w.inversions}")
            out = checks.check_round(r.out_dir, pixels, w.inversions, w.batch_size,
                                     trained_prior=w.uses_prior and k == 0)
            for i, (inv, stalled) in enumerate(zip(r.inversions, out.stalled)):
                if inv.stalled != stalled:
                    raise checks.CheckError(f"run {i}: manifest says stalled={stalled}, "
                                            f"its last L-BFGS step said {inv.stalled}")
                if not inv.stalled and inv.steps != w.iterations:
                    raise checks.CheckError(f"run {i}: {inv.steps} optimizer steps, "
                                            f"budget {w.iterations}")
            if outputs:
                checks.check_same_results(outputs[0], out)
            outputs.append(out)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            problems.append(f"round {k}: {type(exc).__name__}: {exc}")
    return problems, outputs


def main(argv=None) -> int:
    started = time.perf_counter()
    age_at_start = process_age_s()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="rounds run until this long after the first inversion started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if not (src / "gipip" / "__init__.py").is_file():
        print(f"bench: no gipip package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gipip.cli
    if Path(gipip.__file__).resolve().parent != (src / "gipip").resolve():
        print(f"bench: imported gipip from {gipip.__file__}, not {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-s{args.seed}-", dir=OUT))
    try:
        corpus = work / "corpus"
        make_corpus(w.input_seed(args.seed), corpus)
        probe = Probe(trace=bool(args.trace))
        probe.install()
        try:
            rounds = run_rounds(gipip.cli.main, w, args.seed, args.seconds, probe, work)
        finally:
            probe.restore()
        problems, outputs = check_rounds(w, rounds, checks.read_cifar_pixels(corpus))
        if args.trace:
            values = probe.layer_metrics(rounds)
            with open(OUT / f"spans-{w.name}-s{args.seed}.csv", "w", encoding="ascii") as fh:
                fh.write("name,start_s,end_s,parent\n")
                fh.writelines(f"{n},{a:.9f},{b:.9f},{p}\n" for n, a, b, p in probe.spans)
        else:
            values = {
                "setup_s": age_at_start + ((probe.first_attack or started) - started),
                "iters_per_s": statistics.median(r.iters_per_s for r in rounds),
                "psnr_db": statistics.fmean(outputs[0].psnr) if outputs else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # names and units are declared once, in BENCHMARK.json
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != values.keys():
        raise SystemExit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json")
    attempted = sum(len(r.inversions) for r in rounds)
    failed = sum(inv.stalled for r in rounds for inv in r.inversions)
    for line in problems:
        print(f"CHECK FAILED {line}")
    print(f"{w.name} seed={args.seed}: {len(rounds)} rounds, "
          f"{sum(r.steps for r in rounds)} optimizer steps, steps/s by round "
          + " ".join(f"{r.iters_per_s:.1f}" for r in rounds))
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  inversions attempted {attempted}, failed {failed}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

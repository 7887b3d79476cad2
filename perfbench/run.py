"""The lieprolong benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  Each run starts a fresh worker process
(``worker.py``) with the BLAS thread variables pinned, plus a few fresh
set-up probes, prints every metric by name with its unit, writes the full
record to ``perfbench/out/results-<workload>-trace<t>.json`` and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.

``--workload all`` runs every workload untraced and traced twice with the
same seed, checks that the two traced runs give identical counts, reports
the tracing overhead and writes the baseline table to
``perfbench/out/baseline.md``.

Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from worker import DESCRIPTOR_CHECK_SAMPLES, DESCRIPTOR_FAITHFULNESS_SAMPLES, REPORT_SAMPLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("catalog_report", "cli_cold", "descriptor_sweep")
OP_NAMES = {
    "catalog_report": "report_s",
    "cli_cold": "cold_cycle_s",
    "descriptor_sweep": "descriptor_check_s",
}
# Every worker runs with the same, single-threaded BLAS: with two OpenBLAS
# threads the catalog set-up took 0.79-1.75 s on a 2-core machine, with
# one 0.80-0.93 s.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 2  # fresh set-up processes besides the worker itself
WORKER_TIMEOUT_S = 170

COUNT_METRICS = (
    # (metric, totals keys): calls per round, summed over the keys
    ("groups.sample_calls", ("groups.sample",)),
    ("groups.mat_exp_calls", ("groups.mat_exp",)),
    ("groups.tg_multiply_calls", ("groups.tg_multiply",)),
    ("groups.principal_log_calls", ("groups.principal_log",)),
    ("prolongation.rep_apply_calls", ("prolongation.rep_image",)),
    ("prolongation.prolong_calls", ("prolongation.prolong",)),
    ("prolongation.oracle_calls", ("prolongation.tangent_action_oracle",)),
    ("rep_algebra.check_homomorphism_calls", ("rep_algebra.check_homomorphism",)),
    ("rep_algebra.check_action_oracle_calls", ("rep_algebra.check_action_oracle",)),
    ("rep_algebra.check_equivalence_transfer_calls", ("rep_algebra.check_equivalence_transfer",)),
    ("rep_algebra.is_intertwiner_calls", ("rep_algebra.is_intertwiner",)),
    ("rep_algebra.check_invariance_transfer_calls", ("rep_algebra.check_invariance_transfer",)),
    ("rep_algebra.is_invariant_subspace_calls", ("rep_algebra.is_invariant_subspace",)),
    ("rep_algebra.check_direct_sum_commutation_calls",
     ("rep_algebra.check_direct_sum_commutation",)),
    ("rep_algebra.faithfulness_probe_calls", ("rep_algebra.faithfulness_probe",)),
    ("catalog.load_representation_calls", ("catalog.load_representation",)),
    ("kernel.cond_calls", ("kernel.cond",)),
    ("kernel.expm_calls", ("kernel.expm",)),
    ("kernel.logm_calls", ("kernel.logm",)),
)
TIME_METRICS = (
    # inclusive seconds per round, outermost call only
    ("groups.sample_s", "groups.sample"),
    ("groups.mat_exp_s", "groups.mat_exp"),
    ("groups.tg_multiply_s", "groups.tg_multiply"),
    ("groups.principal_log_s", "groups.principal_log"),
    ("prolongation.prolong_s", "prolongation.prolong"),
    ("prolongation.oracle_s", "prolongation.tangent_action_oracle"),
    ("rep_algebra.check_homomorphism_s", "rep_algebra.check_homomorphism"),
    ("rep_algebra.check_action_oracle_s", "rep_algebra.check_action_oracle"),
    ("rep_algebra.check_equivalence_transfer_s", "rep_algebra.check_equivalence_transfer"),
    ("rep_algebra.is_intertwiner_s", "rep_algebra.is_intertwiner"),
    ("rep_algebra.check_invariance_transfer_s", "rep_algebra.check_invariance_transfer"),
    ("rep_algebra.is_invariant_subspace_s", "rep_algebra.is_invariant_subspace"),
    ("rep_algebra.check_direct_sum_commutation_s", "rep_algebra.check_direct_sum_commutation"),
    ("rep_algebra.faithfulness_probe_s", "rep_algebra.faithfulness_probe"),
    ("catalog.load_representation_s", "catalog.load_representation"),
)
LAYERS = ("groups", "prolongation", "rep_algebra", "catalog", "kernel")
# Spans that some workload never enters: their time reads exactly 0 on every
# run there, so they are printed and kept in the results file but left out
# of the last line, which carries the metrics every workload has.
ZERO_ON_SOME_WORKLOAD = frozenset({
    "groups.principal_log_s",
    "rep_algebra.check_equivalence_transfer_s",
    "rep_algebra.is_intertwiner_s",
    "rep_algebra.check_invariance_transfer_s",
    "rep_algebra.is_invariant_subspace_s",
    "rep_algebra.check_direct_sum_commutation_s",
    "catalog.load_representation_s",
})


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def run_process(argv: list[str], timeout: float) -> int:
    """Run a worker in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_worker(extra: list[str], result_path: Path, timeout: float) -> dict:
    result_path.unlink(missing_ok=True)
    rc = run_process([sys.executable, str(WORKER), "--result", str(result_path), *extra],
                     timeout)
    if rc != 0 or not result_path.exists():
        raise RuntimeError(f"worker {' '.join(extra)} exited {rc} without a result")
    return json.loads(result_path.read_text())


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "thread_env": {k: v for k, v in worker_env().items() if k in PINNED_ENV},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(workload: str, result: dict, setups: list[float]) -> tuple[dict, dict]:
    """The contract metrics, and the wall-time detail printed beside them."""
    done = [r for r in result["records"] if r.get("ok")]
    walls = [r["wall_s"] for r in done]
    detail = {OP_NAMES[workload]: quartiles(walls),
              "yardstick_s": quartiles([r["reference_s"] for r in done]),
              "setup_s": quartiles(setups)}
    if workload == "cli_cold":
        for name in ("catalog", "prolong", "check"):
            detail[f"cold_{name}_s"] = quartiles([r["commands"][name]["wall_s"] for r in done])
        rss = statistics.median(max(c["maxrss_mb"] for c in r["commands"].values()) for r in done)
    else:
        rss = result["peak_rss_mb"]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_rel": {"value": statistics.median(r["ratio"] for r in done), "unit": "ratio"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, detail


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    rounds = layers["rounds"]
    totals = layers["totals"]
    metrics = {}
    for name, keys in COUNT_METRICS:
        calls = sum(totals.get(k, [0, 0.0])[0] for k in keys)
        metrics[name] = {"value": calls / rounds, "unit": "count"}
    for name, key in TIME_METRICS:
        metrics[name] = {"value": totals.get(key, [0, 0.0])[1] / rounds, "unit": "s"}
    for cache in ("tangent", "group"):
        hits, misses = layers["cache"][cache]
        lookups = hits + misses
        metrics[f"rep_algebra.{cache}_cache_lookups"] = {"value": lookups / rounds,
                                                         "unit": "count"}
        metrics[f"rep_algebra.{cache}_cache_hit_ratio"] = {
            "value": hits / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["rep_algebra.faithfulness_peak_bytes"] = {
        "value": layers["faithfulness_peak_bytes"], "unit": "bytes"}
    metrics["kernel.deprecation_warnings"] = {
        "value": layers["deprecation_warnings"] / rounds, "unit": "count"}
    metrics["catalog.verify_s"] = {"value": statistics.median(layers["first_catalog_s"]),
                                   "unit": "s"}
    metrics["cli.import_s"] = {"value": statistics.median(layers["import_s"]), "unit": "s"}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": layers["self"].get(layer, 0.0) / rounds,
                                      "unit": "s"}
    # cli.main and build_parser are the cli layer's only public functions.
    metrics["cli.main_self_s"] = {"value": layers["self"].get("cli", 0.0) / rounds,
                                  "unit": "s"}
    done = [r for r in result["records"] if r.get("ok")]
    metrics["trace.op_s"] = {"value": statistics.median(r["wall_s"] for r in done), "unit": "s"}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-trace{int(trace)}"
    result = run_worker(["--workload", workload, "--seed", str(seed), "--seconds",
                         str(seconds), "--trace", str(int(trace))],
                        OUT / f"worker-{tag}.json", WORKER_TIMEOUT_S)
    records = result["records"]
    failed = sum(not r.get("ok") for r in records)
    attempted = sum(r["attempted"] for r in records)  # a cold start is one operation
    attempted += 1  # the byte-identity probe
    failed += not result["probe"].get("identical")
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment(), "attempted": attempted, "failed": failed,
               "error_rate": failed / attempted, "probe": result["probe"]}
    if failed == attempted or not any(r.get("ok") for r in records):
        summary["metrics"] = {}
    elif trace:
        summary["metrics"] = per_layer(result)
    else:
        setups = [result["setup"]["setup_s"]]
        for i in range(SETUP_PROBES):
            probe = run_worker(["--setup-only"], OUT / "worker-setup.json", 120)
            setups.append(probe["setup"]["setup_s"])
        summary["metrics"], summary["detail"] = end_to_end(workload, result, setups)
    reference = json.loads((HERE / "reference.json").read_text()).get(workload)
    summary["probe"]["reference_sha256"] = reference
    summary["probe"]["matches_reference"] = (
        None if reference is None else reference == result["probe"].get("sha256"))
    summary["worker"] = result
    (OUT / f"results-{tag}.json").write_text(json.dumps(summary, indent=1, allow_nan=False))
    return summary


def print_summary(summary: dict) -> None:
    print(f"# {summary['workload']} seed={summary['seed']} trace={int(summary['trace'])} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"error_rate={summary['error_rate']:.3f}")
    for record in summary["worker"]["records"]:
        if not record.get("ok"):
            print(f"  FAILED round {record['round']} seed {record['seed']}: {record['error']}")
    probe = summary["probe"]
    print(f"  byte-identity probe (seed {probe['seed']}): identical={probe.get('identical')} "
          f"sha256={probe.get('sha256')} matches_reference={probe['matches_reference']}")
    for name, entry in summary.get("detail", {}).items():
        if entry:
            print(f"  {name:<22} median {entry['median']:.4f} s  "
                  f"q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  n={entry['n']}")
    for name, entry in summary["metrics"].items():
        print(f"  {name:<48} {entry['value']:.6g} {entry['unit']}")


def contract_line(summary: dict) -> str:
    metrics = {k: v for k, v in summary["metrics"].items() if k not in ZERO_ON_SOME_WORKLOAD}
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }, allow_nan=False)


def run_all(seed: int, seconds: float) -> int:
    """Untraced and twice-traced runs of every workload, and the baseline table."""
    rows = {}
    identical_counts = True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False)
        print_summary(plain)
        traced = [run_workload(workload, seed, seconds, True) for _ in range(2)]
        print_summary(traced[0])
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        same = not differing
        identical_counts &= same
        overhead = (traced[0]["metrics"]["trace.op_s"]["value"]
                    / plain["detail"][OP_NAMES[workload]]["median"])
        print(f"  traced counts identical across two runs: {same} {differing or ''}; "
              f"tracing overhead {100 * (overhead - 1):+.1f}% on median wall time")
        rows[workload] = {"plain": plain, "traced": traced[0], "counts_identical": same,
                          "overhead": overhead - 1}
    full = run_worker(["--workload", "catalog_report", "--seed", str(seed), "--seconds", "0",
                       "--trace", "0", "--report-samples", "200"],
                      OUT / "worker-report200.json", WORKER_TIMEOUT_S)
    table = baseline_table(rows, full)
    (OUT / "baseline.md").write_text(table)
    (OUT / "baseline.json").write_text(json.dumps(
        {w: {k: v for k, v in r.items() if k not in ("plain", "traced")} |
         {"plain": r["plain"]["metrics"], "detail": r["plain"]["detail"],
          "traced": r["traced"]["metrics"]} for w, r in rows.items()}, indent=1))
    print(table)
    ok = identical_counts and all(
        r["plain"]["failed"] == 0 and r["traced"]["failed"] == 0 for r in rows.values())
    ok &= all(r.get("ok") for r in full["records"])
    return 0 if ok else 1


def baseline_table(rows: dict, full: dict) -> str:
    env = environment()
    src = sorted((ROOT / "src" / "lieprolong").glob("*.py"))
    src_lines = sum(len(p.read_text().splitlines()) for p in src)
    rep_algebra = len((ROOT / "src" / "lieprolong" / "rep_algebra.py").read_text().splitlines())
    report = rows["catalog_report"]
    cold = rows["cli_cold"]
    desc = rows["descriptor_sweep"]

    def m(row, name, kind="traced"):
        return row[kind]["metrics"][name]["value"]

    def wall(row, name):
        return row["plain"]["detail"][name]["median"]

    lines = [
        f"Machine: {env['nproc']} cores, Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['blas']}, BLAS threads pinned to 1.",
        "",
        "| What | Number |",
        "|---|---|",
        f"| `report --samples 200`, one in-process run | {full['records'][0]['wall_s']:.2f} s |",
        f"| `report --samples {REPORT_SAMPLES}`, median wall time / `op_rel` | "
        f"{wall(report, 'report_s'):.2f} s / {m(report, 'op_rel', 'plain'):.3f} |",
        f"| ... suite time in `check_equivalence_transfer` (traced) | "
        f"{m(report, 'rep_algebra.check_equivalence_transfer_s'):.2f} s |",
        f"| ... `np.linalg.cond` / `rep_image` / `prolong` / `expm` calls per report | "
        f"{m(report, 'kernel.cond_calls'):.0f} / {m(report, 'prolongation.rep_apply_calls'):.0f}"
        f" / {m(report, 'prolongation.prolong_calls'):.0f} / {m(report, 'kernel.expm_calls'):.0f} |",
        f"| ... tangent-sample cache hit ratio | "
        f"{m(report, 'rep_algebra.tangent_cache_hit_ratio'):.3f} of "
        f"{m(report, 'rep_algebra.tangent_cache_lookups'):.0f} lookups |",
    ]
    for name in ("catalog", "prolong", "check"):
        d = cold["plain"]["detail"][f"cold_{name}_s"]
        lines.append(f"| cold `{name}` subprocess, median | {d['median']:.2f} s |")
    lines += [
        f"| ... one cold cycle, median wall time / `op_rel` | "
        f"{wall(cold, 'cold_cycle_s'):.2f} s / {m(cold, 'op_rel', 'plain'):.3f} |",
        f"| ... import / catalog self-verify in a cold child (traced, median) | "
        f"{m(cold, 'cli.import_s'):.2f} s / {m(cold, 'catalog.verify_s'):.2f} s |",
        f"| set-up: `import lieprolong` + first `catalog_list()`, median | "
        f"{m(report, 'setup_s', 'plain'):.2f} s |",
        f"| descriptor check (hom + oracle at {DESCRIPTOR_CHECK_SAMPLES}, faithfulness at "
        f"{DESCRIPTOR_FAITHFULNESS_SAMPLES}), median wall time / `op_rel` | "
        f"{wall(desc, 'descriptor_check_s'):.2f} s / {m(desc, 'op_rel', 'plain'):.3f} |",
        f"| ... `logm` calls and `logm(disp=False)` DeprecationWarnings per op | "
        f"{m(desc, 'kernel.logm_calls'):.0f} / {m(desc, 'kernel.deprecation_warnings'):.0f} |",
        f"| ... faithfulness probe peak traced allocation | "
        f"{m(desc, 'rep_algebra.faithfulness_peak_bytes') / 2**20:.1f} MiB |",
        f"| peak RSS: report / cold child / descriptor worker | "
        f"{m(report, 'peak_rss_mb', 'plain'):.0f} / {m(cold, 'peak_rss_mb', 'plain'):.0f} / "
        f"{m(desc, 'peak_rss_mb', 'plain'):.0f} MB |",
        f"| tracing overhead on median wall time: report / cold / descriptor | "
        f"{100 * report['overhead']:+.0f}% / {100 * cold['overhead']:+.0f}% / "
        f"{100 * desc['overhead']:+.0f}% |",
        f"| source size | `src/` {src_lines} lines (`rep_algebra.py` {rep_algebra}) |",
    ]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description="lieprolong benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lieprolong" / "__init__.py").is_file():
        print(f"error: no lieprolong sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Compile the package and the yardstick once, so set-up time does not
    # include byte-compiling.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                    str(HERE / "yardstick")],
                   check=True, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(summary)
    if not summary["metrics"]:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(contract_line(summary))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

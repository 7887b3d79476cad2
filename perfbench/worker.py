"""One workload run, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 --result PATH
       python3 perfbench/worker.py --setup-only --result PATH

The worker imports lieprolong from ``src/`` of the checkout, times the
import and the first ``catalog_list()`` (the set-up), then runs the
workload as a single-caller closed loop: the next operation starts only
after the previous one has finished and its output has been verified.
Round 0 always uses the fixed ``PROBE_SEED`` and is repeated once after
the loop, untimed, to check that the canonical JSON bytes are identical.
The result, with every operation's record, goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = "lieprolong"
# The yardstick: a frozen copy of the package as it was when this
# benchmark was written.  Every timed operation is paired with the same
# operation on the copy, run right beside it, and the gated time is the
# ratio of the two, which cancels the shared machine's changing speed.
REFERENCE_PACKAGE = "lieprolong_ref"
SOURCES = {PACKAGE: ROOT / "src", REFERENCE_PACKAGE: HERE / "yardstick"}

# Run sizes.  The catalog report uses 50 samples, not the 200 of the
# ROADMAP row: one report at 200 takes about 11 s on 2 cores, which leaves
# too few reports in one run for a steady median.
REPORT_SAMPLES = 50
DESCRIPTOR_CHECK_SAMPLES = 30
DESCRIPTOR_FAITHFULNESS_SAMPLES = 800
COLD_CHECK_SAMPLES = 20
PROBE_SEED = 1310

CATALOG = (
    ("circle_rotation", 0),
    ("circle_winding_2", 0),
    ("gl_identity(1)", 0),
    ("gl_identity(2)", 0),
    ("gl_identity(3)", 0),
    ("sl2_standard", 0),
    ("so3_standard", 0),
    ("trivial(1)", 1),
    ("trivial(2)", 1),
    ("circle_double", 2),
    ("circle_plus_trivial", 2),
)
# Entries that are not injective: their faithfulness probe must fail with
# a kernel collision, so ``report`` exits 1 by design.
KERNEL_COLLISIONS = ("circle_winding_2", "trivial(1)", "trivial(2)")
SAMPLE_CACHES = ("_group_sample", "_tangent_sample")


class VerificationError(Exception):
    """An operation's output differs from what the benchmark expects."""


def op_seed(workload: str, seed: int, k: int) -> int:
    if k == 0:
        return PROBE_SEED
    return random.Random(f"{workload}/{seed}/{k}").randrange(1, 2**31)


def strict_json(text: str):
    def reject(constant):
        raise VerificationError(f"output is not strict JSON: it contains {constant}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise VerificationError(f"output is not JSON: {exc}") from None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def suite_names(entry: str, subspaces: int) -> list[str]:
    names = ["homomorphism(base)", "homomorphism(prolonged)", "action_oracle",
             "equivalence_transfer"]
    names += [f"invariance_transfer[{k}]" for k in range(subspaces)]
    names += ["vertical_invariance", "direct_sum_commutation", "faithfulness_probe"]
    return names


def verify_checks(doc, command: str, expected: list[str], config: dict,
                  failing: tuple[str, ...] = ()) -> None:
    expect(doc.get("command") == command, f"command is {doc.get('command')!r}")
    for key, value in config.items():
        expect(doc["config"].get(key) == value,
               f"config.{key} is {doc['config'].get(key)!r}, expected {value!r}")
    names = [c["name"] for c in doc["checks"]]
    expect(names == expected, f"check list differs: {names}")
    for check in doc["checks"]:
        expect(isinstance(check["max_residual"], float), f"{check['name']}: bad residual")
        if check["name"] in failing:
            witness = check.get("witness") or {}
            expect(check["verdict"] == "fail" and witness.get("kind") == "kernel_collision",
                   f"{check['name']}: expected a kernel_collision failure, got {check}")
        else:
            expect(check["verdict"] == "pass", f"{check['name']}: {check['verdict']}")


def verify_report(rc: int, text: str, samples: int, seed: int) -> None:
    expect(rc == 1, f"report exited {rc}, expected 1 (three known kernel collisions)")
    expected = [f"{entry}::{name}" for entry, k in CATALOG for name in suite_names(entry, k)]
    failing = tuple(f"{entry}::faithfulness_probe" for entry in KERNEL_COLLISIONS)
    verify_checks(strict_json(text), "report", expected, {"samples": samples, "seed": seed},
                  failing)


# -- in-process operations --------------------------------------------------


class Session:
    """The imported package and per-run settings and counters."""

    def __init__(self, trace: bool, package: str = PACKAGE):
        self.package = package
        self.trace = trace
        self.measure_memory = False
        self.report_samples = REPORT_SAMPLES
        self.commands_attempted = 0
        self.cli = sys.modules[f"{package}.cli"]
        self.rep_algebra = sys.modules[f"{package}.rep_algebra"]
        self.caches = [getattr(self.rep_algebra, name, None) for name in SAMPLE_CACHES]

    def clear_caches(self) -> None:
        """Start every operation with cold sample caches, as a CLI call does."""
        for cache in self.caches:
            if cache is not None:
                cache.cache_clear()

    def cache_counts(self) -> dict:
        out = {}
        for name, cache in zip(("group", "tangent"), self.caches):
            info = cache.cache_info() if cache is not None else None
            out[name] = [info.hits, info.misses] if info else [0, 0]
        return out

    def main(self, argv: list[str]) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        if rc not in (0, 1):
            raise VerificationError(f"{argv[0]} exited {rc}: {stderr.getvalue().strip()}")
        return rc, stdout.getvalue()


def report_op(session: Session, seed: int) -> tuple[float, list[bytes], dict]:
    samples = session.report_samples
    start = time.perf_counter()
    rc, text = session.main(["report", "--samples", str(samples), "--seed", str(seed)])
    wall = time.perf_counter() - start
    verify_report(rc, text, samples, seed)
    return wall, [text.encode()], {}


SO3_GENERATORS = ((0, 1), (0, 2), (1, 2))


def descriptor_document(seed: int) -> dict:
    """SO(3) on R^3 + R^3, conjugated by a seeded rotation of R^6.

    The generator images are Q block_diag(L_k, L_k) Q^T: a faithful
    representation of target dimension 6 whose loops close exactly.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q = q * np.sign(np.diag(r))
    images = []
    for i, j in SO3_GENERATORS:
        L = np.zeros((3, 3))
        L[i, j], L[j, i] = 1.0, -1.0
        block = np.zeros((6, 6))
        block[:3, :3] = block[3:, 3:] = L
        images.append((q @ block @ q.T).tolist())
    return {
        "name": f"so3_doubled_{seed}",
        "group": {"kind": "SpecialOrthogonal", "dim": 3},
        "target_dim": 6,
        "map": {"kind": "generators", "generator_images": images},
    }


DESCRIPTOR_SUITES = (
    ("homomorphism", DESCRIPTOR_CHECK_SAMPLES, ["homomorphism(base)", "homomorphism(prolonged)"]),
    ("oracle", DESCRIPTOR_CHECK_SAMPLES, ["action_oracle"]),
    ("faithfulness", DESCRIPTOR_FAITHFULNESS_SAMPLES, ["faithfulness_probe"]),
)


def descriptor_op(session: Session, seed: int, suites=DESCRIPTOR_SUITES):
    # Relative to the checkout root, the working directory, so the path the
    # report echoes (and so its digest) is the same in every checkout.
    name = "descriptor_sweep.json" if session.package == PACKAGE else "descriptor_sweep_ref.json"
    path = (OUT / name).relative_to(ROOT)
    outputs = []
    start = time.perf_counter()
    (ROOT / path).write_text(json.dumps(descriptor_document(seed)))
    for suite, samples, _names in suites:
        outputs.append(session.main(["check", "--rep", str(path), "--suite", suite,
                                     "--samples", str(samples), "--seed", str(seed)]))
    wall = time.perf_counter() - start
    for (rc, text), (suite, samples, names) in zip(outputs, suites):
        expect(rc == 0, f"check --suite {suite} exited {rc}")
        verify_checks(strict_json(text), "check", names,
                      {"suite": suite, "samples": samples, "seed": seed})
    return wall, [text.encode() for _rc, text in outputs], {}


# -- cold CLI operations ----------------------------------------------------


def child_env(package: str = PACKAGE) -> dict:
    env = dict(os.environ)
    env.pop("LIEPROLONG_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCES[package])] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], tag: str, package: str = PACKAGE):
    """Run one subprocess to completion; return (rc, stdout, stderr, wall, maxrss MB)."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(package))
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
            usage.ru_maxrss / 1024.0)


def cold_commands(seed: int) -> list[tuple[str, list[str]]]:
    rng = random.Random(seed)
    a = [rng.uniform(-1.0, 1.0) for _ in range(9)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(9)]
    return [
        ("catalog", ["catalog"]),
        ("prolong", ["prolong", "--rep", "gl_identity(3)",
                     "--a-coords=" + ",".join(map(repr, a)),
                     "--fiber=" + ",".join(map(repr, b)), "--seed", str(seed)]),
        ("check", ["check", "--rep", "so3_standard", "--suite", "all",
                   "--samples", str(COLD_CHECK_SAMPLES), "--seed", str(seed)]),
    ]


def verify_prolong(doc, argv: list[str]) -> None:
    import numpy as np
    import scipy.linalg

    flags = dict(arg.split("=", 1) for arg in argv if "=" in arg)
    a = np.array([float(x) for x in flags["--a-coords"].split(",")])
    b = np.array([float(x) for x in flags["--fiber"].split(",")])
    R = scipy.linalg.expm(a.reshape(3, 3))
    KR = b.reshape(3, 3) @ R
    result = doc["result"]
    top, bottom, dense = (np.array(result[k]) for k in ("top_left", "bottom_left", "dense"))
    expect(top.shape == (3, 3) and bottom.shape == (3, 3) and dense.shape == (6, 6),
           "prolong blocks have the wrong shape")
    expect(np.max(np.abs(top - R)) <= 1e-12 * max(1.0, np.max(np.abs(R))),
           "top_left differs from expm of the coordinate matrix")
    expect(np.max(np.abs(bottom - KR)) <= 1e-12 * max(1.0, np.max(np.abs(KR))),
           "bottom_left differs from B @ R")
    expect(np.array_equal(dense[:3, :3], top) and np.array_equal(dense[3:, 3:], top)
           and np.array_equal(dense[3:, :3], bottom) and not np.any(dense[:3, 3:]),
           "dense layout is not [[R, 0], [K R, R]]")
    verify_checks(doc, "prolong", ["differential_consistency", "action_oracle"], {})


def verify_cold(name: str, argv: list[str], rc: int, stdout: bytes, stderr: bytes) -> None:
    expect(rc == 0, f"{name} exited {rc}: {stderr.decode(errors='replace').strip()[-400:]}")
    doc = strict_json(stdout.decode())
    if name == "catalog":
        names = [e["name"] for e in doc.get("entries", [])]
        expect(names == [entry for entry, _k in CATALOG], f"catalog lists {names}")
    elif name == "prolong":
        verify_prolong(doc, argv)
    else:
        seed = int(argv[argv.index("--seed") + 1])
        verify_checks(doc, "check", suite_names("so3_standard", 0),
                      {"suite": "all", "samples": COLD_CHECK_SAMPLES, "seed": seed})


def cold_op(session, seed: int, names=("catalog", "prolong", "check"), package=PACKAGE):
    """One cycle of cold CLI starts; with a tracer, each child traces itself."""
    traced = session.trace
    wall, outputs, parts = 0.0, [], {"commands": {}, "children": []}
    for name, args in cold_commands(seed):
        if name not in names:
            continue
        if traced:
            trace_path = OUT / f"cold-{name}.trace.json"
            memory = "1" if session.measure_memory else "0"
            argv = [sys.executable, str(HERE / "cold_child.py"), str(trace_path), memory, *args]
        else:
            argv = [sys.executable, "-m", package, *args]
        if package == PACKAGE:
            session.commands_attempted += 1
        rc, stdout, stderr, seconds, rss = run_child(argv, f"cold-{name}", package)
        verify_cold(name, args, rc, stdout, stderr)
        wall += seconds
        outputs.append(stdout)
        parts["commands"][name] = {"wall_s": seconds, "maxrss_mb": rss}
        if traced:
            parts["children"].append(json.loads(trace_path.read_text()))
    return wall, outputs, parts


# -- the run ----------------------------------------------------------------


# workload: (timed operation, the part of round 0 the byte-identity probe repeats)
WORKLOADS = {
    "catalog_report": (report_op, report_op),
    "descriptor_sweep": (descriptor_op,
                         lambda s, seed: descriptor_op(s, seed, DESCRIPTOR_SUITES[2:])),
    "cli_cold": (cold_op, lambda s, seed: cold_op(s, seed, ("check",))),
}


def setup(trace: bool, package: str = PACKAGE):
    """Import the package and read the catalog once; time both."""
    sys.path.insert(0, str(SOURCES[package]))
    start = time.perf_counter()
    module = importlib.import_module(package)
    importlib.import_module(f"{package}.cli")
    imported = time.perf_counter()
    expect(Path(module.__file__).resolve().is_relative_to(SOURCES[package]),
           f"{package} was imported from {module.__file__}, not from {SOURCES[package]}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    catalog_start = time.perf_counter()
    module.catalog_list()
    done = time.perf_counter()
    return tracer, {"import_s": imported - start, "catalog_s": done - catalog_start,
                    "setup_s": (imported - start) + (done - catalog_start)}


class ReferenceWorker:
    """A second fresh process that runs in-process operations on the yardstick.

    It answers each seed written to its stdin with one JSON line holding the
    yardstick's wall time for that operation.  Only one of the two processes
    works at a time.
    """

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--serve-reference",
             "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self._reply()  # set-up done

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the yardstick worker ended early")
        reply = json.loads(line)
        if "error" in reply:
            raise VerificationError(f"yardstick: {reply['error']}")
        return reply

    def run(self, seed: int) -> float:
        self.proc.stdin.write(f"{seed}\n")
        self.proc.stdin.flush()
        return self._reply()["wall_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve_reference(workload: str) -> None:
    """The yardstick side of ReferenceWorker."""
    setup(False, REFERENCE_PACKAGE)
    session = Session(False, REFERENCE_PACKAGE)
    timed_op = WORKLOADS[workload][0]
    print(json.dumps({"ready": True}), flush=True)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        for line in sys.stdin:
            session.clear_caches()
            try:
                reply = {"wall_s": timed_op(session, int(line))[0]}
            except Exception as exc:  # noqa: BLE001 - reported to the other side
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            print(json.dumps(reply), flush=True)


def run(workload: str, seed: int, seconds: float, trace: bool,
        report_samples: int = REPORT_SAMPLES) -> dict:
    # Cold CLI children trace themselves; the worker only drives them.
    tracer, setup_times = setup(trace and workload != "cli_cold")
    session = Session(trace)
    session.report_samples = report_samples
    timed_op, probe_op = WORKLOADS[workload]
    yardstick = None
    if trace:
        reference_op = None
    elif workload == "cli_cold":
        def reference_op(s):
            return cold_op(session, s, package=REFERENCE_PACKAGE)[0]
    else:
        yardstick = ReferenceWorker(workload)
        reference_op = yardstick.run
    records = []
    deadline = time.perf_counter() + seconds
    with contextlib.ExitStack() as stack, warnings.catch_warnings(record=True) as caught:
        if yardstick is not None:
            stack.callback(yardstick.close)
        warnings.simplefilter("always")
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            s = op_seed(workload, seed, k)
            session.clear_caches()
            if tracer is not None:
                tracer.op = k
            warned = len(caught)
            record = {"round": k, "seed": s}
            session.commands_attempted = 0
            try:
                # The yardstick goes first on odd rounds and second on even
                # ones, so a drift in machine speed does not favour either.
                if reference_op is not None and k % 2:
                    record["reference_s"] = reference_op(s)
                    session.clear_caches()
                wall, outputs, parts = timed_op(session, s)
                if reference_op is not None and not k % 2:
                    record["reference_s"] = reference_op(s)
                if reference_op is not None:
                    record["ratio"] = wall / record["reference_s"]
                record.update(wall_s=wall, ok=True,
                              sha256=[hashlib.sha256(o).hexdigest() for o in outputs], **parts)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                record.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                              traceback=traceback.format_exc())
            record["attempted"] = max(1, session.commands_attempted)
            record["cache"] = session.cache_counts()
            record["deprecation_warnings"] = sum(
                issubclass(w.category, DeprecationWarning) for w in caught[warned:])
            record["other_warnings"] = len(caught) - warned - record["deprecation_warnings"]
            records.append(record)
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Byte-identity probe: repeat round 0 (fixed seed) with cold caches.
        session.clear_caches()
        session.measure_memory = True
        if tracer is not None:
            tracer.op = -2
            tracer.measure_memory = True
        probe = {"seed": PROBE_SEED}
        try:
            _wall, outputs, parts = probe_op(session, PROBE_SEED)
            probe["sha256"] = hashlib.sha256(outputs[-1]).hexdigest()
            probe["first_sha256"] = records[0].get("sha256", [None])[-1]
            probe["identical"] = probe["sha256"] == probe["first_sha256"]
            probe["children"] = parts.get("children", [])
        except Exception as exc:  # noqa: BLE001
            probe.update(identical=False, error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback.format_exc())
    result = {"workload": workload, "seed": seed, "trace": trace, "setup": setup_times,
              "peak_rss_mb": peak_rss_mb, "records": records, "probe": probe}
    if trace:
        if tracer is not None:
            tracer.active = False
            tracer.dump(OUT / f"spans-{workload}.npz")
        result["layers"] = layer_sums(tracer, records, probe, setup_times)
    return result


def merge(sums: dict, part: dict) -> None:
    """Add one traced process's (or round's) layer figures into ``sums``."""
    for key, (calls, seconds) in part.get("totals", {}).items():
        slot = sums["totals"].setdefault(key, [0, 0.0])
        slot[0] += calls
        slot[1] += seconds
    for layer, seconds in part.get("self", {}).items():
        sums["self"][layer] = sums["self"].get(layer, 0.0) + seconds
    for name, (hits, misses) in part.get("cache", {}).items():
        sums["cache"][name][0] += hits
        sums["cache"][name][1] += misses
    sums["import_s"] += part.get("import_s", [])
    sums["first_catalog_s"] += part.get("first_catalog_s", [])
    sums["deprecation_warnings"] += part.get("deprecation_warnings", 0)


def layer_sums(tracer, records: list[dict], probe: dict, setup_times: dict) -> dict:
    """Layer figures summed over the timed rounds; peak bytes from the probe."""
    sums = {"rounds": len(records), "totals": {}, "self": {},
            "cache": {"group": [0, 0], "tangent": [0, 0]}, "import_s": [],
            "first_catalog_s": [], "deprecation_warnings": 0}
    if tracer is not None:
        rounds = range(len(records))
        merge(sums, {"totals": tracer.op_totals(rounds),
                     "self": tracer.layer_self_seconds(rounds),
                     "import_s": [setup_times["import_s"]],
                     "first_catalog_s": [tracer.first_catalog_s]})
        for record in records:
            merge(sums, {"cache": record["cache"],
                         "deprecation_warnings": record["deprecation_warnings"]})
        sums["faithfulness_peak_bytes"] = tracer.faithfulness_peak_bytes
    else:
        for record in records:
            for child in record.get("children", []):
                merge(sums, child)
        sums["faithfulness_peak_bytes"] = max(
            [c["faithfulness_peak_bytes"] for c in probe.get("children", [])], default=0)
    return sums


def setup_only() -> dict:
    _tracer, times = setup(False)
    return {"setup": times, "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report-samples", type=int, default=REPORT_SAMPLES)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--serve-reference", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    if args.serve_reference:
        serve_reference(args.workload)
        return 0
    if not args.setup_only:
        # One CPU for the worker, its yardstick worker and its cold
        # children: the two sides of each pair then run on the same CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_only:
        result = setup_only()
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.report_samples)
    Path(args.result).write_text(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

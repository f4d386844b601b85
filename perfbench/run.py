"""degenpoly benchmark.

    python3 perfbench/run.py --workload verify-n12 --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client; one workload process runs at a time):
  verify-n12    one fresh process runs
                ``degenpoly verify --identity all --n-max 12 --order 14 --format json``
                (377 checks per pass).
  tabulate-n20  the 19 ``table``/``stirling``/``series`` commands at size 20,
                each in its own fresh process, in the order the seed picks.
  eval-grid     one fresh process builds family(kind, 12) for all ten kinds
                (set-up), then sweeps a seeded grid of 6 rational points
                (l, x, y), evaluating all 130 rows at each: 780 evaluations
                per pass, one pass per sweep.

With ``--trace 0`` passes of the workload repeat while another one is
expected to end within ``--seconds`` (at least one pass; a pass is never
cut) and the end-to-end metrics are printed, each a median over the run's
passes (set-up: over its samples).
With ``--trace 1`` the run is the same for every workload: one traced pass
of each workload, the fixed-operand kernel timings and the n_max 9 / 12
scaling record; it prints the per-layer metrics, each read from the workload
it is predicted to move (targets.json).  Either way the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
human-readable summary goes to stderr.  Every command's stdout is checked
against the sha256 in golden.json, every eval-grid value against a plain
Fraction evaluation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spec

ROOT = spec.BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = spec.BENCH_DIR / "child.py"
# Span files of the traced run; listed in the root .gitignore.
TRACE_DIR = ROOT / ".perfbench-out"
# Every child is killed by this deadline, so a run ends within 180 s.
DEADLINE = time.monotonic() + 170
# Set-up is sampled until there are at least SETUP_SAMPLES samples summing
# to at least SETUP_SAMPLED_S, so that a cheap (noisy) start gets more of
# them; never more than SETUP_MAX_SAMPLES.
SETUP_SAMPLES = 5
SETUP_SAMPLED_S = 1.0
SETUP_MAX_SAMPLES = 20

IDENTITY_TAGS = (
    "T1_expand", "T1_conj", "T2_cos", "T2_sin", "T3_cos", "T3_sin", "T4_cos",
    "T4_sin", "P5_shift_cos", "P5_shift_sin", "T6_reflect_cos", "T6_reflect_sin",
    "TB_closed_cos", "TB_closed_sin", "T8_reflect_cos", "T8_reflect_sin",
    "E57_shift_cos", "E58_shift_sin", "T9_diff_cos", "T9_diff_sin", "C10_cos",
    "C10_sin", "E61_E62_x0", "T7_stirling_euler_cos", "T7_stirling_euler_sin",
    "E63_stirling_bern_cos", "E63_stirling_bern_sin", "L0_classical_limits",
    "D_decomposition",
)
# Checks per verify pass (one report line each).
VERIFY_CHECKS = {spec.VERIFY_N12: 377, spec.VERIFY_N9: 290}


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no package to run)."""


@dataclass
class Child:
    spawn_ns: int
    exit_ns: int
    rc: int
    stdout: bytes
    report: dict | None

    @property
    def setup_s(self) -> float:
        return (self.report["ready_ns"] - self.spawn_ns) / 1e9

    @property
    def work_s(self) -> float:
        return (self.report["done_ns"] - self.report["ready_ns"]) / 1e9


def spawn(*args: str) -> Child:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Cache bytecode, as an installed package would: set-up then measures
    # imports, not compiling the sources on every start.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                              capture_output=True, timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        return Child(start, time.monotonic_ns(), -1, b"", None)
    end = time.monotonic_ns()
    if proc.returncode == 3:  # child.NO_PACKAGE
        raise BenchError(proc.stderr.decode(errors="replace").strip())
    report = None
    lines = proc.stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith("PERFBENCH "):
        report = json.loads(lines[-1][len("PERFBENCH "):])
    return Child(start, end, proc.returncode, proc.stdout, report)


@dataclass
class Pass:
    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    rss_kib: list = field(default_factory=list)
    procs: int = 0


def cli_ok(golden, child: Child, argv) -> bool:
    return (child.rc == 0 and child.report is not None and child.report.get("rc") == 0
            and spec.output_ok(golden, argv, child.stdout))


def add_cli(p: Pass, golden, argv, ops: int, trace_base=None) -> Child:
    trace = ["--trace", str(trace_base)] if trace_base else []
    child = spawn("cli", *trace, "--", *argv)
    p.procs += 1
    p.ops += ops
    if not cli_ok(golden, child, argv):
        p.failed += ops
        return child
    p.setup_s.append(child.setup_s)
    p.rss_kib.append(child.report["maxrss_kib"])
    return child


def verify_pass(golden, argv=spec.VERIFY_N12, trace_base=None) -> Pass:
    p = Pass()
    child = add_cli(p, golden, argv, VERIFY_CHECKS[argv], trace_base)
    if not p.failed:
        p.wall_s = child.work_s
    return p


def tabulate_pass(golden, seed: int, trace_dir=None) -> Pass:
    # The pass includes each command's process start: a user pays it 19 times.
    p = Pass()
    for i, argv in enumerate(spec.tabulate_commands(seed)):
        child = add_cli(p, golden, argv, 1, trace_dir and trace_dir / f"cmd{i}")
        p.wall_s += (child.exit_ns - child.spawn_ns) / 1e9
    return p


def eval_passes(seed: int, seconds: float = 0.0, trace_base=None) -> tuple[list, list]:
    """One process sweeps the grid for ``seconds``; each sweep is a pass."""
    trace = ["--trace", str(trace_base)] if trace_base else []
    child = spawn("eval", "--seed", str(seed), "--seconds", str(seconds), *trace)
    if child.rc != 0 or child.report is None:
        evals = spec.EVAL_POINTS * (spec.EVAL_ORDER + 1) * len(spec.FAMILIES)
        return [Pass(ops=evals, failed=evals, procs=1)], []
    r = child.report
    passes = [Pass(wall_s=t, ops=r["evals"], failed=bad)
              for t, bad in zip(r["sweep_s"], r["mismatches"])]
    passes[0].procs = 1
    passes[0].setup_s.append(child.setup_s)
    passes[0].rss_kib.append(r["maxrss_kib"])
    return passes, r["calib_s"]


def run_pass(workload: str, golden, seed: int, trace_dir=None) -> Pass:
    """One pass; with ``trace_dir`` traced, its span files written there."""
    if trace_dir:
        trace_dir.mkdir(parents=True)
    if workload == "verify-n12":
        return verify_pass(golden, trace_base=trace_dir and trace_dir / "pass")
    if workload == "tabulate-n20":
        return tabulate_pass(golden, seed, trace_dir)
    return eval_passes(seed, trace_base=trace_dir and trace_dir / "pass")[0][0]


def setup_probe(workload: str, seed: int) -> float | None:
    """One set-up sample: a fresh process that stops once it is ready."""
    if workload == "eval-grid":
        child = spawn("eval", "--probe", "--seed", str(seed))
    else:
        argv = spec.VERIFY_N12 if workload == "verify-n12" else spec.tabulate_commands(seed)[0]
        child = spawn("cli", "--probe", "--", *argv)
    return child.setup_s if child.rc == 0 and child.report else None


def setup_samples(workload: str, seed: int, passes: list[Pass]) -> list[float]:
    samples = [s for p in passes for s in p.setup_s]
    while len(samples) < SETUP_MAX_SAMPLES and (
            len(samples) < SETUP_SAMPLES or sum(samples) < SETUP_SAMPLED_S):
        sample = setup_probe(workload, seed)
        if sample is None:
            break
        samples.append(sample)
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int, golden) -> tuple[list, dict, dict]:
    if workload == "eval-grid":
        passes, calib = eval_passes(seed, seconds)
    else:
        passes, calib, lengths = [], [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            calib.append(spec.calibrate())
            passes.append(run_pass(workload, golden, seed))
            lengths.append(time.monotonic() - t0)
            # Start another pass only if it should end within the run time.
            if time.monotonic() - start + statistics.median(lengths) > seconds:
                break
    good = [p for p in passes if not p.failed]
    setup = setup_samples(workload, seed, passes)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {}
    if good and setup:
        metrics = {
            "wall_s": metric(statistics.median(p.wall_s for p in good), "s"),
            "work_per_s": metric(statistics.median(p.ops / p.wall_s for p in good), "units/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mib": metric(max(r for p in good for r in p.rss_kib) / 1024, "MiB"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        }
    context = {
        "passes": len(passes),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "setup_samples": len(setup),
        "fail_ratio": failed / attempted,
        "host.calib_s": statistics.median(calib),
    }
    return passes, metrics, context


def merged_spans(trace_dir: Path) -> tuple[dict, dict, dict]:
    """Per-name [calls, inclusive ns, self ns], per-name top-level ns and the
    counters, summed over the span files in ``trace_dir``."""
    import tracing

    stats, top, counters = {}, {}, {}
    for meta in sorted(trace_dir.glob("*.json")):
        names, ctrs, spans = tracing.read_spans(meta.with_suffix(""))
        s, t = tracing.self_times(names, spans)
        for name, values in s.items():
            entry = stats.setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                entry[i] += v
        for name, ns in t.items():
            top[name] = top.get(name, 0) + ns
        for key, value in ctrs.items():
            if ".max_" in key:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return stats, top, counters


class Layers:
    """Span statistics of one workload's traced pass."""

    def __init__(self, trace_dir: Path):
        self.stats, self.top, self.counters = merged_spans(trace_dir)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)


def per_layer(seed: int, golden) -> tuple[list, dict, dict]:
    """The traced run: one traced pass of every workload, untraced passes of
    verify-n12 and eval-grid (for the tracing overhead; tabulate-n20 is left
    out to keep the run short), the fixed-operand kernels and the n_max 9 / 12
    scaling record.  Each per-layer metric is read from the workload it is
    predicted to move."""
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    calib = spec.calibrate()
    plain = {w: run_pass(w, golden, seed) for w in ("verify-n12", "eval-grid")}
    traced = {w: run_pass(w, golden, seed, TRACE_DIR / w) for w in spec.WORKLOADS}
    kernels = spawn("kernels", "--seed", str(seed))
    n9 = verify_pass(golden, spec.VERIFY_N9)
    n12 = plain["verify-n12"]
    passes = [*plain.values(), *traced.values(), n9]
    if kernels.rc != 0 or kernels.report is None or any(p.failed for p in passes):
        return passes, {}, {"kernels_rc": kernels.rc}

    layers = {w: Layers(TRACE_DIR / w) for w in spec.WORKLOADS}
    verify, tab, grid = layers["verify-n12"], layers["tabulate-n20"], layers["eval-grid"]
    k = kernels.report["kernels"]
    m = {}
    for w, lay in layers.items():
        m[f"numeric.max_num_bits.{w}"] = metric(lay.counter("numeric.max_num_bits"), "bits")
        m[f"numeric.max_den_bits.{w}"] = metric(lay.counter("numeric.max_den_bits"), "bits")
    m["numeric.mul_ns.poly"] = metric(k["numeric.mul_ns.poly"], "ns")
    m["numeric.mul_ns.scalar"] = metric(k["numeric.mul_ns.scalar"], "ns")

    pairs = verify.counter("multipoly.mul.term_pairs")
    m["multipoly.mul.calls"] = metric(verify.calls("multipoly.mul"), "count")
    m["multipoly.mul.term_pairs"] = metric(pairs, "count")
    m["multipoly.mul.self_s"] = metric(verify.self_s("multipoly.mul"), "s")
    m["multipoly.mul.ns_per_pair"] = metric(verify.self_s("multipoly.mul") * 1e9 / pairs, "ns")
    m["multipoly.add.calls"] = metric(verify.calls("multipoly.add"), "count")
    m["multipoly.add.terms_in"] = metric(verify.counter("multipoly.add.terms_in"), "count")
    m["multipoly.add.self_s"] = metric(verify.self_s("multipoly.add"), "s")
    for op, lay in (("substitute", verify), ("evaluate", grid), ("to_text", tab)):
        m[f"multipoly.{op}.calls"] = metric(lay.calls(f"multipoly.{op}"), "count")
        m[f"multipoly.{op}.self_s"] = metric(lay.self_s(f"multipoly.{op}"), "s")
    m["multipoly.max_terms"] = metric(
        max(lay.counter("multipoly.max_terms") for lay in layers.values()), "count")
    m["multipoly.mul_kernel_ms"] = metric(k["multipoly.mul_kernel_ms"], "ms")
    m["multipoly.substitute_kernel_ms"] = metric(k["multipoly.substitute_kernel_ms"], "ms")

    for op in ("mul", "invert"):
        m[f"egfseries.{op}.calls"] = metric(tab.calls(f"egfseries.{op}"), "count")
        m[f"egfseries.{op}.self_s"] = metric(tab.self_s(f"egfseries.{op}"), "s")
        m[f"egfseries.{op}_kernel_ms"] = metric(k[f"egfseries.{op}_kernel_ms"], "ms")
    for kind in spec.STIRLING_KINDS:
        m[f"combinat.stirling_build.{kind}.self_s"] = metric(
            tab.self_s(f"combinat.stirling_build.{kind}"), "s")
        m[f"combinat.stirling_build_ms.{kind}"] = metric(
            k[f"combinat.stirling_build_ms.{kind}"], "ms")
    gff = "combinat.gen_falling_factorial"
    m[f"{gff}.calls"] = metric(verify.calls(gff), "count")
    m[f"{gff}.repeat_calls"] = metric(verify.counter(f"{gff}.repeat_calls"), "count")
    m[f"{gff}.self_s"] = metric(verify.self_s(gff), "s")

    for fn in ("family", "family_closed", "classical_family", "kernel_series"):
        m[f"families.{fn}.self_s"] = metric(verify.self_s(f"families.{fn}"), "s")
    m["families.family.repeat_calls"] = metric(
        verify.counter("families.family.repeat_calls"), "count")

    m["identities.shared_s"] = metric(verify.total_s("identities.shared"), "s")
    for tag in IDENTITY_TAGS:
        m[f"identities.check_s.{tag}"] = metric(
            verify.total_s(f"identities.check.{tag}"), "s")
    m["identities.scaling_s.n9"] = metric(n9.wall_s, "s")
    m["identities.scaling_s.n12"] = metric(n12.wall_s, "s")
    m["identities.growth_exp"] = metric(
        math.log(n12.wall_s / n9.wall_s) / math.log(12 / 9), "1")

    m["cli.format_s"] = metric(sum(
        tab.top.get(n, 0) for n in ("cli.to_json_dict", "cli.json_dumps", "multipoly.to_text")
    ) / 1e9, "s")
    m["cli.procs"] = metric(traced["tabulate-n20"].procs, "count")
    m["trace.overhead_s"] = metric(sum(traced[w].wall_s - p.wall_s for w, p in plain.items()), "s")
    m["host.calib_s"] = metric(calib, "s")

    context = {
        "untraced_wall_s": {w: p.wall_s for w, p in plain.items()},
        "traced_wall_s": {w: p.wall_s for w, p in traced.items()},
        # Shared build plus the 29 checks should cover the traced verify pass.
        "identities_attributed_s": verify.total_s("identities.shared") + sum(
            verify.total_s(f"identities.check.{tag}") for tag in IDENTITY_TAGS),
        "mul_kernel_terms": k["multipoly.mul_kernel_terms"],
    }
    return passes, m, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="degenpoly benchmark")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "degenpoly" / "__init__.py").is_file() or not spec.GOLDEN_PATH.is_file():
        print(f"perfbench: no degenpoly sources under {SRC}", file=sys.stderr)
        return 2
    golden = spec.load_golden()
    gate_ok = spec.gate_self_check(golden)
    try:
        # Warm-up: the first process compiles the package's bytecode.
        setup_probe("verify-n12", args.seed)
        if args.trace:
            passes, metrics, context = per_layer(args.seed, golden)
        else:
            passes, metrics, context = end_to_end(
                args.workload, args.seed, args.seconds, golden)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    correct = gate_ok and failed == 0 and bool(metrics)
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "gate_self_check": gate_ok,
                      **context}), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

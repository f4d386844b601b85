"""One workload process, started fresh by run.py for every unit it times.

Modes:
  cli [--probe] [--trace BASE] -- ARGV
      Run ``degenpoly.cli.main(ARGV)``, as the ``degenpoly`` command does.
      The process is ready once the command line is parsed.
  eval --seed N [--seconds S] [--probe] [--trace BASE]
      Build ``family(kind, 12)`` for all ten kinds (set-up), then sweep the
      seeded grid, evaluating every row at every point, while another sweep
      should end within S seconds; check each value against a plain
      Fraction evaluation of ``MPoly.terms``.
  kernels --seed N
      Time the fixed-operand kernels of the traced run.

``--probe`` stops as soon as the process is ready (a set-up sample).
``--trace BASE`` wraps each layer's entry points and writes the spans to
BASE.spans / BASE.json at exit.  The last stderr line is ``PERFBENCH``
followed by a JSON report with monotonic timestamps in ns.

Before a process is ready it imports only what the ``degenpoly`` command
imports anyway, so set-up samples measure the package, not the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NO_PACKAGE = 3


def report(fields: dict) -> None:
    import resource

    fields["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    print("PERFBENCH " + json.dumps(fields), file=sys.stderr, flush=True)


def import_package():
    """Import degenpoly from this checkout's src/, or exit NO_PACKAGE."""
    try:
        import degenpoly
    except ImportError as exc:
        print(f"perfbench: cannot import degenpoly: {exc}", file=sys.stderr)
        sys.exit(NO_PACKAGE)
    src = os.path.realpath(SRC) + os.sep
    if not os.path.realpath(degenpoly.__file__).startswith(src):
        print(f"perfbench: degenpoly comes from {degenpoly.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(NO_PACKAGE)
    return degenpoly


def start_trace(base):
    if base is None:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def run_cli(argv, probe: bool, trace_base) -> int:
    ready = []
    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        if not ready:
            ready.append(time.monotonic_ns())
            if probe:
                report({"ready_ns": ready[0]})
                os._exit(0)
        return namespace

    argparse.ArgumentParser.parse_args = timed_parse_args
    import_package()
    import degenpoly.cli

    tracer = start_trace(trace_base)
    rc = degenpoly.cli.main(list(argv))
    sys.stdout.flush()
    done = time.monotonic_ns()
    if tracer is not None:
        tracer.write(trace_base)
    report({"ready_ns": ready[0], "done_ns": done, "rc": rc})
    return 0


def run_eval(seed: int, seconds: float, probe: bool, trace_base) -> int:
    """Sweep the grid while another sweep should end within ``seconds``
    (at least once)."""
    import statistics

    import spec

    degenpoly = import_package()
    tracer = start_trace(trace_base)
    polys = [p for kind in degenpoly.FamilyKind
             for p in degenpoly.family(kind, spec.EVAL_ORDER).polys]
    points = spec.grid_points(seed)
    ready = time.monotonic_ns()
    if probe:
        report({"ready_ns": ready})
        return 0
    expected = None
    sweeps, calib, mismatches, lengths = [], [], [], []
    while True:
        t0 = time.monotonic()
        calib.append(spec.calibrate())
        start = time.perf_counter()
        values = [p.evaluate(point) for point in points for p in polys]
        sweeps.append(time.perf_counter() - start)
        if expected is None:
            expected = [spec.reference_evaluate(p.terms, point)
                        for point in points for p in polys]
        mismatches.append(sum(not spec.value_ok(v, e) for v, e in zip(values, expected)))
        lengths.append(time.monotonic() - t0)
        # Start another sweep only if it should end within ``seconds``.
        if (time.monotonic_ns() - ready) / 1e9 + statistics.median(lengths) > seconds:
            break
    if tracer is not None:
        tracer.write(trace_base)
    report({"ready_ns": ready, "rc": 0, "evals": len(expected), "sweep_s": sweeps,
            "calib_s": calib, "mismatches": mismatches})
    return 0


def median_ms(fn, repeats: int = 3) -> float:
    import statistics

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def mean_product_ns(left, right, sweeps: int) -> float:
    """Mean time of one coefficient product over all (left, right) pairs."""
    start = time.perf_counter_ns()
    for _ in range(sweeps):
        for a in left:
            for b in right:
                a * b
    return (time.perf_counter_ns() - start) / (sweeps * len(left) * len(right))


def run_kernels(seed: int) -> int:
    """Fixed operands: the ROADMAP's per-layer kernel list."""
    from fractions import Fraction

    import spec

    dp = import_package()
    kinds = dp.FamilyKind
    cos_euler = dp.family(kinds.DEG_COS_EULER, 14)[12]
    complex_euler = dp.complex_euler(10, 14)
    cos_bern = dp.family(kinds.DEG_COS_BERNOULLI, 14)[12]
    x_plus_r = dp.MPoly.variable("x") + dp.MPoly.variable("r")
    bern_kernel = dp.kernel_series("bernoulli", 14)
    exp_x = dp.deg_exp_series(dp.MPoly.variable("x"), 14)
    # The series kernel_series("bernoulli", 14) inverts.
    bern_h = dp.EgfSeries.from_function(
        14, lambda n: dp.gen_falling_factorial(1, n + 1).scale(Fraction(1, n + 1)))

    out = {
        "multipoly.mul_kernel_ms": median_ms(lambda: cos_euler * complex_euler),
        "multipoly.mul_kernel_terms": [len(cos_euler.terms), len(complex_euler.terms)],
        "multipoly.substitute_kernel_ms": median_ms(
            lambda: cos_bern.substitute("x", x_plus_r)),
        "egfseries.mul_kernel_ms": median_ms(lambda: bern_kernel * exp_x),
        "egfseries.invert_kernel_ms": median_ms(bern_h.invert),
    }
    for kind in dp.StirlingKind:
        out[f"combinat.stirling_build_ms.{kind.value}"] = median_ms(
            lambda: dp.StirlingTable.build(kind, 14))

    out["numeric.mul_ns.poly"] = mean_product_ns(
        list(cos_euler.terms.values()), list(complex_euler.terms.values()), 1)
    rows = dp.family(kinds.DEG_COS_EULER, spec.EVAL_ORDER).polys
    scalars = [p.evaluate(point) for point in spec.grid_points(seed)[:2] for p in rows]
    out["numeric.mul_ns.scalar"] = mean_product_ns(scalars, scalars, 20)
    report({"rc": 0, "kernels": out})
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "eval", "kernels"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", default=None, metavar="BASE")
    own = sys.argv[1:]
    argv = []
    if "--" in own:
        cut = own.index("--")
        own, argv = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)
    if args.mode == "cli":
        return run_cli(argv, args.probe, args.trace)
    if args.mode == "eval":
        return run_eval(args.seed, args.seconds, args.probe, args.trace)
    return run_kernels(args.seed)


if __name__ == "__main__":
    sys.exit(main())

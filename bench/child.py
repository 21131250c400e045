"""One round of a workload in a fresh interpreter: cold set-up, then one
`hyperwalk.cli.main(argv)` call, timed separately.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds "src" (the package
source directory), "argv", "hk_dim" (dimension whose first heat-kernel call is
part of set-up, or null), "trace" and "result" (path of the JSON written at
exit).  The exit code is the CLI's.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    from hyperwalk import cli

    t1 = time.perf_counter()
    if spec["hk_dim"] is not None:
        # the command's first heat-kernel call builds the series table once
        from hyperwalk.heat_kernel import hk

        hk(1.0, [0.0, 1.0], spec["hk_dim"])
    t2 = time.perf_counter()

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    cpu0 = time.process_time()
    t3 = time.perf_counter()
    rc = cli.main(spec["argv"])
    t4 = time.perf_counter()
    cpu = time.process_time() - cpu0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "import_s": t1 - t0, "first_call_s": t2 - t1,
              "setup_s": t2 - t0, "run_s": t4 - t3, "cpu_s": cpu,
              "peak_rss_mib": rss_mib}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Entry points the benchmark runs in fresh interpreters.

    child.py setup N M K
        Import the benchmark's workload module (and with it numpy and
        diskbem), build the workload context for sizes N, M, K and print the
        seconds this took as a JSON number.

    child.py cli SPANS -- ARG...
        Run ``diskbem.cli.main(ARG...)`` as ``python -m diskbem ARG...`` would,
        with spans around the import, ``cli.main``, ``cli.run`` and the
        library calls of an operation (tracing.OP_CALLS), which
        ``diskbem.cli`` imports by name.  The spans are written to the JSON
        file SPANS when the run ends; the exit code is the CLI's.

Only the standard library is imported before the timed region starts.
"""

import json
import sys
import time


def setup(n: int, m: int, k: int) -> None:
    start = time.perf_counter()
    import workloads

    workloads.build_context(n, m, k)
    print(json.dumps(time.perf_counter() - start))


def cli(spans_path: str, argv: list) -> int:
    from tracing import OP_CALLS, Tracer, layer_api, traced

    tracer = Tracer()
    try:
        with tracer.span("import"):
            import diskbem.cli as cli_module
        for attr, fn in layer_api(tracer, cli_module, OP_CALLS).items():
            setattr(cli_module, attr, fn)
        cli_module.run = traced(tracer, "cli.run", cli_module.run)
        with tracer.span("cli.main"):
            return cli_module.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.records(), handle)


if __name__ == "__main__":
    command = sys.argv[1]
    if command == "setup":
        setup(*(int(value) for value in sys.argv[2:5]))
    elif command == "cli" and sys.argv[3] == "--":
        sys.exit(cli(sys.argv[2], sys.argv[4:]))
    else:
        sys.exit("usage: child.py setup N M K | child.py cli SPANS -- ARG...")

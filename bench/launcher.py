"""Traced stand-in for ``python -m dyerlashof.cli`` in the cli workload.

Usage: python bench/launcher.py <cli arguments>, with ``src`` on PYTHONPATH.
It imports the CLI (timing the import), installs the layer wrappers, runs
``dyerlashof.cli.main(argv)`` as the root span and exits with its code.
The CLI's stdout is untouched; the trace goes to the last line of stderr,
prefixed with ``BENCH-TRACE``.
"""

import json
import os
import sys
import time

MARK = b"BENCH-TRACE "


def cli_env(root):
    """The environment a CLI child needs to import the package from root/src."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_trace(stderr: bytes):
    """The trace document a launcher child wrote to its stderr."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK):
            return json.loads(line[len(MARK):])
    raise ValueError("no trace line on stderr")


def main(argv):
    t0 = time.perf_counter()
    import dyerlashof.cli as cli

    import_s = time.perf_counter() - t0
    import tracing
    from dyerlashof import dlalgebra

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(1)
    t1 = time.perf_counter()
    try:
        code = tracer.root(cli.main, argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    root_wall = time.perf_counter() - t1
    sys.stdout.flush()
    tracer.uninstall()
    info = dlalgebra.adem_expand.cache_info()
    doc = tracer.export()
    doc.update(root_wall=root_wall, self_sum=tracer.op_self, depth=tracer.op_depth,
               import_s=import_s,
               adem_cache=[info.hits, info.misses, info.currsize])
    sys.stderr.write(MARK.decode() + json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

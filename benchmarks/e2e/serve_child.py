"""Start ``repro serve`` for the serve-sql workload, optionally traced.

    python benchmarks/e2e/serve_child.py --data-seed S [--trace-out FILE] \\
        -- --sf 100 --seed S

Everything after ``--`` goes to ``repro.cli.main(["serve", ...])``
unchanged.  The server's TPC-H data is generated from ``--data-seed``
(the CLI would otherwise use the dataset's fixed default seed).  With
``--trace-out`` the layer wrappers of ``layers.py`` are installed in this
process before the server starts; when the server has shut down, its
spans are written to FILE and the harvested counters next to it
(``.stats.json``).  The untraced workload uses this same launcher, so
traced and untraced runs have the same process structure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import layers  # noqa: E402
from repro import cli  # noqa: E402
from repro.workloads import TpchDataset  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    tracer = None
    if args.trace_out is not None:
        tracer = layers.Tracer()
        layers.install(tracer)
    cli.TpchDataset = functools.partial(TpchDataset, seed=args.data_seed)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.harvest()
            layers.write_spans(tracer.spans(), args.trace_out)
            args.trace_out.with_suffix(".stats.json").write_text(
                json.dumps(tracer.counts)
            )


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation in a fresh process: one call of `bepo.cli.main`.

    python3 perfbench/probe.py --launch T --result FILE [--trace FILE]
                               -- EXPERIMENT --config ... --out ...

Everything after `--` goes to `bepo.cli.main` unchanged; `src` is put on the
path first, as the console script is not installed. The probe wraps the CLI's
experiment function (`bepo.cli.run_*`) with a timer:

- setup_s: from T, the parent's `time.monotonic()` just before it started
  this process, until the experiment function is entered: interpreter start-up, importing
  bepo with numpy and scipy, and reading and parsing the config.
- wall_s: the experiment call, until its CSV files and manifest.json are written.

With --trace the layers are traced (see tracing.py) and the spans are written
to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    sys.path.insert(0, str(ROOT / "src"))
    import bepo.cli as cli

    tracer = None
    if args.trace:
        from tracing import EXPERIMENT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    name = "run_" + cli_args[0].replace("-", "_")  # e.g. run_crossing_sweep
    experiment = getattr(cli, name)
    marks = {}

    def timed(*a, **k):
        marks["setup_end"] = time.monotonic()
        try:
            if tracer is None:
                return experiment(*a, **k)
            with tracer.span(EXPERIMENT_SPAN):
                return experiment(*a, **k)
        finally:
            marks["wall_end"] = time.monotonic()

    setattr(cli, name, timed)
    code = cli.main(cli_args)
    result = {"exit": code}
    if "setup_end" in marks:
        result["setup_s"] = marks["setup_end"] - args.launch
    if "wall_end" in marks:
        result["wall_s"] = marks["wall_end"] - marks["setup_end"]
    args.result.write_text(json.dumps(result) + "\n")
    if tracer is not None:
        args.trace.write_text(
            json.dumps({"installed": sorted(tracer.installed), "spans": tracer.spans}) + "\n"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

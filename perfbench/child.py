"""One attack process: `ensteal run-attack` with wall-clock stamps.

    python3 perfbench/child.py STAMPS [--spans PATH] [--setup-only] -- RUN_ATTACK_ARGS...

Runs the real CLI entry point in this process and writes STAMPS (JSON):
monotonic times at interpreter start, after `import ensteal.cli`, and at
entry to and exit from `harness.run_attack`, plus the exit code, the peak
resident set and where ensteal was imported from. `--setup-only` stops at
entry to run_attack. `--spans` traces the run (see spans.py) and dumps the
spans to PATH.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class _SetupDone(BaseException):
    """Raised at run_attack entry under --setup-only; the CLI does not catch it."""


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    stamps_path = own[0]
    setup_only = "--setup-only" in own
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    import ensteal.cli
    from ensteal import harness

    stamps = {"start": T_START, "imported": time.monotonic(), "ensteal_file": ensteal.__file__}
    import numpy

    stamps["numpy"] = numpy.__version__
    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.install()
    run_attack = harness.run_attack

    def stamped(*args, **kwargs):
        stamps["enter"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        try:
            return run_attack(*args, **kwargs)
        finally:
            stamps["exit"] = time.monotonic()

    harness.run_attack = stamped
    try:
        rc = ensteal.cli.main(["run-attack", *cli_args])
    except _SetupDone:
        rc = 0
    stamps["rc"] = rc
    stamps["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(spans_path)
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

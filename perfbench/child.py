"""Run one cayleykit command in this fresh interpreter and time it from inside.

    python3 child.py RESULT.json [--setup-only] [--trace] -- CLI-ARGS...

Set-up is the import of ``cayleykit.cli`` (numpy, scipy and the module-level
multiplication table) plus turning CLI-ARGS into a ``RunConfig``.  The run is
``cayleykit.cli.main(CLI-ARGS)`` from the end of set-up to its return.  The
timings, the exit code, the library versions (``--setup-only``) and the span
summary (``--trace``) are written to RESULT.json; the exit status is the
command's.
"""

import json
import sys
import time
from pathlib import Path


def _blas_version(module) -> str:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main(argv: list[str]) -> int:
    split = argv.index("--")
    result_path, flags, cli_args = Path(argv[0]), argv[1:split], argv[split + 1:]

    start = time.perf_counter()
    from cayleykit import cli
    cli.build_config(cli.make_parser().parse_args(cli_args))
    result = {"setup_s": time.perf_counter() - start}

    if "--setup-only" in flags:
        import platform

        import numpy
        import scipy
        result["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_openblas": _blas_version(numpy),
            "scipy_openblas": _blas_version(scipy),
        }
        result["exit"] = 0
    else:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer
            tracer = Tracer.install()
        start = time.perf_counter()
        result["exit"] = cli.main(cli_args)
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            result["trace"] = tracer.summary()
    result_path.write_text(json.dumps(result))
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

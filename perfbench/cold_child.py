"""Run one lieprolong CLI command in this fresh process, traced.

Usage: python3 perfbench/cold_child.py SUMMARY_JSON MEASURE_MEMORY ARGS...

Times ``import lieprolong``, installs the tracer, runs ``cli.main(ARGS)``
with its output on stdout as usual, and writes the layer summary (calls,
inclusive and self seconds, sample-cache counts) to SUMMARY_JSON and the
spans next to it.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    summary_path, memory, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import lieprolong  # noqa: F401
    import lieprolong.cli  # noqa: F401

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.measure_memory = memory
    tracer.op = 0
    tracer.active = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = sys.modules["lieprolong.cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            tracer.active = False
    rep_algebra = sys.modules["lieprolong.rep_algebra"]
    cache = {}
    for name, attr in (("group", "_group_sample"), ("tangent", "_tangent_sample")):
        info = getattr(rep_algebra, attr).cache_info() if hasattr(rep_algebra, attr) else None
        cache[name] = [info.hits, info.misses] if info else [0, 0]
    summary = tracer.summary([0])
    summary.update(
        import_s=[import_s],
        first_catalog_s=[tracer.first_catalog_s],
        cache=cache,
        faithfulness_peak_bytes=tracer.faithfulness_peak_bytes,
        deprecation_warnings=sum(issubclass(w.category, DeprecationWarning) for w in caught),
    )
    summary_path.write_text(json.dumps(summary))
    tracer.dump(summary_path.with_suffix(".npz"))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

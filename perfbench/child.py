"""One benchmark request: a fresh interpreter makes one `splitkit.cli.main(argv)` call.

Usage: child.py REQUEST_ID SPANS_FILE|- ARGV...

The report goes to stdout as the CLI prints it.  The last stderr line is
`PERFBENCH {...}` with the monotonic time at which `splitkit.cli` was
imported, the wall time of `main(argv)` including the JSON emit, the exit
code and the process's peak RSS.  With a spans file, public functions are
traced (see tracing.py) and the spans are written there.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import splitkit.cli  # noqa: E402

ready = time.monotonic()
if not Path(splitkit.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"splitkit was imported from {splitkit.cli.__file__}, not from {ROOT / 'src'}")

request, spans_file, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
recorder = None
if spans_file != "-":
    import tracing

    recorder = tracing.install()

start = time.perf_counter()
try:
    code = splitkit.cli.main(argv)
except SystemExit as exc:  # argparse usage errors
    code = exc.code if isinstance(exc.code, int) else 2
sys.stdout.flush()
latency = time.perf_counter() - start

if recorder is not None:
    recorder.dump(spans_file, request)
record = {
    "ready": ready,
    "latency": latency,
    "code": code,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}
print("PERFBENCH " + json.dumps(record), file=sys.stderr)
sys.exit(code)

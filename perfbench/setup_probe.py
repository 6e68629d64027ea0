"""Set-up probe, run in a fresh interpreter by run.py.

Imports coverscope.cli and loads the bundled corpus, which is what every
command-line call pays before it does any work, and prints the phase times
as one JSON line.  With --verify it also times dataset.verify_corpus.
"""

import json
import sys
import time

t0 = time.perf_counter()
import coverscope.cli  # noqa: E402,F401
from coverscope import dataset  # noqa: E402

t1 = time.perf_counter()
records = dataset.load_corpus(dataset.default_corpus_path())
t2 = time.perf_counter()
out = {"records": len(records), "cli.import_s": t1 - t0, "dataset.load_corpus.s": t2 - t1}
if "--verify" in sys.argv[1:]:
    report = dataset.verify_corpus(records)
    out["dataset.verify_corpus.s"] = time.perf_counter() - t2
    out["ok"] = report.ok
print(json.dumps(out))

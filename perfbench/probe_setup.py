"""Set-up probe: what every CLI call pays before it computes anything.

A fresh process imports ivhet, loads the workload's CSV and validates it,
then writes the import time and the loaded row counts as JSON. run.py
times the whole process from outside.

    python3 perfbench/probe_setup.py CSV COLUMNS_JSON OUT_JSON
"""

import json
import sys
import time

start = time.perf_counter()
import ivhet  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start

csv_path, columns, out_path = sys.argv[1:4]
ds = ivhet.load_dataset(csv_path, ivhet.ColumnMap(**json.loads(columns)))
report = ivhet.validate(ds)
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"import_s": import_s, "rows": ds.n, "dropped": ds.dropped,
               "passed": report.passed}, fh)

"""Write ``reference.json``: q_alpha of the first ops of every workload at the
reference seed, and the sha256 of op 0's first band JSON.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to move results; the
benchmark reports the drift of later runs against this file.
"""

import hashlib
import json
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import WORKLOADS  # noqa: E402

SEED = 0
N_OPS = 6


def main():
    doc = {"seed": SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(ROOT, ".perfbench_work", f"reference-{name}")
        wl = cls(SEED, workdir)
        try:
            wl.setup()
            qs, band0 = [], None
            for i in range(N_OPS):
                result = wl.op(i)
                wl.check(result)
                qs.append(result.q_alphas())
                if i == 0:
                    band0 = hashlib.sha256(result.first_band_json().encode("utf-8")).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc["workloads"][name] = {"q_alpha": qs, "band0_sha256": band0}
        print(name, "done", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

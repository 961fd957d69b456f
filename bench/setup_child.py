"""One set-up, as a fresh process pays for it: start the interpreter, import
the program, generate and write one workload's inputs, then say "ready".

    python3 bench/setup_child.py WORKLOAD SEED OUTDIR   (with src on PYTHONPATH)
"""

import importlib
import sys
from pathlib import Path

from run import WORKLOADS

if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = importlib.import_module(WORKLOADS[workload])
    wl.write_inputs(wl.make_inputs(seed), outdir)
    print("ready", flush=True)

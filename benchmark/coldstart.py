"""One cold start: a fresh interpreter imports tailbound and its CLI and
builds a workload's inputs, then exits.  run.py times this process from
outside; reference data is neither loaded nor computed here.

    python3 benchmark/coldstart.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tailbound  # noqa: E402,F401
import tailbound.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))

"""Check that the command path loads no SciPy.

    PYTHONPATH=src python tests/command_path_imports.py WORK_DIR

Imports lyapmetric.cli, then runs in this process one command like each
benchmark workload, writing under WORK_DIR.  Fails (exit 1, one line per
problem) when any SciPy module is loaded after the import or after a
command, when a command exits other than expected, or when a command
imports any module at all: each module a command loads first is import
time inside the command.
"""

import sys
from pathlib import Path

PLANAR_TEXT = "dim=2; F1 = -x1 + x2^2; F2 = -2*x2 - x1*x2\n"
PLANT_TEXT = "dim=1; F1 = x1; g1 = 1\n"

COMMANDS = (   # name, arguments, expected exit status
    ("scalar-stabilize",
     ["stabilize", "--system", "plant.txt", "--lambda-gain", "3",
      "--grid=-2.0,-1.0,1.0,2.0"], 0),
    ("scalar-certify",
     ["certify", "--system", "scalar-example",
      "--grid=-2.0,-1.0,0.5,1.0,2.0"], 0),
    ("planar-metric",
     ["metric", "--system", "planar.txt", "--variant", "along-solutions",
      "--grid=0.8,-0.5;0.5,0.5;-1.0,0.3;0.0,1.0"], 0),
    ("transverse-falsify",
     ["certify", "--system", "transverse-counterexample", "--variant",
      "transverse"], 2),
)


def _scipy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


def main(work):
    work.mkdir(parents=True, exist_ok=True)
    (work / "planar.txt").write_text(PLANAR_TEXT)
    (work / "plant.txt").write_text(PLANT_TEXT)
    import lyapmetric.cli as cli

    problems = []
    if _scipy():
        problems.append(f"import lyapmetric.cli loaded {_scipy()[:5]}")
    for name, argv, expected in COMMANDS:
        argv = [a.replace("plant.txt", str(work / "plant.txt"))
                .replace("planar.txt", str(work / "planar.txt")) for a in argv]
        before = set(sys.modules)
        rc = cli.main([*argv, "--out", str(work / name)])
        loaded = sorted(set(sys.modules) - before)
        if rc != expected:
            problems.append(f"{name}: exit {rc}, expected {expected}")
        if _scipy():
            problems.append(f"{name}: SciPy loaded: {_scipy()[:5]}")
        if loaded:
            problems.append(f"{name}: imported {loaded} during cli.main")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))

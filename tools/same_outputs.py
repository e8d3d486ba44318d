"""Check that two source trees of trackassoc write byte-identical CSVs.

Usage: python tools/same_outputs.py SRC_A SRC_B

Each SRC is a checkout (holding src/trackassoc) or a directory that holds the
trackassoc package itself. Every CLI experiment of either tree is run at its
defaults (``python -m trackassoc --experiment NAME``), one subprocess each,
with that tree first on PYTHONPATH and an empty working directory, and the
CSVs are compared byte for byte. Prints one line per experiment and exits 0
when every CSV matches, 1 on any difference, a failed run, or an experiment
that only one tree has.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def package_root(src):
    """The directory to put on PYTHONPATH so that ``import trackassoc`` finds src's copy."""
    src = Path(src).resolve()
    for root in (src / "src", src):
        if (root / "trackassoc" / "__init__.py").is_file():
            return root
    raise SystemExit(f"no trackassoc package under {src}")


def _run(root, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def experiments(root, cwd):
    """The experiment names the tree's CLI accepts; exits if its package loads from elsewhere."""
    proc = _run(root, ["-c", "import trackassoc, trackassoc.cli as c; "
                             "print(trackassoc.__file__); print(*c.EXPERIMENTS)"], cwd)
    if proc.returncode:
        raise SystemExit(f"{root}: cannot import trackassoc\n{proc.stderr}")
    loaded, names = proc.stdout.splitlines()
    if not Path(loaded).resolve().is_relative_to(root):
        raise SystemExit(f"{root}: trackassoc loads from {loaded}, outside the tree")
    return names.split()


def csv_bytes(root, experiment, out):
    """The CSV the tree's CLI writes for the experiment at defaults, or None if the run fails."""
    proc = _run(root, ["-m", "trackassoc", "--experiment", experiment, "--out", str(out)], out)
    path = out / f"{experiment}.csv"
    if proc.returncode or not path.is_file():
        sys.stderr.write(f"{root}: {experiment} exited {proc.returncode}\n{proc.stderr}")
        return None
    return path.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    args = parser.parse_args(argv)
    roots = [package_root(args.src_a), package_root(args.src_b)]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = [experiments(root, tmp) for root in roots]
        every = list(dict.fromkeys(names[0] + names[1]))
        for name in every:
            if not all(name in n for n in names):
                print(f"{name}: only in one tree")
                differ += 1
                continue
            outputs = []
            for side, root in zip("ab", roots):
                out = tmp / side / name
                out.mkdir(parents=True)
                outputs.append(csv_bytes(root, name, out))
            same = outputs[0] is not None and outputs[0] == outputs[1]
            print(f"{name}: {'identical' if same else 'DIFFERENT'}"
                  f" ({len(outputs[0] or b'')} / {len(outputs[1] or b'')} bytes)")
            differ += not same
    print(f"{differ} of {len(every)} experiments differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

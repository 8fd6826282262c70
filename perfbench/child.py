"""Run one call in a fresh interpreter; see `workloads.in_child`.

    python3 perfbench/child.py < call.pickle > result.pickle

stdin holds a pickled `(function, args)` pair and stdout gets the pickled
result; whatever the call prints goes to stderr.  The child starts no
process of its own.
"""

import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    fn, args = pickle.load(sys.stdin.buffer)
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    result = fn(*args)
    pickle.dump(result, out)
    out.flush()


if __name__ == "__main__":
    main()

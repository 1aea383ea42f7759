"""Record the output digest of every request any seed can generate.

    python3 perfbench/record.py

Writes perfbench/digests.json.  Run it only at a commit whose output is
trusted (it was run at the seed commit): run.py fails every request whose
output differs from what is recorded here.  Outputs are produced in one
process through the same entry points the workers use; the CLI and API
promise the same bytes however they are called.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (imports fockspectra from the checkout's src/)
import workloads  # noqa: E402


def output(request) -> str:
    mode, args = request
    if mode == "api":
        return child.api_text(int(args[0]), int(args[1])) + "\n"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = child.call_cli(list(args))
    if code != 0:
        raise SystemExit(f"{workloads.key(request)} exited {code}")
    return buf.getvalue()


def main() -> None:
    digests = {}
    for request in sorted(workloads.all_requests(), key=workloads.key):
        digests[workloads.key(request)] = workloads.digest(output(request))
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()

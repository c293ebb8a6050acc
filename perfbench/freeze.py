"""Write frozen.json: the pinned outputs of every op at the default seed.

    python3 perfbench/freeze.py

Run it only to pin outputs of a commit whose results are trusted; the
benchmark compares every default-seed run against this file.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads


def main() -> None:
    frozen = {}
    for name in workloads.NAMES:
        runner = run.Runner(run.cli, workloads.build(name, workloads.DEFAULT_SEED), {})
        frozen[name] = {}
        for st in runner.states:
            runner.execute(st, traced=False)
            if st.failure:
                raise SystemExit(f"{name}/{st.op.name}: {st.failure}")
            if st.values is not None:
                frozen[name][st.op.name] = st.values
    shutil.rmtree(run.WORK, ignore_errors=True)
    with open(run.FROZEN, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

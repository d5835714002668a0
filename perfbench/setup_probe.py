"""Set-up as a user pays it: import the CLI, then build and validate every input.

Usage: ``python3 setup_probe.py files <list.json>`` (scenario paths, each
loaded with ``scenario.load_scenario`` and the step override in the list) or
``python3 setup_probe.py dicts <members.json>`` (scenario dicts, each built
with ``scenario.build_scenario``).  Runs with ``src`` on ``PYTHONPATH``; the
benchmark times the whole process from start to exit.
"""

import json
import sys

import lrsim.cli  # noqa: F401  (the import cost is part of set-up)
from lrsim.scenario import build_scenario, load_scenario


def main(mode, listing):
    with open(listing) as fh:
        entries = json.load(fh)
    if mode == "files":
        for path, steps in entries:
            load_scenario(path, overrides={"steps": steps})
    elif mode == "dicts":
        for name, data in entries:
            build_scenario(data, name=name)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(len(entries))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

"""Set-up time of one slidingesc run, taken in a fresh interpreter.

Times ``import slidingesc`` through scenario load and validation, plant
build, hypothesis check and dt guard, up to the first closed-loop steps:
the given scenario (a two-step horizon) is run with the default
backend, so a compiled backend's compile time counts too.  Prints one
JSON line with the time and the number of python controller steps taken,
which is how the caller learns which backend ran.

Usage: python3 setup_probe.py SRC_DIR SCENARIO_JSON
"""

import json
import sys
import time


def main() -> None:
    src, doc_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import slidingesc.sim as sim
    from slidingesc.scenario import load_scenario

    calls = 0
    original = sim.controller_step

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    sim.controller_step = counting
    scenario = load_scenario(doc_path)
    plant = scenario.build_plant()
    sim.run(plant, scenario.controller, scenario.sim, backend="auto")
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "controller_step_calls": calls}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The Figure 3 worked example: Belady's MIN is not energy-optimal.

Replays the paper's request string against a 4-entry cache and a
2-mode disk that spins down after 10 idle time-units, printing the
per-step cache contents and an ASCII power-state timeline for both
Belady and the power-aware (OPG) schedule.

Run:
    python examples/belady_counterexample.py
"""

from repro.cache.policies.belady import BeladyPolicy
from repro.core.energy_optimal import idle_energy_of, simulate_misses
from repro.core.opg import OPGPolicy

REQUESTS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "B", 6: "E",
            7: "C", 8: "D", 16: "A"}
THRESHOLD = 10.0
END_TIME = 30.0


def energy_fn(gap: float) -> float:
    """Threshold DPM of the example: burn 1/unit for up to 10 units."""
    return min(gap, THRESHOLD)


def timeline(miss_times: set[float]) -> str:
    """ASCII power-state strip: # = active/idle, . = standby."""
    strip = []
    for t in range(int(END_TIME) + 1):
        since = t - max((m for m in miss_times if m <= t), default=0.0)
        strip.append("." if since > THRESHOLD else "#")
    return "".join(strip)


def replay(name, policy):
    accesses = [(float(t), (0, ord(c))) for t, c in sorted(REQUESTS.items())]
    misses = simulate_misses(accesses, 4, policy)
    miss_times = {t for t, _ in misses}
    energy = idle_energy_of(misses, energy_fn, end_time=END_TIME)
    print(f"{name}:")
    print(f"  misses ({len(misses)}): "
          + " ".join(f"{chr(k[1])}@{t:.0f}" for t, k in misses))
    print(f"  disk:   {timeline(miss_times)}   (#=spinning, .=standby)")
    print(f"  energy: {energy:.0f} units\n")
    return len(misses), energy


def main() -> None:
    print("Request sequence: "
          + "  ".join(f"{c}@{t}" for t, c in sorted(REQUESTS.items())))
    print(f"Cache: 4 entries; disk spins down after {THRESHOLD:.0f} idle "
          "units\n")
    belady_misses, belady_energy = replay("Belady (minimal misses)",
                                          BeladyPolicy())
    opg_misses, opg_energy = replay(
        "Power-aware (OPG)", OPGPolicy(energy_fn, tail_s=END_TIME - 16.0)
    )
    print(f"Belady took {belady_misses} misses / {belady_energy:.0f} energy;")
    print(f"OPG    took {opg_misses} misses / {opg_energy:.0f} energy.")
    print("More misses, less energy — Figure 3 in action.")


if __name__ == "__main__":
    main()

"""Adversarial scenarios — stress the validator beyond stationary crowds.

The paper's experiments assume workers whose behavior never changes. This
example compiles the registry of adversarial workloads — drifting
reliability, sleeper spammers, colluding cliques, bursty arrivals, label
skew, a fallible expert — and runs each through the differential harness:
the same scenario executes on the batch pipeline and on streaming
sessions (seeded from the matrix, fed the answer stream, killed and
restored, replayed under injected faults), and the harness asserts they
agree before reporting quality and spammer-detection metrics.

Run it with no arguments::

    python examples/adversarial_scenarios.py
"""

from __future__ import annotations

from repro.scenarios import (
    ScenarioRunner,
    compile_registered,
    get_scenario,
    scenario_names,
)


def main() -> None:
    print(f"Registry: {len(scenario_names())} adversarial scenarios\n")
    runner = ScenarioRunner()
    header = (f"{'scenario':<20} {'P0':>6} {'Pf':>6} {'effort':>6} "
              f"{'stream L∞':>10} {'det P':>6} {'det R':>6}")
    print(header)
    print("-" * len(header))
    for name in scenario_names():
        scenario = compile_registered(name)
        outcome = runner.run(scenario, lookahead="exact")
        s = outcome.summary()
        print(f"{name:<20} {s['initial_precision']:>6.3f} "
              f"{s['final_precision']:>6.3f} {s['effort']:>6d} "
              f"{s['stream_linf']:>10.1e} "
              f"{s['detection_precision']:>6.2f} "
              f"{s['detection_recall']:>6.2f}")

    print("\nEvery row passed the cross-path conformance checks: the "
          "streaming replay matched the batch posteriors bit for bit, and "
          "so did the session fed the answer stream, the killed-and-"
          "restored replay and the replay under injected faults.")

    # Zoom in on one adversary: how much does guided validation recover?
    name = "colluding-clique"
    scenario = compile_registered(name)
    outcome = runner.run(scenario, lookahead="exact")
    spec = get_scenario(name)
    print(f"\n{name}: {spec.description}")
    clique = scenario.behavior_workers["collusion_clique"]
    print(f"  clique workers: {clique} (leader w{clique[0] + 1})")
    curve = outcome.report.quality_curve(relative=False)
    for effort, precision in curve[:: max(1, len(curve) // 6)]:
        print(f"  after {int(effort):2d} validations: "
              f"precision {precision:.3f}")
    print(f"  spammer detection: precision "
          f"{outcome.detection_precision:.2f}, recall "
          f"{outcome.detection_recall:.2f} "
          f"({outcome.n_detected} flagged / "
          f"{outcome.n_truly_faulty} truly faulty)")


if __name__ == "__main__":
    main()

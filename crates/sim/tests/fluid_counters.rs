//! The fluid solver's solve and filling-round counters (feature `obs`).
//!
//! The counters live in the process-wide registry, so this file is a test
//! binary of its own with a single test: no other test can solve
//! concurrently and perturb the deltas.

#![cfg(feature = "obs")]

use cynthia_obs::metrics;
use cynthia_sim::fluid::{FlowSpec, FluidSystem};

fn counter(name: &str) -> u64 {
    metrics().counter(name, "").get()
}

#[test]
fn classic_max_min_example_records_one_solve_of_two_rounds() {
    let solves = counter("cynthia_sim_fluid_solves_total");
    let rounds = counter("cynthia_sim_fluid_fill_rounds_total");

    // link2 saturates first and freezes B and C; A takes the rest of link1.
    let mut sys = FluidSystem::new();
    let l1 = sys.add_resource(10.0, "l1");
    let l2 = sys.add_resource(4.0, "l2");
    let a = sys.start_flow(FlowSpec::new(vec![l1], 1.0, 0));
    let b = sys.start_flow(FlowSpec::new(vec![l1, l2], 1.0, 1));
    let c = sys.start_flow(FlowSpec::new(vec![l2], 1.0, 2));
    assert_eq!(sys.flow_rate(b), Some(2.0));
    assert_eq!(sys.flow_rate(c), Some(2.0));
    assert_eq!(sys.flow_rate(a), Some(8.0));
    // Clean queries reuse the solve.
    assert_eq!(sys.total_rate_on(l1), 10.0);
    assert_eq!(sys.total_rate_on(l2), 4.0);

    assert_eq!(counter("cynthia_sim_fluid_solves_total") - solves, 1);
    assert_eq!(counter("cynthia_sim_fluid_fill_rounds_total") - rounds, 2);
}

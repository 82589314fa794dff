//! Instrumentation hooks for the simulation core (feature `obs`).
//!
//! Call sites in `events`/`fluid` invoke these thin functions
//! unconditionally; with the `obs` feature off they compile to empty
//! inline bodies, so the hot paths carry zero instrumentation cost and —
//! by construction — identical behavior. With the feature on, each hook
//! is one relaxed atomic check plus a relaxed counter bump against
//! process-wide metrics cached in `OnceLock`s (no registry lookup per
//! event). Hooks only ever *read* simulation state; they never perturb it.

#[cfg(feature = "obs")]
mod real {
    use cynthia_obs::{metrics, Counter};
    use std::sync::OnceLock;

    fn events() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            metrics().counter(
                "cynthia_sim_events_total",
                "Events popped from the discrete-event queue",
            )
        })
    }

    fn flows_started() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            metrics().counter(
                "cynthia_sim_flows_started_total",
                "Flows admitted to the fluid max-min solver",
            )
        })
    }

    fn flows_completed() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            metrics().counter(
                "cynthia_sim_flows_completed_total",
                "Flows that drained to zero remaining volume",
            )
        })
    }

    fn flows_cancelled() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            metrics().counter(
                "cynthia_sim_flows_cancelled_total",
                "Flows cancelled before completion (revocations, resets)",
            )
        })
    }

    fn fluid_solves() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            metrics().counter(
                "cynthia_sim_fluid_solves_total",
                "Max-min rate solves (progressive filling runs) of the fluid system",
            )
        })
    }

    fn fluid_fill_rounds() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            metrics().counter(
                "cynthia_sim_fluid_fill_rounds_total",
                "Progressive-filling rounds summed over fluid solves",
            )
        })
    }

    #[inline]
    pub fn event_popped() {
        if cynthia_obs::enabled() {
            events().inc();
        }
    }

    #[inline]
    pub fn flow_started() {
        if cynthia_obs::enabled() {
            flows_started().inc();
        }
    }

    #[inline]
    pub fn flows_finished(n: usize) {
        if n > 0 && cynthia_obs::enabled() {
            flows_completed().add(n as u64);
        }
    }

    #[inline]
    pub fn flows_dropped(n: usize) {
        if n > 0 && cynthia_obs::enabled() {
            flows_cancelled().add(n as u64);
        }
    }

    /// One finished rate solve that took `rounds` filling rounds.
    #[inline]
    pub fn fluid_solved(rounds: u64) {
        if cynthia_obs::enabled() {
            fluid_solves().inc();
            fluid_fill_rounds().add(rounds);
        }
    }
}

#[cfg(feature = "obs")]
pub use real::*;

/// No-op hook bodies compiled when the `obs` feature is off.
#[cfg(not(feature = "obs"))]
mod stub {
    #[inline(always)]
    pub fn event_popped() {}
    #[inline(always)]
    pub fn flow_started() {}
    #[inline(always)]
    pub fn flows_finished(_n: usize) {}
    #[inline(always)]
    pub fn flows_dropped(_n: usize) {}
    #[inline(always)]
    pub fn fluid_solved(_rounds: u64) {}
}

#[cfg(not(feature = "obs"))]
pub use stub::*;

//! Property-based tests of the max-min fair fluid allocator.

use cynthia_sim::fluid::{FlowId, FlowSpec, FluidSystem, ResourceId};
use cynthia_sim::EPS;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    capacities: Vec<f64>,
    /// For each flow: (link indices, volume, weight, optional cap)
    flows: Vec<(Vec<usize>, f64, f64, Option<f64>)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let caps = prop::collection::vec(1.0f64..1000.0, 1..5);
    caps.prop_flat_map(|capacities| {
        let n_res = capacities.len();
        let flow = (
            prop::collection::vec(0..n_res, 1..=n_res.min(3)),
            0.1f64..500.0,
            0.25f64..4.0,
            prop::option::of(0.5f64..200.0),
        );
        let flows = prop::collection::vec(flow, 1..12);
        (Just(capacities), flows).prop_map(|(capacities, flows)| Scenario { capacities, flows })
    })
}

fn build(s: &Scenario) -> (FluidSystem, Vec<ResourceId>, Vec<FlowId>) {
    let mut sys = FluidSystem::new();
    let rids: Vec<ResourceId> = s
        .capacities
        .iter()
        .enumerate()
        .map(|(i, c)| sys.add_resource(*c, format!("r{i}")))
        .collect();
    let fids = s
        .flows
        .iter()
        .enumerate()
        .map(|(i, (links, vol, w, cap))| {
            sys.start_flow(FlowSpec {
                links: links.iter().map(|l| rids[*l]).collect(),
                volume: *vol,
                weight: *w,
                max_rate: cap.unwrap_or(f64::INFINITY),
                tag: i as u64,
            })
        })
        .collect();
    (sys, rids, fids)
}

proptest! {
    /// No resource is ever oversubscribed.
    #[test]
    fn capacity_never_exceeded(s in scenario()) {
        let (mut sys, rids, _) = build(&s);
        for (i, r) in rids.iter().enumerate() {
            let used = sys.total_rate_on(*r);
            prop_assert!(
                used <= s.capacities[i] * (1.0 + 1e-9) + 1e-9,
                "resource {i}: used {used} > cap {}", s.capacities[i]
            );
        }
    }

    /// Every flow makes progress: positive rate (capacities are positive and
    /// every flow has at least one link).
    #[test]
    fn all_flows_progress(s in scenario()) {
        let (mut sys, _, fids) = build(&s);
        for f in &fids {
            let rate = sys.flow_rate(*f).unwrap();
            prop_assert!(rate > 0.0, "flow stuck at rate {rate}");
        }
    }

    /// Per-flow caps are honored.
    #[test]
    fn caps_respected(s in scenario()) {
        let (mut sys, _, fids) = build(&s);
        for (f, (_, _, _, cap)) in fids.iter().zip(&s.flows) {
            if let Some(c) = cap {
                let rate = sys.flow_rate(*f).unwrap();
                prop_assert!(rate <= c * (1.0 + 1e-9), "rate {rate} > cap {c}");
            }
        }
    }

    /// Max-min optimality certificate: each uncapped flow traverses at least
    /// one saturated resource on which no other flow has a higher
    /// weight-normalized rate.
    #[test]
    fn max_min_certificate(s in scenario()) {
        let (mut sys, rids, fids) = build(&s);
        let rates: Vec<f64> = fids.iter().map(|f| sys.flow_rate(*f).unwrap()).collect();
        let tol = 1e-6;
        for (i, (links, _, w, cap)) in s.flows.iter().enumerate() {
            let norm = rates[i] / w;
            if let Some(c) = cap {
                if rates[i] >= c * (1.0 - tol) {
                    continue; // flow is bound by its own cap: certificate holds
                }
            }
            let mut certified = false;
            for l in links {
                let used = sys.total_rate_on(rids[*l]);
                let saturated = used >= s.capacities[*l] * (1.0 - 1e-6);
                if !saturated {
                    continue;
                }
                // No co-located flow has a strictly higher normalized rate
                // unless it is frozen lower by another bottleneck: the
                // certificate only requires that *this* flow's normalized
                // rate is maximal among flows on `l` that are not bound
                // elsewhere below it. A simpler sound check: this flow's
                // normalized rate is >= the minimum share it would get if
                // the link were split by weight among its flows.
                let on_link: Vec<usize> = s
                    .flows
                    .iter()
                    .enumerate()
                    .filter(|(_, (ls, _, _, _))| ls.contains(l))
                    .map(|(j, _)| j)
                    .collect();
                let max_other_norm = on_link
                    .iter()
                    .filter(|j| **j != i)
                    .map(|j| rates[*j] / s.flows[*j].2)
                    .fold(0.0f64, f64::max);
                if norm + tol >= max_other_norm {
                    certified = true;
                    break;
                }
            }
            prop_assert!(certified, "flow {i} has no bottleneck certificate");
        }
    }

    /// Advancing by the next-completion time completes at least one flow and
    /// conserves volume (drained = rate * dt for every flow).
    #[test]
    fn advance_conserves_volume(s in scenario()) {
        let (mut sys, _, fids) = build(&s);
        let before: Vec<f64> = fids.iter().map(|f| sys.flow_remaining(*f).unwrap()).collect();
        let rates: Vec<f64> = fids.iter().map(|f| sys.flow_rate(*f).unwrap()).collect();
        if let Some((_, dt)) = sys.next_completion() {
            let done = sys.advance(dt);
            prop_assert!(!done.is_empty(), "advance(next_completion) completed nothing");
            for (i, f) in fids.iter().enumerate() {
                if let Some(rem) = sys.flow_remaining(*f) {
                    let expect = (before[i] - rates[i] * dt).max(0.0);
                    prop_assert!((rem - expect).abs() < 1e-6 * (1.0 + before[i]),
                        "flow {i}: remaining {rem}, expected {expect}");
                }
            }
        }
    }

    /// Mid-flight capacity shrink re-shares immediately: even below the
    /// current aggregate rate, usage drops under the new cap on every
    /// resource, and `advance` stays monotone (no flow's remaining volume
    /// grows) afterwards.
    #[test]
    fn set_capacity_shrink_reshares_mid_flight(s in scenario(), frac in 0.05f64..0.9) {
        let (mut sys, rids, fids) = build(&s);
        let (ri, used) = rids
            .iter()
            .enumerate()
            .map(|(i, r)| (i, sys.total_rate_on(*r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        prop_assert!(used > 0.0, "generator guarantees every flow progresses");
        let new_cap = used * frac;
        sys.set_capacity(rids[ri], new_cap).unwrap();
        for (i, r) in rids.iter().enumerate() {
            let u = sys.total_rate_on(*r);
            let cap = if i == ri { new_cap } else { s.capacities[i] };
            prop_assert!(
                u <= cap * (1.0 + 1e-9) + 1e-9,
                "resource {i}: used {u} > cap {cap} after shrink"
            );
        }
        let before: Vec<f64> = fids.iter().map(|f| sys.flow_remaining(*f).unwrap()).collect();
        if let Some((_, dt)) = sys.next_completion() {
            sys.advance(dt);
            for (i, f) in fids.iter().enumerate() {
                if let Some(rem) = sys.flow_remaining(*f) {
                    prop_assert!(rem <= before[i] + 1e-9, "flow {i} remaining grew: {rem} > {}", before[i]);
                }
            }
        }
    }

    /// A zero-capacity outage stalls exactly the flows crossing the dead
    /// resource; restoring the capacity lets the system drain to empty.
    #[test]
    fn zero_capacity_outage_then_recovery_drains(s in scenario()) {
        let (mut sys, rids, fids) = build(&s);
        sys.set_capacity(rids[0], 0.0).unwrap();
        for (f, (links, _, _, _)) in fids.iter().zip(&s.flows) {
            let rate = sys.flow_rate(*f).unwrap();
            if links.contains(&0) {
                prop_assert!(rate == 0.0, "flow through dead resource runs at {rate}");
            } else {
                prop_assert!(rate > 0.0, "unaffected flow stalled");
            }
        }
        sys.set_capacity(rids[0], s.capacities[0]).unwrap();
        let mut guard = 0;
        while let Some((_, dt)) = sys.next_completion() {
            sys.advance(dt);
            guard += 1;
            prop_assert!(guard < 10_000, "did not terminate after recovery");
        }
        prop_assert_eq!(sys.active_flows(), 0);
    }

    /// Running the system to completion terminates and delivers every flow
    /// exactly once.
    #[test]
    fn drains_to_empty(s in scenario()) {
        let (mut sys, _, _) = build(&s);
        let mut completed = Vec::new();
        let mut guard = 0;
        while let Some((_, dt)) = sys.next_completion() {
            completed.extend(sys.advance(dt).into_iter().map(|(_, tag)| tag));
            guard += 1;
            prop_assert!(guard < 10_000, "did not terminate");
        }
        prop_assert_eq!(sys.active_flows(), 0);
        completed.sort_unstable();
        let expect: Vec<u64> = (0..s.flows.len() as u64).collect();
        prop_assert_eq!(completed, expect);
    }
}

/// One step of a random driving sequence; see [`apply`] for how each
/// field is read.
type Op = (u8, Vec<usize>, f64, f64, Option<f64>, usize, f64);

fn op(n_res: usize) -> impl Strategy<Value = Op> {
    (
        0u8..10,
        prop::collection::vec(0..n_res, 1..=n_res.min(3)),
        0.0f64..500.0,
        0.0f64..4.0,
        prop::option::of(0.5f64..200.0),
        0usize..1000,
        0.0f64..1.0,
    )
}

/// Capacities: half drawn from `{10, 20, 30, 40}`, so that equal flows on
/// different resources often get exactly equal shares, half continuous.
fn ops_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    let cap =
        (1.0f64..1000.0, 0u32..8).prop_map(|(c, k)| if k < 4 { c } else { 10.0 * (k - 3) as f64 });
    prop::collection::vec(cap, 1..5).prop_flat_map(|caps| {
        let n_res = caps.len();
        (Just(caps), prop::collection::vec(op(n_res), 1..60))
    })
}

/// A flow the driver started and has not seen finish or be cancelled.
struct Live {
    id: FlowId,
    tag: u64,
    links: Vec<ResourceId>,
}

/// `RATE_EPS` of `fluid.rs`: slower flows count as stalled.
const RATE_EPS: f64 = 1e-12;

/// The next completion at the oracle's rates, with the same slot-order,
/// first-minimum tie-break as [`FluidSystem::next_completion`].
fn reference_next_completion(sys: &FluidSystem, rates: &[(FlowId, f64)]) -> Option<(FlowId, f64)> {
    let mut best: Option<(FlowId, f64)> = None;
    for &(id, rate) in rates {
        let remaining = sys.flow_remaining(id).unwrap();
        let dt = if remaining <= EPS {
            0.0
        } else if rate > RATE_EPS {
            remaining / rate
        } else {
            continue;
        };
        match best {
            Some((_, bdt)) if bdt <= dt => {}
            _ => best = Some((id, dt)),
        }
    }
    best
}

/// Applies one op, checking `advance` against the oracle's rates.
fn apply(
    sys: &mut FluidSystem,
    rids: &[ResourceId],
    caps: &[f64],
    live: &mut Vec<Live>,
    next_tag: &mut u64,
    op: &Op,
) -> Result<(), TestCaseError> {
    let (kind, links, x, w, cap, pick, frac) = op;
    match kind {
        // Start a flow: a tenth have zero volume, half have unit weight
        // (equal shares tie exactly), a quarter are uncapped.
        0..=3 => {
            let links: Vec<ResourceId> = links.iter().map(|l| rids[*l]).collect();
            let volume = if *x < 50.0 { 0.0 } else { *x };
            let weight = if *w < 2.0 { 1.0 } else { *w - 1.75 };
            let tag = *next_tag;
            *next_tag += 1;
            let id = sys.start_flow(FlowSpec {
                links: links.clone(),
                volume,
                weight,
                max_rate: cap.unwrap_or(f64::INFINITY),
                tag,
            });
            live.push(Live { id, tag, links });
        }
        // Cancel one flow by id; a stale id must not resolve. With no
        // live flow this falls through to a capacity change.
        4 if !live.is_empty() => {
            let gone = live.remove(pick % live.len());
            prop_assert!(sys.cancel_flow(gone.id).is_some());
            prop_assert!(sys.cancel_flow(gone.id).is_none());
        }
        // Cancel every flow whose tag falls in one residue class.
        5 => {
            let m = 2 + (pick % 3) as u64;
            let k = (pick / 3) as u64 % m;
            let gone = sys.cancel_flows_where(|t| t % m == k);
            let mut want: Vec<u64> = live
                .iter()
                .filter(|f| f.tag % m == k)
                .map(|f| f.tag)
                .collect();
            let mut got: Vec<u64> = gone.iter().map(|(t, _)| *t).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            live.retain(|f| f.tag % m != k);
        }
        // Advance to the next completion, or part of the way there.
        6..=8 => {
            let rates = sys.reference_rates();
            let dt = match sys.next_completion() {
                Some((_, dt)) if *kind == 6 => dt,
                Some((_, dt)) => dt * frac,
                None => *frac,
            };
            let before: Vec<(FlowId, f64, f64)> = rates
                .iter()
                .map(|&(id, r)| (id, r, sys.flow_remaining(id).unwrap()))
                .collect();
            let done = sys.advance(dt);
            let mut want_done = Vec::new();
            for (id, rate, rem) in before {
                let left = (rem - rate * dt).max(0.0);
                if left <= EPS {
                    want_done.push(id);
                    prop_assert!(sys.flow_remaining(id).is_none());
                } else {
                    prop_assert_eq!(
                        sys.flow_remaining(id).map(f64::to_bits),
                        Some(left.to_bits())
                    );
                }
            }
            let got_done: Vec<FlowId> = done.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(got_done, want_done);
            live.retain(|f| !done.iter().any(|(id, _)| *id == f.id));
        }
        // Change a capacity: a third of the time to zero (an outage),
        // otherwise to a fraction or multiple of its starting value.
        _ => {
            let r = pick % rids.len();
            let c = if *frac < 1.0 / 3.0 {
                0.0
            } else {
                caps[r] * 2.0 * frac
            };
            sys.set_capacity(rids[r], c).unwrap();
        }
    }
    Ok(())
}

/// The solver agrees with the reference solver bit for bit.
fn check_against_reference(
    sys: &mut FluidSystem,
    rids: &[ResourceId],
    live: &[Live],
) -> Result<(), TestCaseError> {
    let rates = sys.reference_rates();
    prop_assert_eq!(rates.len(), live.len());
    prop_assert_eq!(sys.active_flows(), live.len());
    for &(id, rate) in &rates {
        prop_assert_eq!(sys.flow_rate(id).map(f64::to_bits), Some(rate.to_bits()));
    }
    for r in rids {
        let want: f64 = rates
            .iter()
            .filter(|(id, _)| live.iter().any(|f| f.id == *id && f.links.contains(r)))
            .map(|(_, rate)| *rate)
            .sum();
        prop_assert_eq!(
            sys.total_rate_on(*r).to_bits(),
            want.to_bits(),
            "resource {:?}",
            r
        );
    }
    let want = reference_next_completion(sys, &rates);
    let got = sys.next_completion();
    prop_assert_eq!(
        got.map(|(id, dt)| (id, dt.to_bits())),
        want.map(|(id, dt)| (id, dt.to_bits()))
    );
    Ok(())
}

/// Levels that differ only by rounding must saturate in the same round,
/// as they do in the reference. Seven flows share `a` (capacity 1) at 1/7
/// each and also cross `b` (2); their rates sum to one ulp below 1, which
/// leaves `b`'s two other flows a level of 0.5000000000000001 against 0.5
/// for the two flows on `c` (1). The solver's tolerance freezes all four
/// at 0.5 in one round.
#[test]
fn near_tied_levels_freeze_together_like_the_reference() {
    let mut sys = FluidSystem::new();
    let a = sys.add_resource(1.0, "a");
    let b = sys.add_resource(2.0, "b");
    let c = sys.add_resource(1.0, "c");
    let mut flows = Vec::new();
    for (links, n) in [(vec![a, b], 7), (vec![b], 2), (vec![c], 2)] {
        for _ in 0..n {
            flows.push(sys.start_flow(FlowSpec::new(links.clone(), 1.0, 0)));
        }
    }
    for (id, rate) in sys.reference_rates() {
        assert_eq!(sys.flow_rate(id).map(f64::to_bits), Some(rate.to_bits()));
    }
    assert_eq!(
        sys.flow_rate(flows[7]),
        Some(0.5),
        "near-tied levels froze in different rounds"
    );
    assert_eq!(sys.flow_rate(flows[9]), Some(0.5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random sequences of starts (weighted, capped, zero-volume), cancels,
    /// advances and capacity changes (zero included), with slots reused
    /// along the way: after every step the solver returns the reference
    /// solver's rates, totals and next completion bit for bit.
    #[test]
    fn solver_matches_reference_bit_for_bit(s in ops_scenario()) {
        let (caps, ops) = s;
        let mut sys = FluidSystem::new();
        let rids: Vec<ResourceId> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| sys.add_resource(*c, format!("r{i}")))
            .collect();
        let mut live = Vec::new();
        let mut next_tag = 0;
        for op in &ops {
            apply(&mut sys, &rids, &caps, &mut live, &mut next_tag, op)?;
            check_against_reference(&mut sys, &rids, &live)?;
        }
    }
}

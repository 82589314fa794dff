//! Weighted max-min fair fluid resource sharing.
//!
//! Network links (a parameter server's NIC, a worker's NIC) and
//! processor-sharing CPUs are modelled as capacitated *resources*. Work in
//! progress (a gradient push, a parameter pull, a PS update application) is a
//! *flow* with a volume (MB, or GFLOP for CPU work) traversing one or more
//! resources. At any instant the rate of every active flow is the weighted
//! max-min fair allocation computed by progressive filling: all flows grow
//! proportionally to their weight until a resource saturates, the flows
//! crossing it freeze, and the rest keep growing.
//!
//! This is the classical fluid approximation used by flow-level network
//! simulators; it captures exactly the contention effects the Cynthia paper
//! measures (PS NIC saturation in Figs. 2 and 7, PS CPU saturation in
//! Table 2) without packet-level detail.

use crate::{Time, EPS};

/// Rates below this are treated as stalled when searching for the next flow
/// completion.
const RATE_EPS: f64 = 1e-12;

/// Identifies a resource within a [`FluidSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub(crate) u32);

/// Why a [`FluidSystem`] mutation was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FluidError {
    /// The [`ResourceId`] does not belong to this system.
    UnknownResource {
        /// Offending resource index.
        index: u32,
        /// Number of registered resources.
        n_resources: usize,
    },
    /// A capacity was negative, NaN, or infinite.
    BadCapacity {
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for FluidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FluidError::UnknownResource { index, n_resources } => {
                write!(f, "unknown resource {index} (system has {n_resources})")
            }
            FluidError::BadCapacity { value } => {
                write!(f, "capacity must be finite and non-negative, got {value}")
            }
        }
    }
}

impl std::error::Error for FluidError {}

/// Identifies a flow within a [`FluidSystem`]. Ids are generational: once a
/// flow completes or is cancelled its id is never valid again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    idx: u32,
    gen: u32,
}

/// A capacitated resource (link bandwidth in MB/s, CPU rate in GFLOPS, ...).
#[derive(Debug, Clone)]
struct Resource {
    capacity: f64,
    name: String,
}

#[derive(Debug, Clone)]
struct Flow {
    links: Vec<ResourceId>,
    remaining: f64,
    rate: f64,
    weight: f64,
    max_rate: f64,
    /// Opaque caller payload, returned on completion.
    tag: u64,
}

#[derive(Debug, Clone)]
enum Slot {
    Occupied { gen: u32, flow: Flow },
    Vacant { gen: u32 },
}

/// The flow in `slot`, which the solver's worklist guarantees is occupied.
fn occupied(slot: &Slot) -> &Flow {
    match slot {
        Slot::Occupied { flow, .. } => flow,
        Slot::Vacant { .. } => unreachable!("worklist held a vacant slot"),
    }
}

/// Parameters for starting a flow. See [`FluidSystem::start_flow`].
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources the flow traverses; its rate is constrained by all of them.
    pub links: Vec<ResourceId>,
    /// Total volume to transfer/process (same unit as the link capacities
    /// per second).
    pub volume: f64,
    /// Max-min weight (1.0 = equal share).
    pub weight: f64,
    /// Optional hard rate cap (e.g. an application-level throttle).
    pub max_rate: f64,
    /// Opaque payload handed back on completion.
    pub tag: u64,
}

impl FlowSpec {
    /// A unit-weight, uncapped flow.
    pub fn new(links: Vec<ResourceId>, volume: f64, tag: u64) -> Self {
        FlowSpec {
            links,
            volume,
            weight: 1.0,
            max_rate: f64::INFINITY,
            tag,
        }
    }
}

/// A set of resources and the flows currently sharing them.
///
/// Typical driving loop (see `cynthia-train` for the real one):
///
/// ```
/// use cynthia_sim::fluid::{FluidSystem, FlowSpec};
///
/// let mut sys = FluidSystem::new();
/// let link = sys.add_resource(100.0, "ps-nic");
/// let a = sys.start_flow(FlowSpec::new(vec![link], 50.0, 1));
/// let _b = sys.start_flow(FlowSpec::new(vec![link], 200.0, 2));
/// // Two equal flows share 100 MB/s -> 50 each.
/// assert!((sys.flow_rate(a).unwrap() - 50.0).abs() < 1e-9);
/// let (first, dt) = sys.next_completion().unwrap();
/// assert_eq!(first, a);             // 50 MB at 50 MB/s
/// assert!((dt - 1.0).abs() < 1e-9);
/// let done = sys.advance(dt);
/// assert_eq!(done, vec![(a, 1)]);
/// // The survivor now gets the full link.
/// assert!((sys.total_rate_on(link) - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default)]
pub struct FluidSystem {
    resources: Vec<Resource>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    active: usize,
    dirty: bool,
    /// Sum of the rates crossing each resource, in slot order, as of the
    /// last solve.
    totals: Vec<f64>,
    scratch: Scratch,
}

/// Per-solve buffers of [`FluidSystem::ensure_rates`], kept between solves
/// so that a solve allocates nothing once they have grown.
#[derive(Debug, Default)]
struct Scratch {
    /// Rate already frozen on each resource.
    used: Vec<f64>,
    /// Unfrozen weight on each resource in the current round.
    weight_on: Vec<f64>,
    /// Resources saturated at the current round's level.
    saturated: Vec<bool>,
    /// Slot indices of unfrozen flows, ascending.
    unfrozen: Vec<u32>,
}

impl FluidSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with the given capacity (per-second units).
    pub fn add_resource(&mut self, capacity: f64, name: impl Into<String>) -> ResourceId {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "capacity must be finite and non-negative"
        );
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            capacity,
            name: name.into(),
        });
        self.dirty = true;
        id
    }

    /// Changes a resource's capacity (modelling background interference, a
    /// degraded link, or a downed node). In-flight flows re-share on the
    /// next query; shrinking below the current total rate is legal and
    /// simply slows the flows crossing `r`.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) -> Result<(), FluidError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(FluidError::BadCapacity { value: capacity });
        }
        let n_resources = self.resources.len();
        let res = self
            .resources
            .get_mut(r.0 as usize)
            .ok_or(FluidError::UnknownResource {
                index: r.0,
                n_resources,
            })?;
        res.capacity = capacity;
        self.dirty = true;
        Ok(())
    }

    /// The configured capacity of `r` (0 for a foreign id).
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources.get(r.0 as usize).map_or(0.0, |x| x.capacity)
    }

    /// The resource's diagnostic name, or `None` for a foreign id.
    pub fn resource_name(&self, r: ResourceId) -> Option<&str> {
        self.resources.get(r.0 as usize).map(|x| x.name.as_str())
    }

    /// Number of flows currently in the system.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Starts a flow and returns its id. Rates of all flows are recomputed
    /// lazily on the next query.
    ///
    /// A zero-volume flow is legal and completes on the next [`advance`] of
    /// any duration (including 0).
    ///
    /// [`advance`]: FluidSystem::advance
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.volume >= 0.0, "flow volume must be non-negative");
        assert!(spec.weight > 0.0, "flow weight must be positive");
        assert!(
            !spec.links.is_empty() || spec.max_rate.is_finite(),
            "a flow needs at least one link or a finite max_rate"
        );
        crate::obs::flow_started();
        let mut links = spec.links;
        links.sort_by_key(|r| r.0);
        links.dedup();
        for l in &links {
            assert!(
                (l.0 as usize) < self.resources.len(),
                "unknown resource {l:?}"
            );
        }
        let flow = Flow {
            links,
            remaining: spec.volume,
            rate: 0.0,
            weight: spec.weight,
            max_rate: spec.max_rate,
            tag: spec.tag,
        };
        self.active += 1;
        self.dirty = true;
        if let Some(idx) = self.free.pop() {
            let gen = match self.slots[idx as usize] {
                Slot::Vacant { gen } => gen,
                Slot::Occupied { .. } => unreachable!("free list held an occupied slot"),
            };
            self.slots[idx as usize] = Slot::Occupied { gen, flow };
            FlowId { idx, gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot::Occupied { gen: 0, flow });
            FlowId { idx, gen: 0 }
        }
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        match self.slots.get(id.idx as usize)? {
            Slot::Occupied { gen, flow } if *gen == id.gen => Some(flow),
            _ => None,
        }
    }

    /// Removes a flow before completion. Returns its remaining volume, or
    /// `None` if the id is stale.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<f64> {
        let remaining = self.get(id)?.remaining;
        self.release(id.idx);
        crate::obs::flows_dropped(1);
        Some(remaining)
    }

    /// Cancels every active flow whose tag satisfies `pred` (the revocation
    /// path: a revoked worker's in-flight pushes and pulls vanish with the
    /// instance). Returns the `(tag, remaining volume)` of cancelled flows
    /// in slot order, which is deterministic.
    pub fn cancel_flows_where(&mut self, mut pred: impl FnMut(u64) -> bool) -> Vec<(u64, f64)> {
        let victims: Vec<(u32, u64, f64)> = self
            .iter_flows()
            .filter(|(_, f)| pred(f.tag))
            .map(|(idx, f)| (idx, f.tag, f.remaining))
            .collect();
        let cancelled: Vec<(u64, f64)> = victims
            .into_iter()
            .map(|(idx, tag, remaining)| {
                self.release(idx);
                (tag, remaining)
            })
            .collect();
        crate::obs::flows_dropped(cancelled.len());
        cancelled
    }

    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if let Slot::Occupied { gen, .. } = slot {
            *slot = Slot::Vacant {
                gen: gen.wrapping_add(1),
            };
            self.free.push(idx);
            self.active -= 1;
            self.dirty = true;
        }
    }

    /// Current max-min rate of `id`, or `None` if the flow is gone.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        self.get(id).map(|f| f.rate)
    }

    /// Remaining volume of `id`, or `None` if the flow is gone.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.remaining)
    }

    /// Sum of current flow rates through `r` (≤ capacity).
    pub fn total_rate_on(&mut self, r: ResourceId) -> f64 {
        self.ensure_rates();
        self.totals.get(r.0 as usize).copied().unwrap_or(-0.0)
    }

    /// Instantaneous utilization of `r` in `[0, 1]` (0 for zero-capacity
    /// resources).
    pub fn utilization(&mut self, r: ResourceId) -> f64 {
        let cap = self.capacity(r);
        if cap <= 0.0 {
            0.0
        } else {
            (self.total_rate_on(r) / cap).min(1.0)
        }
    }

    fn iter_flows(&self) -> impl Iterator<Item = (u32, &Flow)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { flow, .. } => Some((i as u32, flow)),
            Slot::Vacant { .. } => None,
        })
    }

    fn iter_flows_with_id(&self) -> impl Iterator<Item = (FlowId, &Flow)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { gen, flow } => Some((
                FlowId {
                    idx: i as u32,
                    gen: *gen,
                },
                flow,
            )),
            Slot::Vacant { .. } => None,
        })
    }

    /// Recomputes all flow rates by weighted progressive filling.
    ///
    /// Each round, every unfrozen flow `f` grows at rate `weight_f · λ`. The
    /// smallest `λ` at which either (a) a resource saturates or (b) a flow
    /// hits its `max_rate` freezes the affected flows, and the remaining
    /// flows keep growing. Terminates in at most `resources + flows` rounds.
    ///
    /// The result is bit-identical to [`FluidSystem::reference_rates`]. A
    /// round walks only the worklist of unfrozen slot indices, which starts
    /// in ascending slot order and shrinks by an order-preserving `retain`;
    /// so every f64 sum (`weight_on`, `used`, the per-resource totals) adds
    /// the same terms in the same order as the reference, which scans every
    /// slot and skips frozen ones. Buffers live in [`Scratch`] and links are
    /// borrowed in place, so a solve allocates nothing once warm.
    fn ensure_rates(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;

        let n_res = self.resources.len();
        let Scratch {
            used,
            weight_on,
            saturated,
            unfrozen,
        } = &mut self.scratch;
        used.clear();
        used.resize(n_res, 0.0);
        unfrozen.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Slot::Occupied { flow, .. } = slot {
                flow.rate = 0.0;
                unfrozen.push(i as u32);
            }
        }

        let mut rounds = 0u64;
        while !unfrozen.is_empty() {
            rounds += 1;
            // Aggregate unfrozen weight per resource.
            weight_on.clear();
            weight_on.resize(n_res, 0.0);
            for &i in unfrozen.iter() {
                let f = occupied(&self.slots[i as usize]);
                for l in &f.links {
                    weight_on[l.0 as usize] += f.weight;
                }
            }

            // Bottleneck level over resources and flow caps.
            let level = |r: usize| (self.resources[r].capacity - used[r]).max(0.0) / weight_on[r];
            let mut lambda = f64::INFINITY;
            for (r, &w) in weight_on.iter().enumerate() {
                if w > 0.0 {
                    lambda = lambda.min(level(r));
                }
            }
            for &i in unfrozen.iter() {
                let f = occupied(&self.slots[i as usize]);
                if f.max_rate.is_finite() {
                    lambda = lambda.min(f.max_rate / f.weight);
                }
            }
            assert!(
                lambda.is_finite(),
                "unfrozen flow with no binding constraint (flow without links?)"
            );

            // Freeze every flow touching a resource saturated at `lambda`,
            // and every flow whose cap equals `lambda`.
            let tol = 1e-12 + lambda * 1e-12;
            saturated.clear();
            saturated.extend((0..n_res).map(|r| weight_on[r] > 0.0 && level(r) <= lambda + tol));
            let slots = &mut self.slots;
            let mut froze_any = false;
            unfrozen.retain(|&i| {
                let Slot::Occupied { flow: f, .. } = &mut slots[i as usize] else {
                    unreachable!("worklist held a vacant slot")
                };
                let hits_saturated = f.links.iter().any(|l| saturated[l.0 as usize]);
                let capped = f.max_rate.is_finite() && f.max_rate / f.weight <= lambda + tol;
                if !(hits_saturated || capped) {
                    return true;
                }
                f.rate = if capped && !hits_saturated {
                    f.max_rate
                } else {
                    f.weight * lambda
                };
                for l in &f.links {
                    used[l.0 as usize] += f.rate;
                }
                froze_any = true;
                false
            });
            assert!(froze_any, "progressive filling failed to make progress");
        }

        // `-0.0` is the neutral element `Iterator::sum` starts from, so an
        // idle resource reads exactly what a per-query sum would return.
        self.totals.clear();
        self.totals.resize(n_res, -0.0);
        for slot in &self.slots {
            if let Slot::Occupied { flow: f, .. } = slot {
                for l in &f.links {
                    self.totals[l.0 as usize] += f.rate;
                }
            }
        }
        crate::obs::fluid_solved(rounds);
    }

    /// The progressive-filling solver [`FluidSystem::ensure_rates`] must
    /// match bit for bit, kept as the test oracle: it rescans every slot
    /// each round and allocates per round. Returns every flow's rate in
    /// slot order without touching the system.
    #[doc(hidden)]
    pub fn reference_rates(&self) -> Vec<(FlowId, f64)> {
        let n_res = self.resources.len();
        let mut used = vec![0.0f64; n_res]; // rate already frozen on each resource
        let mut frozen: Vec<bool> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            frozen.push(!matches!(slot, Slot::Occupied { .. }));
        }
        // Zero-rate init.
        let mut rates = vec![0.0f64; self.slots.len()];

        loop {
            // Aggregate unfrozen weight per resource.
            let mut weight_on = vec![0.0f64; n_res];
            let mut any_unfrozen = false;
            for (i, f) in self.iter_flows() {
                if frozen[i as usize] {
                    continue;
                }
                any_unfrozen = true;
                for l in &f.links {
                    weight_on[l.0 as usize] += f.weight;
                }
            }
            if !any_unfrozen {
                break;
            }

            // Bottleneck level over resources and flow caps.
            let mut lambda = f64::INFINITY;
            for r in 0..n_res {
                if weight_on[r] > 0.0 {
                    let level = (self.resources[r].capacity - used[r]).max(0.0) / weight_on[r];
                    lambda = lambda.min(level);
                }
            }
            for (i, f) in self.iter_flows() {
                if !frozen[i as usize] && f.max_rate.is_finite() {
                    lambda = lambda.min(f.max_rate / f.weight);
                }
            }
            assert!(
                lambda.is_finite(),
                "unfrozen flow with no binding constraint (flow without links?)"
            );

            // Freeze every flow touching a resource saturated at `lambda`,
            // and every flow whose cap equals `lambda`.
            let tol = 1e-12 + lambda * 1e-12;
            let mut saturated = vec![false; n_res];
            for r in 0..n_res {
                if weight_on[r] > 0.0 {
                    let level = (self.resources[r].capacity - used[r]).max(0.0) / weight_on[r];
                    saturated[r] = level <= lambda + tol;
                }
            }
            let mut froze_any = false;
            for (i, f) in self.iter_flows() {
                if frozen[i as usize] {
                    continue;
                }
                let (hits_saturated, capped, weight, max_rate, links) = (
                    f.links.iter().any(|l| saturated[l.0 as usize]),
                    f.max_rate.is_finite() && f.max_rate / f.weight <= lambda + tol,
                    f.weight,
                    f.max_rate,
                    f.links.clone(),
                );
                if hits_saturated || capped {
                    let rate = if capped && !hits_saturated {
                        max_rate
                    } else {
                        weight * lambda
                    };
                    rates[i as usize] = rate;
                    for l in &links {
                        used[l.0 as usize] += rate;
                    }
                    frozen[i as usize] = true;
                    froze_any = true;
                }
            }
            assert!(froze_any, "progressive filling failed to make progress");
        }
        self.iter_flows_with_id()
            .map(|(id, _)| (id, rates[id.idx as usize]))
            .collect()
    }

    /// Time until the next flow completes at current rates, as
    /// `(flow, dt)`, or `None` if no flow can make progress (either the
    /// system is empty or every active flow is stalled at rate ≈ 0; use
    /// [`FluidSystem::is_stalled`] to distinguish).
    pub fn next_completion(&mut self) -> Option<(FlowId, Time)> {
        self.ensure_rates();
        let mut best: Option<(FlowId, Time)> = None;
        for (id, f) in self.iter_flows_with_id() {
            let dt = if f.remaining <= EPS {
                0.0
            } else if f.rate > RATE_EPS {
                f.remaining / f.rate
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

    /// True if there are active flows but none can progress.
    pub fn is_stalled(&mut self) -> bool {
        self.active > 0 && self.next_completion().is_none()
    }

    /// Advances time by `dt`, draining every flow at its current rate.
    /// Returns the `(id, tag)` of flows that completed, in slot order
    /// (deterministic).
    pub fn advance(&mut self, dt: Time) -> Vec<(FlowId, u64)> {
        assert!(dt >= 0.0, "cannot advance by negative time");
        self.ensure_rates();
        let mut done = Vec::new();
        for idx in 0..self.slots.len() as u32 {
            let (finished, gen, tag) = match &mut self.slots[idx as usize] {
                Slot::Occupied { gen, flow } => {
                    flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
                    (flow.remaining <= EPS, *gen, flow.tag)
                }
                Slot::Vacant { .. } => continue,
            };
            if finished {
                done.push((FlowId { idx, gen }, tag));
            }
        }
        for (id, _) in &done {
            self.release(id.idx);
        }
        crate::obs::flows_finished(done.len());
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 100.0, 0));
        assert!(approx(sys.flow_rate(f).unwrap(), 10.0));
        let (id, dt) = sys.next_completion().unwrap();
        assert_eq!(id, f);
        assert!(approx(dt, 10.0));
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(90.0, "link");
        let flows: Vec<_> = (0..3)
            .map(|i| sys.start_flow(FlowSpec::new(vec![r], 100.0, i)))
            .collect();
        for f in &flows {
            assert!(approx(sys.flow_rate(*f).unwrap(), 30.0));
        }
    }

    #[test]
    fn weights_bias_the_shares() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(90.0, "link");
        let heavy = sys.start_flow(FlowSpec {
            links: vec![r],
            volume: 1.0,
            weight: 2.0,
            max_rate: f64::INFINITY,
            tag: 0,
        });
        let light = sys.start_flow(FlowSpec::new(vec![r], 1.0, 1));
        assert!(approx(sys.flow_rate(heavy).unwrap(), 60.0));
        assert!(approx(sys.flow_rate(light).unwrap(), 30.0));
    }

    #[test]
    fn max_rate_caps_redistribute_to_others() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        let capped = sys.start_flow(FlowSpec {
            links: vec![r],
            volume: 1.0,
            weight: 1.0,
            max_rate: 10.0,
            tag: 0,
        });
        let free = sys.start_flow(FlowSpec::new(vec![r], 1.0, 1));
        assert!(approx(sys.flow_rate(capped).unwrap(), 10.0));
        assert!(approx(sys.flow_rate(free).unwrap(), 90.0));
    }

    #[test]
    fn two_link_flow_limited_by_narrow_link() {
        let mut sys = FluidSystem::new();
        let wide = sys.add_resource(100.0, "worker-nic");
        let narrow = sys.add_resource(10.0, "ps-nic");
        let f = sys.start_flow(FlowSpec::new(vec![wide, narrow], 1.0, 0));
        assert!(approx(sys.flow_rate(f).unwrap(), 10.0));
    }

    #[test]
    fn classic_max_min_example() {
        // Three flows: A on link1 only, B on link1+link2, C on link2 only.
        // link1 cap 10, link2 cap 4. Progressive filling: B and C freeze at
        // 2 when link2 saturates; A then takes the rest of link1 (8).
        let mut sys = FluidSystem::new();
        let l1 = sys.add_resource(10.0, "l1");
        let l2 = sys.add_resource(4.0, "l2");
        let a = sys.start_flow(FlowSpec::new(vec![l1], 1.0, 0));
        let b = sys.start_flow(FlowSpec::new(vec![l1, l2], 1.0, 1));
        let c = sys.start_flow(FlowSpec::new(vec![l2], 1.0, 2));
        assert!(approx(sys.flow_rate(b).unwrap(), 2.0));
        assert!(approx(sys.flow_rate(c).unwrap(), 2.0));
        assert!(approx(sys.flow_rate(a).unwrap(), 8.0));
    }

    #[test]
    fn completion_frees_capacity_for_survivors() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        let short = sys.start_flow(FlowSpec::new(vec![r], 50.0, 7));
        let long = sys.start_flow(FlowSpec::new(vec![r], 500.0, 8));
        let (id, dt) = sys.next_completion().unwrap();
        assert_eq!(id, short);
        assert!(approx(dt, 1.0));
        let done = sys.advance(dt);
        assert_eq!(done, vec![(short, 7)]);
        assert!(approx(sys.flow_rate(long).unwrap(), 100.0));
        // 500 - 50 already moved = 450 left at 100/s.
        let (_, dt2) = sys.next_completion().unwrap();
        assert!(approx(dt2, 4.5));
    }

    #[test]
    fn zero_volume_flow_completes_immediately() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(1.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 0.0, 3));
        let (id, dt) = sys.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(dt, 0.0);
        let done = sys.advance(0.0);
        assert_eq!(done, vec![(f, 3)]);
    }

    #[test]
    fn cancel_returns_remaining() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 30.0, 0));
        sys.advance(1.0);
        let rem = sys.cancel_flow(f).unwrap();
        assert!(approx(rem, 20.0));
        assert_eq!(sys.active_flows(), 0);
        assert_eq!(sys.cancel_flow(f), None, "stale id must not resolve");
    }

    #[test]
    fn cancel_where_takes_matching_flows_only() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        sys.start_flow(FlowSpec::new(vec![r], 30.0, 10));
        sys.start_flow(FlowSpec::new(vec![r], 30.0, 21));
        sys.start_flow(FlowSpec::new(vec![r], 30.0, 12));
        sys.advance(1.0);
        // Even tags belong to the "revoked worker".
        let gone = sys.cancel_flows_where(|t| t % 2 == 0);
        let tags: Vec<u64> = gone.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![10, 12], "slot order, matching only");
        for (_, rem) in &gone {
            assert!((rem - (30.0 - 10.0 / 3.0)).abs() < 1e-9);
        }
        assert_eq!(sys.active_flows(), 1);
        // The survivor now gets the whole link.
        let (_, dt) = sys.next_completion().unwrap();
        assert!((dt - (30.0 - 10.0 / 3.0) / 10.0).abs() < 1e-9);
    }

    #[test]
    fn stale_ids_after_slot_reuse_do_not_resolve() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        let f1 = sys.start_flow(FlowSpec::new(vec![r], 1.0, 0));
        sys.cancel_flow(f1);
        let f2 = sys.start_flow(FlowSpec::new(vec![r], 1.0, 1));
        assert_eq!(f1.idx, f2.idx, "slot should be reused");
        assert!(sys.flow_rate(f1).is_none());
        assert!(sys.flow_rate(f2).is_some());
    }

    #[test]
    fn utilization_reflects_load() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        assert_eq!(sys.utilization(r), 0.0);
        sys.start_flow(FlowSpec {
            links: vec![r],
            volume: 1.0,
            weight: 1.0,
            max_rate: 25.0,
            tag: 0,
        });
        assert!(approx(sys.utilization(r), 0.25));
    }

    #[test]
    fn set_capacity_reshapes_rates_mid_flight() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(100.0, "link");
        let f = sys.start_flow(FlowSpec::new(vec![r], 100.0, 0));
        sys.advance(0.5); // 50 MB left at 100 MB/s
        sys.set_capacity(r, 25.0).unwrap();
        assert!(approx(sys.flow_rate(f).unwrap(), 25.0));
        let (_, dt) = sys.next_completion().unwrap();
        assert!(approx(dt, 2.0));
        // Capacity 0 stalls the flow without dropping it.
        sys.set_capacity(r, 0.0).unwrap();
        assert!(sys.is_stalled());
        sys.set_capacity(r, 50.0).unwrap();
        assert!(approx(sys.flow_rate(f).unwrap(), 50.0));
    }

    #[test]
    fn set_capacity_rejects_bad_inputs() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(10.0, "link");
        assert_eq!(
            sys.set_capacity(r, -1.0),
            Err(FluidError::BadCapacity { value: -1.0 })
        );
        assert!(matches!(
            sys.set_capacity(r, f64::NAN),
            Err(FluidError::BadCapacity { .. })
        ));
        let foreign = ResourceId(7);
        assert_eq!(
            sys.set_capacity(foreign, 5.0),
            Err(FluidError::UnknownResource {
                index: 7,
                n_resources: 1
            })
        );
        // Failed mutations leave the capacity untouched.
        assert!(approx(sys.capacity(r), 10.0));
        assert_eq!(sys.capacity(foreign), 0.0);
        assert_eq!(sys.resource_name(foreign), None);
        assert_eq!(sys.resource_name(r), Some("link"));
    }

    #[test]
    fn stall_detection() {
        let mut sys = FluidSystem::new();
        let r = sys.add_resource(0.0, "dead-link");
        sys.start_flow(FlowSpec::new(vec![r], 1.0, 0));
        assert!(sys.is_stalled());
    }
}

//! Expert-parallel MoE execution over the rank fabric.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use schemoe_cluster::{FabricError, RankHandle};
use schemoe_collectives::{
    chunk_tag, lanes, reference_all_to_all, reference_all_to_all_timeout, AllToAll,
    MAX_PARTITION_DEGREE,
};
use schemoe_compression::{Compressor, NoCompression};
use schemoe_obs as obs;
use schemoe_scheduler::executor::{run_overlapped_cancellable, ExecTask, Worker};
use schemoe_tensor::nn::Param;
use schemoe_tensor::Tensor;

use crate::expert::Expert;
use crate::gating::{GateDecision, TopKGate};
use crate::placement::Placement;

/// No codec packs more than this many values into one wire byte, so a
/// chunk header claiming more rows than that is corrupt before any codec
/// (or allocation) sees it.
const MAX_VALUES_PER_BYTE: usize = 64;

/// An expert-parallel MoE layer: every rank owns `experts_per_rank`
/// experts and a gate replica, tokens travel through two all-to-alls.
///
/// Forward (paper §2.2, Fig. 2): the gate routes local tokens to *global*
/// experts; per-destination payloads are serialized, compressed with the
/// configured [`Compressor`], exchanged through the configured
/// [`AllToAll`], decompressed, pushed through the serving rank's experts,
/// and shipped back the same way for the weighted combine. Backward
/// reverses the exchanges (gradients travel uncompressed, matching the
/// paper's §7 caution about compressing backpropagation).
///
/// Where every slot goes is read off one routing table, a [`Placement`]:
/// slot `s` of expert `e` travels to `servers(e)[s % g]`. The static
/// layout, dead ranks (which serve nothing), failover (a buddy listed as
/// a dead rank's experts' server) and load-aware placement (hot experts
/// with more servers, experts moved off gray ranks) are all just edits of
/// that table; both schedules below route by it.
///
/// With [`with_partition_degree`](Self::with_partition_degree) above 1 the
/// forward runs ScheMoE's *pipelined* schedule instead of the serial one:
/// the batch's routed slots are split into `r` chunks and the per-chunk
/// task chain `C1 → A2A1 → (D1·E·C2) → A2A2 → D2` executes on a two-worker
/// overlap executor, so chunk `c`'s exchange overlaps chunk `c+1`'s
/// compute (the paper's OptSche order). The overlapped output is
/// bit-identical to the serial path: the gate runs once on the whole
/// batch, expert bodies are row-wise, and the final combine reassembles
/// chunks into exactly the serial slot order before accumulating.
pub struct DistributedMoeLayer {
    gate: TopKGate,
    local_experts: Vec<Box<dyn Expert>>,
    experts_per_rank: usize,
    compressor: Box<dyn Compressor>,
    a2a: Box<dyn AllToAll>,
    cache: Option<Cache>,
    /// ScheMoE pipelining degree `r`; 1 = serial.
    partition_degree: usize,
    /// Liveness deadline for the masked exchanges' receives.
    recv_timeout: Option<Duration>,
    /// Ranks declared dead mid-training: every exchange skips them and
    /// they serve nothing in `routing` (degraded mode).
    dead_ranks: BTreeSet<usize>,
    /// The routing table, this layer's only routing state: the live ranks
    /// serving each global expert. An expert with no server is masked out
    /// of the gate. Every live rank must hold the same table.
    routing: Placement,
    /// True while a controller-installed placement is active — what
    /// [`placement`](Self::placement) reports. Failover and dead-rank
    /// edits alone leave it false.
    placed: bool,
    /// Bodies this rank serves for experts whose static home is elsewhere,
    /// keyed by global expert id: placement guests (home live) and failover
    /// wards (home dead). Kept out of [`visit_params`](Self::visit_params)
    /// so optimizer slot order never shifts when the table changes.
    guest_experts: BTreeMap<usize, Box<dyn Expert>>,
    /// Per-global-expert routed token counts since the last
    /// [`take_load_stats`](Self::take_load_stats) drain (placement policy
    /// input).
    routing_loads: Vec<u64>,
    /// Capacity-shed assignments since the last drain.
    shed_tokens: u64,
    /// Admitted assignments since the last drain.
    routed_tokens: u64,
    /// Per-forward expert-stage service times (µs) since the last drain:
    /// the summed wall clock of this rank's expert forwards.
    service_us: Vec<u64>,
}

struct Cache {
    decision: GateDecision,
    /// The routing the forward ran under; the backward mirrors it.
    route: Route,
    /// Per served expert (ascending global id), per src rank: rows received.
    recv_counts: Vec<Vec<usize>>,
    /// Per global expert: the returned output rows in this rank's slot
    /// order.
    returned_outputs: Vec<Tensor>,
    /// Per served expert: the serial-order (src-major) input rows. The
    /// backward recomputes each (expert, source) group's activations from
    /// these before differentiating it, which is what makes the
    /// weight-gradient accumulation order — and therefore the grads —
    /// independent of the schedule.
    expert_inputs: Vec<Tensor>,
    n: usize,
    tag_base: u64,
}

/// One step's routing, read off the table.
struct Route {
    me: usize,
    live: Vec<bool>,
    /// Per global expert: its servers; slot `s` goes to `servers[e][s % g]`.
    servers: Vec<Vec<usize>>,
    /// Per rank: the global experts it serves, ascending.
    served: Vec<Vec<usize>>,
    /// Every rank is live and serves something, so every pair talks on
    /// every leg: the exchanges are plain all-to-alls.
    dense: bool,
}

impl Route {
    /// Whether the message `from → to` travels on a leg toward the servers
    /// (`to_servers`: dispatch, every live rank sends, serving ranks
    /// receive) or back from them (combine, serving ranks send, every live
    /// rank receives).
    fn talks(&self, from: usize, to: usize, to_servers: bool) -> bool {
        let server = if to_servers { to } else { from };
        self.live[from] && self.live[to] && !self.served[server].is_empty()
    }

    /// Position of expert `e` in `rank`'s served list.
    fn index_of(&self, rank: usize, e: usize) -> usize {
        self.served[rank]
            .binary_search(&e)
            .expect("a server serves its expert")
    }

    /// The rows one chunk carries toward server `dst`: for every expert
    /// `dst` serves, that server's share of chunk `c` of `r` (see
    /// [`share`]), each row filled by `fill(row, slot)`.
    fn gather(
        &self,
        decision: &GateDecision,
        dst: usize,
        (c, r): (usize, usize),
        m: usize,
        fill: impl Fn(&mut [f32], (usize, f32)),
    ) -> Vec<Tensor> {
        self.served[dst]
            .iter()
            .map(|&e| {
                let srv = &self.servers[e];
                let i = srv.iter().position(|&s| s == dst).expect("dst serves e");
                let slots = &decision.expert_slots[e];
                let picked = share(slots.len(), i, srv.len(), c, r);
                let mut rows = Tensor::zeros(&[picked.len(), m]);
                for (row, s) in picked.enumerate() {
                    fill(rows.row_mut(row), slots[s]);
                }
                rows
            })
            .collect()
    }

    /// The inverse of [`gather`](Self::gather) for what the servers sent
    /// back for chunk `c` of `r` (`parts[server][k]`): writes each share
    /// row into `rows[e]` at its slot. A share of the wrong length is a
    /// corrupt peer chunk.
    fn unshare(
        &self,
        decision: &GateDecision,
        parts: &[Vec<Tensor>],
        (c, r): (usize, usize),
        rows: &mut [Tensor],
        tag: u64,
    ) -> Result<(), FabricError> {
        for (e, srv) in self.servers.iter().enumerate() {
            let len = decision.expert_slots[e].len();
            for (i, &peer) in srv.iter().enumerate() {
                let part = &parts[peer][self.index_of(peer, e)];
                let picked = share(len, i, srv.len(), c, r);
                if part.dims()[0] != picked.len() {
                    return Err(FabricError::Corrupt { peer, tag });
                }
                for (row, s) in picked.enumerate() {
                    rows[e].row_mut(s).copy_from_slice(part.row(row));
                }
            }
        }
        Ok(())
    }
}

/// Slot indices of an expert's `len`-slot list that chunk `c` of `r`
/// sends to the server at position `i` of its `g` servers: the chunk
/// holds the contiguous segment `[c·len/r, (c+1)·len/r)`, and slot `s`
/// goes to position `s % g`.
fn share(
    len: usize,
    i: usize,
    g: usize,
    c: usize,
    r: usize,
) -> std::iter::StepBy<std::ops::Range<usize>> {
    let (lo, hi) = (c * len / r, (c + 1) * len / r);
    let first = lo + (i + g - lo % g) % g;
    (first.min(hi)..hi).step_by(g)
}

/// Stacks row blocks of width `m`, in order.
fn concat_rows<'a>(parts: impl Iterator<Item = &'a Tensor>, m: usize) -> Tensor {
    let mut data = Vec::new();
    let mut rows = 0;
    for t in parts {
        data.extend_from_slice(t.data());
        rows += t.dims()[0];
    }
    Tensor::from_vec(data, &[rows, m]).expect("row blocks share a width")
}

/// Rows `start..start + count` of `t`.
fn slice_rows(t: &Tensor, start: usize, count: usize) -> Tensor {
    let m = t.dims()[1];
    Tensor::from_vec(
        t.data()[start * m..(start + count) * m].to_vec(),
        &[count, m],
    )
    .expect("row range in bounds")
}

/// The expert bodies a rank serves: its local experts, plus guest bodies
/// for experts whose static home is elsewhere.
struct Bodies<'a> {
    me: usize,
    epr: usize,
    local: &'a mut [Box<dyn Expert>],
    guests: &'a mut BTreeMap<usize, Box<dyn Expert>>,
}

impl Bodies<'_> {
    fn get(&mut self, e: usize) -> &mut dyn Expert {
        if e / self.epr == self.me {
            self.local[e % self.epr].as_mut()
        } else {
            self.guests
                .get_mut(&e)
                .expect("guest body installed for served expert")
                .as_mut()
        }
    }
}

/// What every pipeline comm task shares: the fabric handle, the first
/// error, and the executor's cancel flag.
type Shared<'a, 'h> = (
    &'a Mutex<&'h mut RankHandle>,
    &'a Mutex<Option<FabricError>>,
    &'a AtomicBool,
);

/// Records a pipeline task's failure: the first error wins, and the cancel
/// flag tells the executor to skip queued lanes outright — one dead peer
/// must cost one receive deadline, not one per lane.
fn fail(error: &Mutex<Option<FabricError>>, cancel: &AtomicBool, e: FabricError) {
    error.lock().get_or_insert(e);
    cancel.store(true, Ordering::Release);
}

/// A failed lane records its typed error and the dependent tasks skip;
/// prefer that over the executor's panic report when both exist (the
/// panic is usually downstream fallout of the fabric failure).
fn pipeline_outcome<E: std::fmt::Display>(
    error: Mutex<Option<FabricError>>,
    exec: Result<(), E>,
) -> Result<(), FabricError> {
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    exec.map_err(|e| FabricError::Worker {
        detail: e.to_string(),
    })
}

/// A span name, suffixed with the chunk for the pipelined schedule.
fn stage(stem: &str, chunk: Option<usize>) -> String {
    match chunk {
        Some(c) => format!("{stem}[c{c}]"),
        None => stem.to_string(),
    }
}

/// A replicated-parameter gradient allreduce to fold into the MoE
/// backward's task graph
/// ([`backward_with_allreduce`](DistributedMoeLayer::backward_with_allreduce)).
///
/// The referenced gradients must already be final when the backward is
/// submitted (e.g. the LM head's grads, produced before the MoE backward
/// starts); the reduction then rides the comm worker concurrently with
/// the backward's compute stages instead of serializing after the step.
/// The result is bit-identical to calling
/// [`allreduce_live`] separately: the same elementwise sums in the same
/// gather order, only overlapped in wall clock.
pub struct GradAllreduce<'a> {
    /// The flattened gradients to sum elementwise across live ranks.
    pub values: &'a mut [f32],
    /// Base tag of the reduction (uses `tag` and `tag + 1`).
    pub tag: u64,
    /// Live mask over the world, as [`allreduce_live`] expects.
    pub live: &'a [bool],
}

impl DistributedMoeLayer {
    /// Creates the layer from its parts, routing by the static layout.
    ///
    /// The gate must route over `world_size × experts_per_rank` experts;
    /// `local_experts.len()` must equal `experts_per_rank`.
    ///
    /// # Panics
    ///
    /// Panics on count mismatches.
    pub fn new(
        gate: TopKGate,
        local_experts: Vec<Box<dyn Expert>>,
        compressor: Box<dyn Compressor>,
        a2a: Box<dyn AllToAll>,
    ) -> Self {
        let experts_per_rank = local_experts.len();
        assert!(experts_per_rank > 0, "at least one local expert required");
        let routing = Placement::static_layout(gate.num_experts(), experts_per_rank);
        DistributedMoeLayer {
            gate,
            local_experts,
            experts_per_rank,
            compressor,
            a2a,
            cache: None,
            partition_degree: 1,
            recv_timeout: None,
            dead_ranks: BTreeSet::new(),
            routing,
            placed: false,
            guest_experts: BTreeMap::new(),
            routing_loads: Vec::new(),
            shed_tokens: 0,
            routed_tokens: 0,
            service_us: Vec::new(),
        }
    }

    /// Sets the pipelining degree `r` (the paper's token-chunk count).
    ///
    /// `1` keeps the serial forward; larger degrees run the overlapped
    /// pipeline. Degrees above the batch size simply yield empty chunks.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_PARTITION_DEGREE`]
    /// (past which per-chunk tags would overflow their lane and collide
    /// with another lane's traffic).
    pub fn with_partition_degree(mut self, degree: usize) -> Self {
        assert!(degree >= 1, "partition degree must be at least 1");
        assert!(
            degree <= MAX_PARTITION_DEGREE,
            "partition degree {degree} exceeds MAX_PARTITION_DEGREE ({MAX_PARTITION_DEGREE})"
        );
        self.partition_degree = degree;
        self
    }

    /// Sets a liveness deadline for the masked exchanges' receives: a
    /// live-but-silent peer surfaces as [`FabricError::Timeout`] instead
    /// of hanging the step.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    /// The configured pipelining degree.
    pub fn partition_degree(&self) -> usize {
        self.partition_degree
    }

    /// Number of experts on this rank.
    pub fn experts_per_rank(&self) -> usize {
        self.experts_per_rank
    }

    /// The gate replica.
    pub fn gate(&self) -> &TopKGate {
        &self.gate
    }

    /// Retunes the gate's capacity factor in place — the placement
    /// controller's overload-shedding knob. Routing weights are untouched,
    /// so the change affects only how many slots each expert admits.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        self.gate.set_capacity_factor(factor);
    }

    /// The global experts whose static home is `rank`.
    fn experts_of(&self, rank: usize) -> std::ops::Range<usize> {
        rank * self.experts_per_rank..(rank + 1) * self.experts_per_rank
    }

    /// Points expert `e` at `servers`, minus any dead rank.
    fn set_servers(&mut self, e: usize, servers: &[usize]) {
        let live = servers
            .iter()
            .copied()
            .filter(|r| !self.dead_ranks.contains(r))
            .collect();
        self.routing.set_servers(e, live);
    }

    /// Declares `rank` dead: it stops serving (replicas shrink; experts it
    /// served alone — its own, or wards it hosted — leave the gate, which
    /// renormalizes over the rest) and every exchange skips it. The next
    /// forward runs in degraded mode, with a quality warning recorded on
    /// the `degraded` span and counter, instead of hanging on the dead
    /// peer. With at least two live ranks the overlapped (r > 1) pipeline
    /// keeps running over the survivors; only a world shrunk to one live
    /// rank falls back to the serial path.
    pub fn mark_rank_dead(&mut self, rank: usize) {
        self.dead_ranks.insert(rank);
        for e in 0..self.routing.n_experts() {
            let servers = self.routing.servers(e).to_vec();
            self.set_servers(e, &servers);
        }
    }

    /// The inverse of [`mark_rank_dead`](Self::mark_rank_dead): `rank` has
    /// rejoined (its state was restored by the rejoin protocol), so it
    /// serves its own experts again — replacing any failover host, whose
    /// ward bodies are dropped — exchanges include it again, and once the
    /// dead set is empty the forward leaves degraded mode entirely. A
    /// no-op for a rank that is not dead.
    pub fn mark_rank_alive(&mut self, rank: usize) {
        if !self.dead_ranks.remove(&rank) {
            return;
        }
        for e in self.experts_of(rank) {
            self.guest_experts.remove(&e);
            self.routing.set_servers(e, vec![rank]);
        }
    }

    /// Installs a failover route: live rank `host` becomes the server of
    /// dead rank `dead`'s experts, so they stay in the gate instead of
    /// being masked out. Every live rank must install the same route;
    /// only the host itself also calls
    /// [`install_hosted_experts`](Self::install_hosted_experts).
    ///
    /// # Panics
    ///
    /// Panics if `dead == host`.
    pub fn set_failover_route(&mut self, dead: usize, host: usize) {
        assert_ne!(dead, host, "a rank cannot host its own failover");
        for e in self.experts_of(dead) {
            self.set_servers(e, &[host]);
        }
    }

    /// Hands this rank the expert bodies it will serve for dead rank
    /// `dead` (typically rebuilt from the buddy replica), held as guest
    /// bodies of `dead`'s experts.
    ///
    /// # Panics
    ///
    /// Panics if the expert count differs from `experts_per_rank`.
    pub fn install_hosted_experts(&mut self, dead: usize, experts: Vec<Box<dyn Expert>>) {
        assert_eq!(
            experts.len(),
            self.experts_per_rank,
            "hosted expert count must match experts_per_rank"
        );
        for (e, body) in self.experts_of(dead).zip(experts) {
            self.guest_experts.insert(e, body);
        }
    }

    /// The live rank currently serving dead rank `dead`'s experts, if any.
    pub fn failover_host_of(&self, dead: usize) -> Option<usize> {
        if !self.dead_ranks.contains(&dead) {
            return None;
        }
        self.routing
            .servers(dead * self.experts_per_rank)
            .first()
            .copied()
    }

    /// All `(dead, host)` failover routes, ascending by dead rank.
    pub fn failover_routes(&self) -> Vec<(usize, usize)> {
        self.dead_ranks
            .iter()
            .filter_map(|&d| self.failover_host_of(d).map(|host| (d, host)))
            .collect()
    }

    /// Drops every failover route and hosted expert: dead ranks' experts
    /// are masked again.
    pub fn clear_failover_routes(&mut self) {
        let wards: Vec<usize> = self
            .dead_ranks
            .iter()
            .flat_map(|&d| self.experts_of(d))
            .collect();
        for e in wards {
            self.guest_experts.remove(&e);
            self.routing.set_servers(e, Vec::new());
        }
    }

    /// True when any failover route is active.
    pub fn has_failover(&self) -> bool {
        !self.failover_routes().is_empty()
    }

    /// The dead ranks whose experts this rank is hosting, ascending.
    pub fn hosted_dead_ranks(&self) -> Vec<usize> {
        let mut wards: Vec<usize> = self
            .guest_experts
            .keys()
            .map(|e| e / self.experts_per_rank)
            .filter(|home| self.dead_ranks.contains(home))
            .collect();
        wards.dedup();
        wards
    }

    /// Visits the parameters of the experts hosted for dead rank `dead`
    /// (no-op when this rank does not host it). Kept separate from
    /// [`visit_params`](Self::visit_params) so optimizer state indexed by
    /// visit order is not shifted by transient hosted experts.
    pub fn visit_hosted_params(&mut self, dead: usize, f: &mut dyn FnMut(&mut Param)) {
        for e in self.experts_of(dead) {
            if let Some(body) = self.guest_experts.get_mut(&e) {
                body.visit_params(f);
            }
        }
    }

    /// The controller-installed placement, if one is active: the routing
    /// table as [`set_placement`](Self::set_placement) left it, with any
    /// later dead-rank edits.
    pub fn placement(&self) -> Option<&Placement> {
        self.placed.then_some(&self.routing)
    }

    /// Installs a placement for rank `me`: each expert's servers become
    /// the placement's, minus dead ranks. An expert the placement lists
    /// only on dead ranks keeps its current route (a failover host, or
    /// masked). Guest bodies for every expert the table then assigns to
    /// `me` away from its static home must already be installed
    /// ([`install_guest_expert`](Self::install_guest_expert) or
    /// [`install_hosted_experts`](Self::install_hosted_experts)); guests
    /// the new table no longer assigns here are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the placement's shape disagrees with this layer, or if a
    /// required guest body is missing.
    pub fn set_placement(&mut self, me: usize, placement: Placement) {
        assert_eq!(
            placement.experts_per_rank(),
            self.experts_per_rank,
            "placement experts_per_rank mismatch"
        );
        assert_eq!(
            placement.n_experts(),
            self.routing.n_experts(),
            "placement must cover the routing table"
        );
        let current = std::mem::replace(&mut self.routing, placement);
        for e in 0..current.n_experts() {
            let servers = self.routing.servers(e).to_vec();
            self.set_servers(e, &servers);
            if self.routing.servers(e).is_empty() {
                self.routing.set_servers(e, current.servers(e).to_vec());
            }
        }
        let guests = self.routing.guests_of(me);
        for &e in &guests {
            assert!(
                self.guest_experts.contains_key(&e),
                "guest body for expert {e} must be installed before activation"
            );
        }
        self.guest_experts.retain(|e, _| guests.contains(e));
        self.placed = true;
    }

    /// Returns every expert with a live static home to that home alone and
    /// drops their guest bodies; dead ranks' experts keep their route
    /// (failover host or masked). The trainer calls this on every epoch
    /// transition (burial, failover routing, rejoin admission).
    pub fn reset_placement(&mut self) {
        self.placed = false;
        for e in 0..self.routing.n_experts() {
            let home = e / self.experts_per_rank;
            if !self.dead_ranks.contains(&home) {
                self.guest_experts.remove(&e);
                self.routing.set_servers(e, vec![home]);
            }
        }
    }

    /// Hands this rank a guest body for global expert `e` (state streamed
    /// from the expert's static home). Inert until a placement assigning
    /// `e` here is activated.
    ///
    /// # Panics
    ///
    /// Panics if `e`'s static home would be this-rank-local under the
    /// current `experts_per_rank` — the local body already serves it.
    pub fn install_guest_expert(&mut self, me: usize, e: usize, body: Box<dyn Expert>) {
        assert_ne!(
            e / self.experts_per_rank,
            me,
            "expert {e} is home on rank {me}; a guest body would shadow it"
        );
        self.guest_experts.insert(e, body);
    }

    /// Global expert ids with placement guest bodies installed, ascending
    /// (failover wards — guests of a dead home — are not included).
    pub fn guest_expert_ids(&self) -> Vec<usize> {
        self.guest_experts
            .keys()
            .copied()
            .filter(|e| !self.dead_ranks.contains(&(e / self.experts_per_rank)))
            .collect()
    }

    /// Drops a staged guest body that never made it into a committed
    /// placement — the abort path of a placement quantum. A no-op when no
    /// guest body for `e` is installed.
    pub fn discard_guest_expert(&mut self, e: usize) {
        self.guest_experts.remove(&e);
    }

    /// Visits the parameters of whichever body this rank uses to serve
    /// global expert `e`: the local body when `me` is `e`'s static home,
    /// the guest body when one is installed, else a no-op. The placement
    /// controller's per-expert gradient sync walks parameters through
    /// this, so home and guest flatten in the same order.
    pub fn visit_serving_params(&mut self, me: usize, e: usize, f: &mut dyn FnMut(&mut Param)) {
        if e / self.experts_per_rank == me {
            self.local_experts[e % self.experts_per_rank].visit_params(f);
        } else if let Some(body) = self.guest_experts.get_mut(&e) {
            body.visit_params(f);
        }
    }

    /// Drains the routing-load / shed / service-time accumulators gathered
    /// since the previous drain: `(per-expert routed token counts, shed
    /// assignments, admitted assignments, p99 expert-stage service µs)`.
    /// Feeds the placement controller's [`LoadReport`](crate::LoadReport).
    pub fn take_load_stats(&mut self) -> (Vec<u64>, u64, u64, u64) {
        let loads = std::mem::take(&mut self.routing_loads);
        let shed = std::mem::take(&mut self.shed_tokens);
        let routed = std::mem::take(&mut self.routed_tokens);
        let mut service = std::mem::take(&mut self.service_us);
        let p99 = if service.is_empty() {
            0
        } else {
            service.sort_unstable();
            service[(service.len() - 1) * 99 / 100]
        };
        (loads, shed, routed, p99)
    }

    /// Folds a gate decision into the load accumulators and the obs
    /// routing board (the chrome "routing" counter track).
    fn note_decision(&mut self, rank: usize, world: usize, decision: &GateDecision) {
        let n_experts = world * self.experts_per_rank;
        if self.routing_loads.len() < n_experts {
            self.routing_loads.resize(n_experts, 0);
        }
        let mut routed = 0u64;
        for (e, slots) in decision.expert_slots.iter().enumerate() {
            self.routing_loads[e] += slots.len() as u64;
            routed += slots.len() as u64;
        }
        self.routed_tokens += routed;
        self.shed_tokens += decision.dropped as u64;
        if obs::enabled() {
            let board = obs::routing_for_rank(rank);
            for (e, slots) in decision.expert_slots.iter().enumerate() {
                board.add_expert_load(e, slots.len() as u64);
            }
            board.add_shed(decision.dropped as u64);
            board.add_routed(routed);
        }
    }

    /// The ranks currently declared dead, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead_ranks.iter().copied().collect()
    }

    /// True when any peer has been declared dead.
    pub fn is_degraded(&self) -> bool {
        !self.dead_ranks.is_empty()
    }

    /// Degraded mode's quality warning: a `degraded` span plus a counter
    /// tick.
    fn degraded_span(&self, rank: usize) -> Option<obs::SpanGuard> {
        self.is_degraded().then(|| {
            obs::counters_for_rank(rank).add_degraded_step();
            obs::span(
                "degraded",
                format!("degraded step ({} dead)", self.dead_ranks.len()),
            )
        })
    }

    /// This step's routing, read off the table.
    fn route(&self, me: usize, p: usize) -> Route {
        assert_eq!(
            self.routing.n_experts(),
            p * self.experts_per_rank,
            "placement must cover the routing table"
        );
        let servers: Vec<Vec<usize>> = (0..self.routing.n_experts())
            .map(|e| self.routing.servers(e).to_vec())
            .collect();
        let mut served = vec![Vec::new(); p];
        for (e, srv) in servers.iter().enumerate() {
            for &r in srv {
                served[r].push(e);
            }
        }
        let live: Vec<bool> = (0..p).map(|r| !self.dead_ranks.contains(&r)).collect();
        let dense = live.iter().all(|&l| l) && served.iter().all(|s| !s.is_empty());
        Route {
            me,
            live,
            servers,
            served,
            dense,
        }
    }

    /// Whether this world runs the serial schedule: degree 1, or no
    /// communication left to overlap.
    fn serial(&self, p: usize) -> bool {
        self.partition_degree <= 1 || p - self.dead_ranks.len() < 2
    }

    /// The one exchange. `chunks[j]` travels to each `j` this rank talks
    /// to on the leg ([`Route::talks`]): a rank serving no expert is
    /// skipped on the server-facing side, which keeps a demoted gray
    /// rank's slow links off the critical path, and dead ranks are skipped
    /// entirely. A peer that sends nothing reads as `None`. When every
    /// pair talks this is a plain all-to-all: through `a2a` when given
    /// (the serial schedule's configured algorithm), else the direct
    /// tagged exchange the pipelined chunks use.
    fn exchange(
        h: &mut RankHandle,
        a2a: Option<&dyn AllToAll>,
        chunks: Vec<Bytes>,
        tag: u64,
        to_servers: bool,
        route: &Route,
        timeout: Option<Duration>,
    ) -> Result<Vec<Option<Bytes>>, FabricError> {
        if route.dense {
            let got = match (a2a, timeout) {
                (Some(a2a), _) => a2a.all_to_all(h, chunks, tag)?,
                (None, Some(t)) => reference_all_to_all_timeout(h, chunks, tag, t)?,
                (None, None) => reference_all_to_all(h, chunks, tag)?,
            };
            return Ok(got.into_iter().map(Some).collect());
        }
        let me = h.rank();
        for (j, chunk) in chunks.into_iter().enumerate() {
            if route.talks(me, j, to_servers) {
                h.send(j, tag, chunk)?;
            }
        }
        (0..h.world_size())
            .map(|j| {
                if !route.talks(j, me, to_servers) {
                    return Ok(None);
                }
                match timeout {
                    Some(t) => h.recv_timeout(j, tag, t),
                    None => h.recv(j, tag),
                }
                .map(Some)
            })
            .collect()
    }

    /// Serializes rows for one peer: a count header per expert followed by
    /// the compressed concatenation of all rows. Gradients use the same
    /// format with the fp32 identity codec.
    ///
    /// An associated function (not a method) so the overlapped pipeline can
    /// encode on the compute worker while the expert list is mutably
    /// borrowed elsewhere.
    fn encode_chunk(compressor: &dyn Compressor, per_expert_rows: &[Tensor]) -> Bytes {
        let mut header = BytesMut::with_capacity(4 * per_expert_rows.len());
        let mut flat: Vec<f32> = Vec::new();
        for rows in per_expert_rows {
            let count = rows.dims()[0] as u32;
            header.extend_from_slice(&count.to_le_bytes());
            flat.extend_from_slice(rows.data());
        }
        let payload = compressor.compress(&flat);
        header.extend_from_slice(&payload);
        header.freeze()
    }

    /// Decodes a chunk `peer` sent on `tag` into `experts` row blocks of
    /// width `m`. Hostile bytes never panic and never allocate beyond what
    /// the chunk itself could carry: a short header, a row count the
    /// payload cannot hold, or a payload the codec rejects is
    /// [`FabricError::Corrupt`].
    fn decode_chunk(
        compressor: &dyn Compressor,
        chunk: &[u8],
        experts: usize,
        m: usize,
        peer: usize,
        tag: u64,
    ) -> Result<Vec<Tensor>, FabricError> {
        let corrupt = || FabricError::Corrupt { peer, tag };
        let header = experts
            .checked_mul(4)
            .filter(|&len| len <= chunk.len())
            .ok_or_else(corrupt)?;
        let (head, payload) = chunk.split_at(header);
        let counts: Vec<usize> = head
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .collect();
        let values = counts
            .iter()
            .try_fold(0usize, |acc, &c| acc.checked_add(c))
            .and_then(|rows| rows.checked_mul(m))
            .filter(|&v| v <= payload.len().saturating_mul(MAX_VALUES_PER_BYTE))
            .ok_or_else(corrupt)?;
        let flat = compressor
            .decompress(payload, values)
            .ok()
            .filter(|f| f.len() == values)
            .ok_or_else(corrupt)?;
        let mut off = 0usize;
        Ok(counts
            .iter()
            .map(|&c| {
                let rows = Tensor::from_vec(flat[off * m..(off + c) * m].to_vec(), &[c, m])
                    .expect("sized by the header");
                off += c;
                rows
            })
            .collect())
    }

    /// Decodes one exchange's chunks into `[peer][k]` row blocks:
    /// `experts(peer)` from each peer, where a peer that sent nothing
    /// reads as that many empty blocks.
    fn decode_all(
        compressor: &dyn Compressor,
        received: &[Option<Bytes>],
        experts: impl Fn(usize) -> usize,
        m: usize,
        tag: u64,
    ) -> Result<Vec<Vec<Tensor>>, FabricError> {
        received
            .iter()
            .enumerate()
            .map(|(peer, chunk)| match chunk {
                Some(c) => Self::decode_chunk(compressor, c, experts(peer), m, peer, tag),
                None => Ok(vec![Tensor::zeros(&[0, m]); experts(peer)]),
            })
            .collect()
    }

    /// `D1·E·C2` for one chunk: decodes the rows every source dispatched
    /// here, runs each served expert once on its src-major concatenation,
    /// and encodes each source its slice of the outputs. Returns the
    /// per-source output chunks, the decoded inputs `[src][k]`, and the
    /// expert stage's wall time.
    #[allow(clippy::type_complexity)]
    fn serve(
        compressor: &dyn Compressor,
        route: &Route,
        bodies: &mut Bodies<'_>,
        received: &[Option<Bytes>],
        (m, tag): (usize, u64),
        chunk: Option<usize>,
    ) -> Result<(Vec<Bytes>, Vec<Vec<Tensor>>, Duration), FabricError> {
        let served = &route.served[route.me];
        let recv_bytes: usize = received.iter().flatten().map(Bytes::len).sum();
        let d1 = obs::span_sized("decode", stage("D1", chunk), recv_bytes as f64);
        let decoded = Self::decode_all(compressor, received, |_| served.len(), m, tag)?;
        let inputs: Vec<Tensor> = (0..served.len())
            .map(|k| concat_rows(decoded.iter().map(|d| &d[k]), m))
            .collect();
        drop(d1);
        let rows: usize = inputs.iter().map(|t| t.dims()[0]).sum();
        let start = Instant::now();
        let outputs: Vec<Tensor> = {
            let _s = obs::span_sized("expert", stage("E", chunk), rows as f64);
            served
                .iter()
                .zip(&inputs)
                .map(|(&e, input)| bodies.get(e).forward(input))
                .collect()
        };
        let service = start.elapsed();
        let _c2 = obs::span_sized("encode", stage("C2", chunk), (rows * m * 4) as f64);
        let mut before = vec![0usize; served.len()];
        let back = decoded
            .iter()
            .map(|per_k| {
                let parts: Vec<Tensor> = per_k
                    .iter()
                    .enumerate()
                    .map(|(k, t)| {
                        let count = t.dims()[0];
                        before[k] += count;
                        slice_rows(&outputs[k], before[k] - count, count)
                    })
                    .collect();
                Self::encode_chunk(compressor, &parts)
            })
            .collect();
        Ok((back, decoded, service))
    }

    /// Expert-parallel forward over the fabric.
    ///
    /// `tag_base` namespaces this invocation; step it by
    /// [`TAG_STRIDE`](schemoe_collectives::TAG_STRIDE) between layer
    /// invocations on the same fabric. Runs the serial schedule at degree
    /// 1 or with fewer than two live ranks (no communication left to
    /// overlap), else the overlapped pipeline; both route by the same
    /// table and produce bit-identical outputs.
    pub fn forward(
        &mut self,
        h: &mut RankHandle,
        x: &Tensor,
        tag_base: u64,
    ) -> Result<Tensor, FabricError> {
        let p = h.world_size();
        let me = h.rank();
        let (n, m) = (x.dims()[0], x.dims()[1]);
        let r = if self.serial(p) {
            1
        } else {
            self.partition_degree
        };
        let _degraded_span = self.degraded_span(me);
        let route = self.route(me, p);
        let decision = {
            let _g = obs::span("gate", "gate");
            let mask: Vec<bool> = route.servers.iter().map(Vec::is_empty).collect();
            self.gate
                .forward_masked(x, mask.contains(&true).then_some(&mask[..]))
        };
        self.note_decision(me, p, &decision);
        let (chunk_inputs, chunk_returned, service) = if r == 1 {
            self.forward_serial(h, x, &route, &decision, tag_base)?
        } else {
            self.forward_overlapped(h, x, &route, &decision, tag_base)?
        };
        self.service_us.push(service.as_micros() as u64);

        // Reassemble serial-order state. Received row counts sum over
        // chunks; the serial expert input is src-major with each src's
        // rows in slot order, i.e. its chunk segments in chunk order.
        let served = route.served[me].len();
        let mut recv_counts = vec![vec![0usize; p]; served];
        for inputs in &chunk_inputs {
            for (src, per_k) in inputs.iter().enumerate() {
                for (k, t) in per_k.iter().enumerate() {
                    recv_counts[k][src] += t.dims()[0];
                }
            }
        }
        let expert_inputs: Vec<Tensor> = (0..served)
            .map(|k| {
                let parts = (0..p).flat_map(|src| chunk_inputs.iter().map(move |ci| &ci[src][k]));
                concat_rows(parts, m)
            })
            .collect();

        // Combine: reassembling each expert's returned shares restores its
        // full slot order, so the accumulation below — ascending expert,
        // each token meeting an expert at most once — is the same
        // computation whatever the schedule or server fan-out.
        let mut returned_outputs: Vec<Tensor> = decision
            .expert_slots
            .iter()
            .map(|slots| Tensor::zeros(&[slots.len(), m]))
            .collect();
        for (c, parts) in chunk_returned.iter().enumerate() {
            let tag = chunk_tag(tag_base, lanes::LANE_COMBINE, c);
            route.unshare(&decision, parts, (c, r), &mut returned_outputs, tag)?;
        }
        let mut y = Tensor::zeros(&[n, m]);
        for (slots, rows) in decision.expert_slots.iter().zip(&returned_outputs) {
            for (s, &(t, w)) in slots.iter().enumerate() {
                let orow = rows.row(s);
                let yrow = y.row_mut(t);
                for (yj, &oj) in yrow.iter_mut().zip(orow.iter()) {
                    *yj += w * oj;
                }
            }
        }
        self.cache = Some(Cache {
            decision,
            route,
            recv_counts,
            returned_outputs,
            expert_inputs,
            n,
            tag_base,
        });
        Ok(y)
    }

    /// The serial schedule: one dispatch exchange, all served experts, one
    /// combine exchange, no overlap. Returns the decoded inputs
    /// `[src][k]` and returned outputs `[server][k]` as a single chunk,
    /// plus the expert stage's wall time.
    #[allow(clippy::type_complexity)]
    fn forward_serial(
        &mut self,
        h: &mut RankHandle,
        x: &Tensor,
        route: &Route,
        decision: &GateDecision,
        tag_base: u64,
    ) -> Result<(Vec<Vec<Vec<Tensor>>>, Vec<Vec<Vec<Tensor>>>, Duration), FabricError> {
        let p = h.world_size();
        let (n, m) = (x.dims()[0], x.dims()[1]);
        let compressor = self.compressor.as_ref();
        let a2a = Some(self.a2a.as_ref());
        let chunks: Vec<Bytes> = {
            let _s = obs::span_sized("encode", "C1", (n * m * 4) as f64);
            (0..p)
                .map(|dst| {
                    let rows = route.gather(decision, dst, (0, 1), m, |row, (t, _)| {
                        row.copy_from_slice(x.row(t))
                    });
                    Self::encode_chunk(compressor, &rows)
                })
                .collect()
        };
        let tag = chunk_tag(tag_base, lanes::LANE_DISPATCH, 0);
        let sent_bytes: usize = chunks.iter().map(Bytes::len).sum();
        let received = {
            let _s = obs::span_sized("a2a", "A1", sent_bytes as f64);
            Self::exchange(h, a2a, chunks, tag, true, route, self.recv_timeout)?
        };
        let mut bodies = Bodies {
            me: route.me,
            epr: self.experts_per_rank,
            local: &mut self.local_experts,
            guests: &mut self.guest_experts,
        };
        let (back, inputs, service) =
            Self::serve(compressor, route, &mut bodies, &received, (m, tag), None)?;
        let tag = chunk_tag(tag_base, lanes::LANE_COMBINE, 0);
        let back_bytes: usize = back.iter().map(Bytes::len).sum();
        let returned = {
            let _s = obs::span_sized("a2a", "A2", back_bytes as f64);
            Self::exchange(h, a2a, back, tag, false, route, self.recv_timeout)?
        };
        let returned_bytes: usize = returned.iter().flatten().map(Bytes::len).sum();
        let _d2 = obs::span_sized("decode", "D2", returned_bytes as f64);
        let outputs = Self::decode_all(compressor, &returned, |s| route.served[s].len(), m, tag)?;
        Ok((vec![inputs], vec![outputs], service))
    }

    /// ScheMoE's pipelined forward: `r = partition_degree` chunks run the
    /// per-chunk chain `C1 → A2A1 → (D1·E·C2) → A2A2 → D2` on the
    /// two-worker overlap executor, in the OptSche submission order
    /// `(C1¹..C1ʳ)(D1·E·C2)¹..(D1·E·C2)ʳ(D2¹..D2ʳ)` on the compute worker
    /// and `A2A1¹..A2A1ʳ A2A2¹..A2A2ʳ` on the comm worker.
    ///
    /// Bit-identity with the serial path comes from three invariants:
    /// the gate runs once on the full batch (identical routing/capacity);
    /// each expert slot list is split into `r` *contiguous* segments, and
    /// expert bodies are row-wise, so per-row outputs do not depend on
    /// batch composition; and the combine reassembles the returned
    /// segments into full slot order before accumulating in exactly the
    /// serial loop's order.
    ///
    /// The per-chunk exchanges are direct tagged sends at
    /// `chunk_tag(tag_base, lane, c)` — with `r` exchanges in flight per
    /// lane, structured A2A algorithms (which assume exclusive tag windows
    /// and whole-layer payloads) do not apply. Each exchange follows the
    /// routing table like the serial one, so dead peers, failover hosts,
    /// replica fan-out and non-serving ranks all compose with overlap.
    #[allow(clippy::type_complexity)]
    fn forward_overlapped(
        &mut self,
        h: &mut RankHandle,
        x: &Tensor,
        route: &Route,
        decision: &GateDecision,
        tag_base: u64,
    ) -> Result<(Vec<Vec<Vec<Tensor>>>, Vec<Vec<Vec<Tensor>>>, Duration), FabricError> {
        let r = self.partition_degree;
        let p = h.world_size();
        let (n, m) = (x.dims()[0], x.dims()[1]);
        let timeout = self.recv_timeout;
        // Field split: pipeline closures share the compressor immutably
        // while the expert bodies are handed to the compute stages mutably.
        let compressor: &dyn Compressor = self.compressor.as_ref();
        let bodies = Mutex::new(Bodies {
            me: route.me,
            epr: self.experts_per_rank,
            local: &mut self.local_experts,
            guests: &mut self.guest_experts,
        });
        let handle = Mutex::new(h);

        // Single-producer single-consumer mailboxes between stages, one
        // per chunk; the executor's dependency edges order the accesses.
        let mailbox = |count: usize| -> Vec<Mutex<Option<Vec<Bytes>>>> {
            (0..count).map(|_| Mutex::new(None)).collect()
        };
        let exchanged = |count: usize| -> Vec<Mutex<Option<Vec<Option<Bytes>>>>> {
            (0..count).map(|_| Mutex::new(None)).collect()
        };
        let to_dispatch = mailbox(r);
        let dispatched = exchanged(r);
        let to_combine = mailbox(r);
        let combined = exchanged(r);
        // Per chunk: decoded dispatch payloads `[src][k]` (kept for the
        // backward's serial-order input reassembly) and decoded combine
        // payloads `[server][k]`.
        let chunk_inputs: Vec<Mutex<Option<Vec<Vec<Tensor>>>>> =
            (0..r).map(|_| Mutex::new(None)).collect();
        let chunk_returned: Vec<Mutex<Option<Vec<Vec<Tensor>>>>> =
            (0..r).map(|_| Mutex::new(None)).collect();
        let service = Mutex::new(Duration::ZERO);
        let error: Mutex<Option<FabricError>> = Mutex::new(None);
        let cancel = AtomicBool::new(false);

        // Task indices: C1ᶜ = c, A2A1ᶜ = r+c, (D1·E·C2)ᶜ = 2r+c,
        // A2A2ᶜ = 3r+c, D2ᶜ = 4r+c.
        let mut tasks: Vec<ExecTask<'_>> = Vec::with_capacity(5 * r);
        for c in 0..r {
            let to_dispatch = &to_dispatch[c];
            let error = &error;
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: Box::new(move || {
                    if error.lock().is_some() {
                        return;
                    }
                    let _s = obs::span_sized(
                        "encode",
                        format!("C1[c{c}]"),
                        (n * m * 4) as f64 / r as f64,
                    );
                    let chunks = (0..p)
                        .map(|dst| {
                            let rows = route.gather(decision, dst, (c, r), m, |row, (t, _)| {
                                row.copy_from_slice(x.row(t))
                            });
                            Self::encode_chunk(compressor, &rows)
                        })
                        .collect();
                    *to_dispatch.lock() = Some(chunks);
                }),
            });
        }
        for (c, (outbox, inbox)) in to_dispatch.iter().zip(&dispatched).enumerate() {
            tasks.push(Self::exchange_task(
                (&handle, &error, &cancel),
                (outbox, inbox),
                (chunk_tag(tag_base, lanes::LANE_DISPATCH, c), true),
                (route, timeout),
                (format!("A1[c{c}]"), c),
            ));
        }
        for c in 0..r {
            let dispatched = &dispatched[c];
            let to_combine = &to_combine[c];
            let chunk_inputs = &chunk_inputs[c];
            let (bodies, service, error, cancel) = (&bodies, &service, &error, &cancel);
            let tag = chunk_tag(tag_base, lanes::LANE_DISPATCH, c);
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![r + c],
                span: Some(("pipe", format!("D1·E·C2[c{c}]"))),
                run: Box::new(move || {
                    let Some(received) = dispatched.lock().take() else {
                        return;
                    };
                    let mut bodies = bodies.lock();
                    match Self::serve(compressor, route, &mut bodies, &received, (m, tag), Some(c))
                    {
                        Ok((back, decoded, took)) => {
                            *service.lock() += took;
                            *to_combine.lock() = Some(back);
                            *chunk_inputs.lock() = Some(decoded);
                        }
                        Err(e) => fail(error, cancel, e),
                    }
                }),
            });
        }
        for (c, (outbox, inbox)) in to_combine.iter().zip(&combined).enumerate() {
            tasks.push(Self::exchange_task(
                (&handle, &error, &cancel),
                (outbox, inbox),
                (chunk_tag(tag_base, lanes::LANE_COMBINE, c), false),
                (route, timeout),
                (format!("A2[c{c}]"), 2 * r + c),
            ));
        }
        for c in 0..r {
            let combined = &combined[c];
            let chunk_returned = &chunk_returned[c];
            let (error, cancel) = (&error, &cancel);
            let tag = chunk_tag(tag_base, lanes::LANE_COMBINE, c);
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![3 * r + c],
                span: None,
                run: Box::new(move || {
                    let Some(returned) = combined.lock().take() else {
                        return;
                    };
                    let bytes: usize = returned.iter().flatten().map(Bytes::len).sum();
                    let _s = obs::span_sized("decode", format!("D2[c{c}]"), bytes as f64);
                    let experts = |s: usize| route.served[s].len();
                    match Self::decode_all(compressor, &returned, experts, m, tag) {
                        Ok(decoded) => *chunk_returned.lock() = Some(decoded),
                        Err(e) => fail(error, cancel, e),
                    }
                }),
            });
        }
        let exec_result = run_overlapped_cancellable(tasks, &cancel);
        pipeline_outcome(error, exec_result)?;
        let done =
            |mx: Mutex<Option<Vec<Vec<Tensor>>>>| mx.into_inner().expect("pipeline completed");
        Ok((
            chunk_inputs.into_iter().map(done).collect(),
            chunk_returned.into_iter().map(done).collect(),
            service.into_inner(),
        ))
    }

    /// One pipelined forward exchange as a comm-worker task: takes the
    /// encoded chunks from `outbox` once task `dep` produced them, runs
    /// [`exchange`](Self::exchange) on `tag`, and leaves the result in
    /// `inbox` (or records the failure).
    #[allow(clippy::type_complexity)]
    fn exchange_task<'a, 'h: 'a>(
        (handle, error, cancel): Shared<'a, 'h>,
        (outbox, inbox): (
            &'a Mutex<Option<Vec<Bytes>>>,
            &'a Mutex<Option<Vec<Option<Bytes>>>>,
        ),
        (tag, to_servers): (u64, bool),
        (route, timeout): (&'a Route, Option<Duration>),
        (name, dep): (String, usize),
    ) -> ExecTask<'a> {
        ExecTask {
            worker: Worker::Comm,
            deps: vec![dep],
            span: None,
            run: Box::new(move || {
                let Some(chunks) = outbox.lock().take() else {
                    return;
                };
                let bytes: usize = chunks.iter().map(Bytes::len).sum();
                let _s = obs::span_sized("a2a", name, bytes as f64);
                let mut h = handle.lock();
                match Self::exchange(&mut h, None, chunks, tag, to_servers, route, timeout) {
                    Ok(got) => *inbox.lock() = Some(got),
                    Err(e) => fail(error, cancel, e),
                }
            }),
        }
    }

    /// Expert-parallel backward: two more (gradient) exchanges.
    ///
    /// Runs the serial or overlapped schedule under the same condition as
    /// [`forward`](Self::forward), mirroring the forward's routing; both
    /// produce bit-identical gradients.
    ///
    /// # Panics
    ///
    /// Panics if called without a cached forward.
    pub fn backward(&mut self, h: &mut RankHandle, dy: &Tensor) -> Result<Tensor, FabricError> {
        self.backward_with_allreduce(h, dy, None)
    }

    /// [`backward`](Self::backward), optionally folding a replicated-
    /// parameter gradient allreduce into the same submitted task graph.
    ///
    /// On the overlapped path the reduction is a comm-worker task, so it
    /// runs concurrently with the backward's compute stages; on the serial
    /// path it simply runs first. Every rank must agree on whether an
    /// allreduce is attached — the schedule choice itself (degree, live
    /// count) is replicated state, so the path choice always agrees.
    ///
    /// # Panics
    ///
    /// Panics if called without a cached forward.
    pub fn backward_with_allreduce(
        &mut self,
        h: &mut RankHandle,
        dy: &Tensor,
        allreduce: Option<GradAllreduce<'_>>,
    ) -> Result<Tensor, FabricError> {
        let cache = self
            .cache
            .take()
            .expect("distributed backward without forward");
        assert_eq!(dy.dims()[0], cache.n, "gradient row count mismatch");
        if self.serial(h.world_size()) {
            // Same ordering the overlapped graph gives the reduction:
            // before the backward's exchanges.
            if let Some(ar) = allreduce {
                allreduce_live(h, ar.values, ar.tag, ar.live)?;
            }
            self.backward_serial(h, dy, cache)
        } else {
            self.backward_overlapped(h, dy, cache, allreduce)
        }
    }

    /// The output grads (`w · dy`) for the slots server `dst` handles,
    /// encoded in the chunk wire format with the fp32 identity codec.
    fn encode_grads(route: &Route, decision: &GateDecision, dy: &Tensor, dst: usize) -> Bytes {
        let rows = route.gather(decision, dst, (0, 1), dy.dims()[1], |row, (t, w)| {
            for (d, &g) in row.iter_mut().zip(dy.row(t)) {
                *d = w * g;
            }
        });
        Self::encode_chunk(&NoCompression, &rows)
    }

    /// Combine-weight gradients, in per-token assignment order.
    fn weight_grads(cache: &Cache, dy: &Tensor) -> Vec<Vec<f32>> {
        let decision = &cache.decision;
        let mut d_weights: Vec<Vec<f32>> = vec![Vec::new(); cache.n];
        for (t, assigns) in decision.assignments.iter().enumerate() {
            for &(e, _) in assigns {
                let s = decision.expert_slots[e]
                    .iter()
                    .position(|&(tt, _)| tt == t)
                    .expect("assignment implies slot");
                let orow = cache.returned_outputs[e].row(s);
                d_weights[t].push(dy.row(t).iter().zip(orow).map(|(a, b)| a * b).sum());
            }
        }
        d_weights
    }

    /// `Eb` for one source: recomputes and differentiates each served
    /// expert on the rows `src` sent it — one recompute+backward per
    /// non-empty (expert, source) group. Both schedules make exactly this
    /// call sequence, sources ascending, so the weight-gradient
    /// accumulation order is identical at every degree. A whole-batch
    /// backward would fuse the sources into one GEMM and change the
    /// floating-point grouping.
    fn backprop_source(
        bodies: &mut Bodies<'_>,
        cache: &Cache,
        src: usize,
        grads: &[Tensor],
        tag: u64,
    ) -> Result<Vec<Tensor>, FabricError> {
        let served = &cache.route.served[cache.route.me];
        served
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                let count = cache.recv_counts[k][src];
                if grads[k].dims()[0] != count {
                    return Err(FabricError::Corrupt { peer: src, tag });
                }
                if count == 0 {
                    return Ok(grads[k].clone());
                }
                let before: usize = cache.recv_counts[k][..src].iter().sum();
                let body = bodies.get(e);
                let _ = body.forward(&slice_rows(&cache.expert_inputs[k], before, count));
                Ok(body.backward(&grads[k]))
            })
            .collect()
    }

    /// Scatters the input grads the servers returned (`dins[server][k]`)
    /// onto the tokens, ascending expert — the per-token addition order of
    /// every schedule — and adds the gate's input grads.
    fn finish_backward(
        &mut self,
        cache: &Cache,
        dins: &[Vec<Tensor>],
        d_weights: &[Vec<f32>],
        m: usize,
        tag: u64,
    ) -> Result<Tensor, FabricError> {
        let decision = &cache.decision;
        let mut rows: Vec<Tensor> = decision
            .expert_slots
            .iter()
            .map(|slots| Tensor::zeros(&[slots.len(), m]))
            .collect();
        cache
            .route
            .unshare(decision, dins, (0, 1), &mut rows, tag)?;
        let mut dx = Tensor::zeros(&[cache.n, m]);
        for (slots, rows) in decision.expert_slots.iter().zip(&rows) {
            for (s, &(t, _)) in slots.iter().enumerate() {
                for (xj, &dj) in dx.row_mut(t).iter_mut().zip(rows.row(s)) {
                    *xj += dj;
                }
            }
        }
        let dx_gate = {
            let _g = obs::span("gate", "gateb");
            self.gate.backward(d_weights)
        };
        dx.add_assign(&dx_gate).expect("same shape");
        Ok(dx)
    }

    /// The serial backward: one gradient dispatch exchange, all expert
    /// backwards, one gradient return exchange, no overlap.
    fn backward_serial(
        &mut self,
        h: &mut RankHandle,
        dy: &Tensor,
        cache: Cache,
    ) -> Result<Tensor, FabricError> {
        let p = h.world_size();
        let m = dy.dims()[1];
        let route = &cache.route;
        let a2a = Some(self.a2a.as_ref());
        // Backward spans use `*b` names so the profiler's forward-stage
        // models never ingest them.
        let c1b = obs::span_sized("encode", "C1b", (cache.n * m * 4) as f64);
        let grad_chunks: Vec<Bytes> = (0..p)
            .map(|dst| Self::encode_grads(route, &cache.decision, dy, dst))
            .collect();
        let d_weights = Self::weight_grads(&cache, dy);
        drop(c1b);
        let tag = chunk_tag(cache.tag_base, lanes::LANE_BWD_GRAD, 0);
        let grad_bytes: usize = grad_chunks.iter().map(Bytes::len).sum();
        let received = {
            let _s = obs::span_sized("a2a", "A1b", grad_bytes as f64);
            Self::exchange(h, a2a, grad_chunks, tag, true, route, self.recv_timeout)?
        };
        let served = route.served[route.me].len();
        let recv_bytes: usize = received.iter().flatten().map(Bytes::len).sum();
        let grads = {
            let _s = obs::span_sized("decode", "D1b", recv_bytes as f64);
            Self::decode_all(&NoCompression, &received, |_| served, m, tag)?
        };
        let dout_rows: usize = cache.recv_counts.iter().flatten().sum();
        let mut bodies = Bodies {
            me: route.me,
            epr: self.experts_per_rank,
            local: &mut self.local_experts,
            guests: &mut self.guest_experts,
        };
        let dins: Vec<Vec<Tensor>> = {
            let _s = obs::span_sized("expert", "Eb", dout_rows as f64);
            grads
                .iter()
                .enumerate()
                .map(|(src, g)| Self::backprop_source(&mut bodies, &cache, src, g, tag))
                .collect::<Result<_, _>>()?
        };
        let back: Vec<Bytes> = {
            let _s = obs::span_sized("encode", "C2b", (dout_rows * m * 4) as f64);
            dins.iter()
                .map(|d| Self::encode_chunk(&NoCompression, d))
                .collect()
        };
        let tag = chunk_tag(cache.tag_base, lanes::LANE_BWD_RETURN, 0);
        let back_bytes: usize = back.iter().map(Bytes::len).sum();
        let returned = {
            let _s = obs::span_sized("a2a", "A2b", back_bytes as f64);
            Self::exchange(h, a2a, back, tag, false, route, self.recv_timeout)?
        };
        let returned_bytes: usize = returned.iter().flatten().map(Bytes::len).sum();
        let d2b = obs::span_sized("decode", "D2b", returned_bytes as f64);
        let dins = Self::decode_all(&NoCompression, &returned, |s| route.served[s].len(), m, tag)?;
        drop(d2b);
        self.finish_backward(&cache, &dins, &d_weights, m, tag)
    }

    /// ScheMoE's pipelined backward: gradients flow per *peer* through
    /// the two-worker overlap executor, so source rank `j`'s expert
    /// backward hides the exchanges of sources `> j`, with an optional
    /// replicated-parameter allreduce on the comm worker.
    ///
    /// Task graph (compute worker order, then comm worker order; `p`
    /// ranks, `S1`/`R1` to and from the peers that talk on the gradient
    /// leg, `S2`/`R2` on the return leg — see [`Route::talks`]):
    ///
    /// ```text
    /// compute: C1b⁰..C1bᵖ⁻¹  dW  (D1b·Eb·C2b)⁰..(D1b·Eb·C2b)ᵖ⁻¹  D2b⁰..D2bᵖ⁻¹
    /// comm   : S1..  R1..  [AR]  S2..  R2..
    /// ```
    ///
    /// Unlike the forward, whose chunking follows `partition_degree`, the
    /// backward pipelines at per-source granularity: the canonical expert
    /// backward ([`backprop_source`](Self::backprop_source)) is exactly
    /// the serial backward's grouping, so the grads stay bit-identical
    /// while source `j`'s expert backward overlaps the remaining
    /// exchanges. The comm queue issues every send of a lane before any
    /// receive of it, and sends depend only on local compute, so the
    /// order is deadlock-free by construction. This rank's own chunks loop
    /// back through the mailboxes (still encode/decode round-tripped,
    /// exactly like the serial exchange's self-chunk) without touching the
    /// wire.
    ///
    /// The allreduce sits *between* the grad exchange (S1/R1) and the
    /// return exchange (S2/R2): putting it any earlier would stall every
    /// peer's expert-backward chain behind it, while between the lanes it
    /// fills exactly the window where the comm worker would otherwise sit
    /// idle waiting for expert backwards to produce return traffic.
    fn backward_overlapped(
        &mut self,
        h: &mut RankHandle,
        dy: &Tensor,
        cache: Cache,
        allreduce: Option<GradAllreduce<'_>>,
    ) -> Result<Tensor, FabricError> {
        let p = h.world_size();
        let me = h.rank();
        let m = dy.dims()[1];
        let n = cache.n;
        let timeout = self.recv_timeout;
        let _degraded_span = self.degraded_span(me);
        let cache_ref = &cache;
        let route = &cache.route;
        let decision = &cache.decision;
        let grad_tag = |j: usize| chunk_tag(cache.tag_base, lanes::LANE_BWD_GRAD, j);
        let return_tag = |j: usize| chunk_tag(cache.tag_base, lanes::LANE_BWD_RETURN, j);
        let bodies = Mutex::new(Bodies {
            me,
            epr: self.experts_per_rank,
            local: &mut self.local_experts,
            guests: &mut self.guest_experts,
        });
        let handle = Mutex::new(h);

        // Mailboxes between stages, one per peer (single producer, single
        // consumer, ordered by the executor's edges).
        let mailbox = |count: usize| -> Vec<Mutex<Option<Bytes>>> {
            (0..count).map(|_| Mutex::new(None)).collect()
        };
        let blocks = |count: usize| -> Vec<Mutex<Option<Vec<Tensor>>>> {
            (0..count).map(|_| Mutex::new(None)).collect()
        };
        // C1b[j] → S1 (or D1b[me]): encoded output grads for server j.
        let grad_chunks = mailbox(p);
        // R1[j] → D1b[j]: encoded output grads received from source j.
        let grad_recv = mailbox(p);
        // D1b[j] → Eb[j]: decoded output grads `[k]` from source j.
        let grads_decoded = blocks(p);
        // Eb[j] → C2b[j]: input grads `[k]` for source j's rows.
        let din_rows = blocks(p);
        // C2b[j] → S2 (or D2b[me]): encoded input grads for source j.
        let back_chunks = mailbox(p);
        // R2[j] → D2b[j]: encoded input grads returned by server j.
        let ret_recv = mailbox(p);
        // D2b[j] → scatter: decoded input grads `[k]` from server j.
        let dins_decoded = blocks(p);
        let d_weights_box: Mutex<Option<Vec<Vec<f32>>>> = Mutex::new(None);
        let error: Mutex<Option<FabricError>> = Mutex::new(None);
        let cancel = AtomicBool::new(false);
        let shared = (&handle, &error, &cancel);
        let peers = |to_servers: bool, outbound: bool| -> Vec<usize> {
            (0..p)
                .filter(|&j| j != me)
                .filter(|&j| {
                    if outbound {
                        route.talks(me, j, to_servers)
                    } else {
                        route.talks(j, me, to_servers)
                    }
                })
                .collect()
        };

        let mut tasks: Vec<ExecTask<'_>> = Vec::new();
        // C1b: per-server output-grad build + encode, so server j's send
        // can start while server j+1's grads still build. Task index j.
        for (j, outbox) in grad_chunks.iter().enumerate() {
            let error = &error;
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: Box::new(move || {
                    if error.lock().is_some() {
                        return;
                    }
                    let _s = obs::span_sized(
                        "encode",
                        format!("C1b[o{j}]"),
                        (n * m * 4) as f64 / p as f64,
                    );
                    *outbox.lock() = Some(Self::encode_grads(route, decision, dy, j));
                }),
            });
        }
        // dW: whole-batch combine-weight gradients. Pushed after the C1b
        // encodes so the comm lanes start as early as possible.
        {
            let d_weights_box = &d_weights_box;
            let error = &error;
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: Some(("encode", "dW".to_string())),
                run: Box::new(move || {
                    if error.lock().is_some() {
                        return;
                    }
                    *d_weights_box.lock() = Some(Self::weight_grads(cache_ref, dy));
                }),
            });
        }
        // S1 / R1: the gradient leg, toward the servers. Tags are
        // receiver-indexed: message i→j travels on `grad_tag(j)`. The
        // `A1bw` wait spans stay outside the profiler's stem set:
        // blocked-receive time measures peer skew, not wire cost.
        for j in peers(true, true) {
            tasks.push(Self::send_task(
                shared,
                &grad_chunks[j],
                j,
                grad_tag(j),
                j,
                "A1b",
            ));
        }
        let mut r1 = vec![None; p];
        for j in peers(true, false) {
            r1[j] = Some(tasks.len());
            tasks.push(Self::recv_task(
                shared,
                &grad_recv[j],
                j,
                grad_tag(me),
                timeout,
                "A1bw",
            ));
        }
        // AR: the replicated-parameter allreduce, queued once the grad
        // exchange is through so it rides under the expert-backward chain
        // — the longest stretch where the comm worker has nothing to move.
        if let Some(ar) = allreduce {
            let handle = &handle;
            let (error, cancel) = (&error, &cancel);
            tasks.push(ExecTask {
                worker: Worker::Comm,
                deps: vec![],
                span: Some(("coll", "allreduce[replicated]".to_string())),
                run: Box::new(move || {
                    if error.lock().is_some() {
                        return;
                    }
                    if let Err(e) = allreduce_live(&mut handle.lock(), ar.values, ar.tag, ar.live) {
                        fail(error, cancel, e);
                    }
                }),
            });
        }
        // Per source j ascending: D1b[j] decodes j's output grads, Eb[j]
        // differentiates every served expert's (expert, j) group, and
        // C2b[j] encodes the input grads straight back for j. Source j's
        // expert backward thus overlaps every later source's traffic. A
        // source that sent nothing (dead, or this rank serves nothing)
        // contributes empty groups.
        let served = route.served[me].len();
        let mut c2b = vec![0; p];
        for j in 0..p {
            let (deps, inbox) = if j == me {
                (Some(me), &grad_chunks[me])
            } else {
                (r1[j], &grad_recv[j])
            };
            let talks = deps.is_some();
            let grads_decoded = &grads_decoded[j];
            let (error, cancel) = (&error, &cancel);
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: deps.into_iter().collect(),
                span: None,
                run: Box::new(move || {
                    if !talks {
                        *grads_decoded.lock() = Some(vec![Tensor::zeros(&[0, m]); served]);
                        return;
                    }
                    let Some(ch) = inbox.lock().take() else {
                        return;
                    };
                    let _s = obs::span_sized("decode", format!("D1b[s{j}]"), ch.len() as f64);
                    match Self::decode_chunk(&NoCompression, &ch, served, m, j, grad_tag(me)) {
                        Ok(decoded) => *grads_decoded.lock() = Some(decoded),
                        Err(e) => fail(error, cancel, e),
                    }
                }),
            });
            let din_rows = &din_rows[j];
            let bodies = &bodies;
            let d1b = tasks.len() - 1;
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![d1b],
                span: None,
                run: Box::new(move || {
                    let Some(grads) = grads_decoded.lock().take() else {
                        return;
                    };
                    let rows_j: usize = cache_ref.recv_counts.iter().map(|c| c[j]).sum();
                    let _s = obs::span_sized("expert", format!("Eb[s{j}]"), rows_j as f64);
                    let mut bodies = bodies.lock();
                    match Self::backprop_source(&mut bodies, cache_ref, j, &grads, grad_tag(me)) {
                        Ok(dins) => *din_rows.lock() = Some(dins),
                        Err(e) => fail(error, cancel, e),
                    }
                }),
            });
            let back_chunks = &back_chunks[j];
            c2b[j] = tasks.len();
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: vec![c2b[j] - 1],
                span: None,
                run: Box::new(move || {
                    let Some(dins) = din_rows.lock().take() else {
                        return;
                    };
                    let rows_j: usize = dins.iter().map(|t| t.dims()[0]).sum();
                    let _s =
                        obs::span_sized("encode", format!("C2b[s{j}]"), (rows_j * m * 4) as f64);
                    *back_chunks.lock() = Some(Self::encode_chunk(&NoCompression, &dins));
                }),
            });
        }
        // S2 / R2: the return leg, back from the servers.
        for j in peers(false, true) {
            tasks.push(Self::send_task(
                shared,
                &back_chunks[j],
                c2b[j],
                return_tag(j),
                j,
                "A2b",
            ));
        }
        let mut r2 = vec![None; p];
        for j in peers(false, false) {
            r2[j] = Some(tasks.len());
            tasks.push(Self::recv_task(
                shared,
                &ret_recv[j],
                j,
                return_tag(me),
                timeout,
                "A2bw",
            ));
        }
        // D2b: per-server input-grad decode; a server that returned
        // nothing served this rank nothing.
        for j in 0..p {
            let (deps, inbox) = if j == me {
                (Some(c2b[me]), &back_chunks[me])
            } else {
                (r2[j], &ret_recv[j])
            };
            let talks = deps.is_some();
            let experts = route.served[j].len();
            let dins_decoded = &dins_decoded[j];
            let (error, cancel) = (&error, &cancel);
            tasks.push(ExecTask {
                worker: Worker::Compute,
                deps: deps.into_iter().collect(),
                span: None,
                run: Box::new(move || {
                    if !talks {
                        *dins_decoded.lock() = Some(vec![Tensor::zeros(&[0, m]); experts]);
                        return;
                    }
                    let Some(ch) = inbox.lock().take() else {
                        return;
                    };
                    let _s = obs::span_sized("decode", format!("D2b[o{j}]"), ch.len() as f64);
                    match Self::decode_chunk(&NoCompression, &ch, experts, m, j, return_tag(me)) {
                        Ok(decoded) => *dins_decoded.lock() = Some(decoded),
                        Err(e) => fail(error, cancel, e),
                    }
                }),
            });
        }
        let exec_result = run_overlapped_cancellable(tasks, &cancel);
        pipeline_outcome(error, exec_result)?;
        let dins: Vec<Vec<Tensor>> = dins_decoded
            .into_iter()
            .map(|mx| mx.into_inner().expect("pipeline completed"))
            .collect();
        let d_weights = d_weights_box.into_inner().expect("pipeline completed");
        self.finish_backward(&cache, &dins, &d_weights, m, return_tag(me))
    }

    /// A pipelined-backward send as a comm-worker task: ships `outbox` to
    /// `peer` on `tag` once task `dep` filled it.
    fn send_task<'a, 'h: 'a>(
        (handle, error, cancel): Shared<'a, 'h>,
        outbox: &'a Mutex<Option<Bytes>>,
        dep: usize,
        tag: u64,
        peer: usize,
        stem: &str,
    ) -> ExecTask<'a> {
        let name = format!("{stem}[p{peer}]");
        ExecTask {
            worker: Worker::Comm,
            deps: vec![dep],
            span: None,
            run: Box::new(move || {
                let Some(chunk) = outbox.lock().take() else {
                    return;
                };
                let _s = obs::span_sized("a2a", name, chunk.len() as f64);
                if let Err(e) = handle.lock().send(peer, tag, chunk) {
                    fail(error, cancel, e);
                }
            }),
        }
    }

    /// A pipelined-backward receive as a comm-worker task: waits for
    /// `peer`'s message on `tag` (deadline-aware) into `inbox`.
    fn recv_task<'a, 'h: 'a>(
        (handle, error, cancel): Shared<'a, 'h>,
        inbox: &'a Mutex<Option<Bytes>>,
        peer: usize,
        tag: u64,
        timeout: Option<Duration>,
        stem: &str,
    ) -> ExecTask<'a> {
        ExecTask {
            worker: Worker::Comm,
            deps: vec![],
            span: Some(("a2a", format!("{stem}[p{peer}]"))),
            run: Box::new(move || {
                if error.lock().is_some() {
                    return;
                }
                let result = {
                    let mut h = handle.lock();
                    match timeout {
                        Some(t) => h.recv_timeout(peer, tag, t),
                        None => h.recv(peer, tag),
                    }
                };
                match result {
                    Ok(got) => *inbox.lock() = Some(got),
                    Err(e) => fail(error, cancel, e),
                }
            }),
        }
    }

    /// Visits the gate's and local experts' parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
        for e in &mut self.local_experts {
            e.visit_params(f);
        }
    }
}

/// Sums `values` elementwise across all ranks in place (naive allreduce:
/// gather on rank 0, reduce, broadcast).
///
/// Used to keep replicated parameters (the gate) synchronized in
/// data-parallel training.
pub fn allreduce_inplace(
    h: &mut RankHandle,
    values: &mut [f32],
    tag: u64,
) -> Result<(), FabricError> {
    let live = vec![true; h.world_size()];
    allreduce_live(h, values, tag, &live)
}

/// [`allreduce_inplace`] restricted to the ranks marked `true` in `live`:
/// the sum is gathered on the lowest live rank and broadcast back to the
/// survivors only, so a dead rank (which can no longer participate) does
/// not wedge the reduction. The caller must itself be live.
///
/// # Panics
///
/// Panics if `live` disagrees with the world size, marks no rank, or marks
/// the caller dead.
pub fn allreduce_live(
    h: &mut RankHandle,
    values: &mut [f32],
    tag: u64,
    live: &[bool],
) -> Result<(), FabricError> {
    let p = h.world_size();
    let me = h.rank();
    assert_eq!(live.len(), p, "live mask must cover the world");
    assert!(live[me], "a dead rank cannot join an allreduce");
    let root = live
        .iter()
        .position(|&l| l)
        .expect("at least one live rank");
    if live.iter().filter(|&&l| l).count() <= 1 {
        return Ok(());
    }
    let encode = |v: &[f32]| {
        let mut buf = BytesMut::with_capacity(v.len() * 4);
        for &x in v {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.freeze()
    };
    if me == root {
        for src in 0..p {
            if src == root || !live[src] {
                continue;
            }
            let chunk = h.recv(src, tag)?;
            for (i, b) in chunk.chunks_exact(4).enumerate() {
                values[i] += f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        let summed = encode(values);
        for dst in 0..p {
            if dst != root && live[dst] {
                h.send(dst, tag + 1, summed.clone())?;
            }
        }
    } else {
        h.send(root, tag, encode(values))?;
        let summed = h.recv(root, tag + 1)?;
        for (i, b) in summed.chunks_exact(4).enumerate() {
            values[i] = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::FfExpert;
    use crate::layer::MoeLayer;
    use schemoe_cluster::{Fabric, Topology};
    use schemoe_collectives::{NcclA2A, TAG_STRIDE};
    use schemoe_compression::NoCompression;
    use schemoe_tensor::nn::Module;
    use schemoe_tensor::rng::{self, seeded};

    const M: usize = 6;
    const H: usize = 10;

    /// Experts and gate built from fixed seeds so every construction site
    /// produces identical parameters.
    fn make_expert(e: usize) -> Box<dyn Expert> {
        Box::new(FfExpert::new(M, H, &mut seeded(1000 + e as u64)))
    }

    fn make_gate(experts: usize, k: usize, f: f64) -> TopKGate {
        TopKGate::new(M, experts, k, f, &mut seeded(555))
    }

    #[test]
    fn matches_single_process_layer() {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 5;
        // Global batch, split contiguously across ranks.
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(7));

        // Distributed forward.
        let dist_out = Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0); // big capacity: no drops
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            );
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            layer.forward(&mut h, &x, 0).unwrap()
        });

        // Single-process references, one per rank's shard (capacity is per
        // shard in expert-parallel training, so compare shard by shard).
        for me in 0..p {
            let gate = make_gate(p, 2, 8.0);
            let experts: Vec<Box<dyn Expert>> = (0..p).map(make_expert).collect();
            let mut reference = MoeLayer::from_parts(gate, experts);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let want = reference.forward(&x);
            let diff = dist_out[me].max_abs_diff(&want).unwrap();
            assert!(diff < 1e-5, "rank {me} diverged from reference by {diff}");
        }
    }

    #[test]
    fn backward_matches_single_process_layer() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 4;
        let x_global = rng::uniform(&[n_local * p, M], 0.7, &mut seeded(8));

        let dist = Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 1, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            );
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            // Also return the gate gradient for cross-checking.
            let mut gate_grad = Vec::new();
            layer.visit_params(&mut |prm| {
                if prm.name == "gate.wg" {
                    gate_grad = prm.grad.data().to_vec();
                }
            });
            (dx, gate_grad)
        });

        for me in 0..p {
            let gate = make_gate(p, 1, 8.0);
            let experts: Vec<Box<dyn Expert>> = (0..p).map(make_expert).collect();
            let mut reference = MoeLayer::from_parts(gate, experts);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = reference.forward(&x);
            let dx_want = reference.backward(&y);
            let diff = dist[me].0.max_abs_diff(&dx_want).unwrap();
            assert!(diff < 1e-4, "rank {me} dx diverged by {diff}");
        }
    }

    /// Forward outputs per rank for a given constructor, so serial and
    /// overlapped configurations can be compared bit-for-bit.
    fn forward_outputs(
        topo: Topology,
        n_local: usize,
        epr: usize,
        k: usize,
        x_global: &Tensor,
        degree: usize,
        compressor: fn() -> Box<dyn schemoe_compression::Compressor>,
    ) -> Vec<Tensor> {
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p * epr, k, 8.0);
            let experts: Vec<Box<dyn Expert>> =
                (0..epr).map(|le| make_expert(me * epr + le)).collect();
            let mut layer =
                DistributedMoeLayer::new(gate, experts, compressor(), Box::new(NcclA2A))
                    .with_partition_degree(degree)
                    .with_recv_timeout(std::time::Duration::from_secs(30));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            layer.forward(&mut h, &x, 0).unwrap()
        })
    }

    #[test]
    fn overlapped_forward_is_bit_identical_to_serial() {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(21));
        let serial = forward_outputs(topo, n_local, 1, 2, &x_global, 1, || {
            Box::new(NoCompression)
        });
        // Degrees beyond the slot counts exercise empty chunks too.
        for degree in [2, 3, 4, 16] {
            let overlapped = forward_outputs(topo, n_local, 1, 2, &x_global, degree, || {
                Box::new(NoCompression)
            });
            for me in 0..p {
                let diff = overlapped[me].max_abs_diff(&serial[me]).unwrap();
                assert_eq!(diff, 0.0, "degree {degree} rank {me} diverged by {diff}");
            }
        }
    }

    #[test]
    fn overlapped_forward_is_bit_identical_with_fp16_and_multi_experts() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let (epr, n_local) = (2, 6);
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(22));
        let fp16 = || -> Box<dyn schemoe_compression::Compressor> {
            Box::new(schemoe_compression::Fp16Compressor)
        };
        let serial = forward_outputs(topo, n_local, epr, 2, &x_global, 1, fp16);
        let overlapped = forward_outputs(topo, n_local, epr, 2, &x_global, 4, fp16);
        for me in 0..p {
            let diff = overlapped[me].max_abs_diff(&serial[me]).unwrap();
            assert_eq!(diff, 0.0, "rank {me} diverged by {diff}");
        }
    }

    #[test]
    fn overlapped_backward_is_bit_identical_to_serial() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 5;
        let x_global = rng::uniform(&[n_local * p, M], 0.7, &mut seeded(23));
        let run = |degree: usize| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(p, 2, 8.0);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                let dx = layer.backward(&mut h, &y).unwrap();
                let mut grads = Vec::new();
                layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
                (dx, grads)
            })
        };
        let serial = run(1);
        let overlapped = run(4);
        for me in 0..p {
            let diff = overlapped[me].0.max_abs_diff(&serial[me].0).unwrap();
            assert_eq!(diff, 0.0, "rank {me} dx diverged by {diff}");
            assert_eq!(
                overlapped[me].1, serial[me].1,
                "rank {me} param grads diverged"
            );
        }
    }

    #[test]
    fn allreduce_folded_into_the_backward_graph_matches_a_separate_call() {
        // Submitting the replicated-parameter allreduce as part of the
        // backward task graph must change nothing numerically: the reduced
        // values equal a standalone `allreduce_live`, and dx / param grads
        // equal a plain `backward`. Degree 1 covers the serial fallback
        // (which runs the allreduce first), degree 4 the pipelined graph.
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 5;
        let x_global = rng::uniform(&[n_local * p, M], 0.7, &mut seeded(24));
        let run = |degree: usize, folded: bool| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(p, 2, 8.0);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                let live = vec![true; p];
                let mut values: Vec<f32> = (0..8).map(|i| (me * 8 + i) as f32 * 0.5).collect();
                let dx = if folded {
                    layer
                        .backward_with_allreduce(
                            &mut h,
                            &y,
                            Some(GradAllreduce {
                                values: &mut values,
                                tag: 9_000_000,
                                live: &live,
                            }),
                        )
                        .unwrap()
                } else {
                    let dx = layer.backward(&mut h, &y).unwrap();
                    allreduce_live(&mut h, &mut values, 9_000_000, &live).unwrap();
                    dx
                };
                let mut grads = Vec::new();
                layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
                (dx, grads, values)
            })
        };
        for degree in [1, 4] {
            let folded = run(degree, true);
            let separate = run(degree, false);
            for me in 0..p {
                let diff = folded[me].0.max_abs_diff(&separate[me].0).unwrap();
                assert_eq!(diff, 0.0, "degree {degree} rank {me} dx diverged");
                assert_eq!(
                    folded[me].1, separate[me].1,
                    "degree {degree} rank {me} param grads diverged"
                );
                assert_eq!(
                    folded[me].2, separate[me].2,
                    "degree {degree} rank {me} allreduced values diverged"
                );
            }
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let mut v = vec![h.rank() as f32, 1.0];
            allreduce_inplace(&mut h, &mut v, 42).unwrap();
            v
        });
        for v in results {
            assert_eq!(v, vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_live_skips_dead_ranks() {
        // Rank 2 is "dead": it never joins. Survivors reduce among
        // themselves, rooted at the lowest live rank.
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 2 {
                return Vec::new();
            }
            let live = [true, true, false, true];
            let mut v = vec![h.rank() as f32, 1.0];
            allreduce_live(&mut h, &mut v, 42, &live).unwrap();
            v
        });
        for (r, v) in results.iter().enumerate() {
            if r == 2 {
                continue;
            }
            assert_eq!(v, &vec![0.0 + 1.0 + 3.0, 3.0], "rank {r}");
        }
    }

    #[test]
    fn degraded_forward_and_backward_complete_without_the_dead_rank() {
        // Rank 1 of 4 dies before the step. Survivors mark it dead,
        // reroute its tokens, and complete forward + backward with finite
        // outputs; the dead rank's experts receive nothing.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let dead = 1usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(41));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(dead);
            assert!(layer.is_degraded());
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            Some((y, dx))
        });
        for (r, out) in outs.iter().enumerate() {
            if r == dead {
                assert!(out.is_none());
                continue;
            }
            let (y, dx) = out.as_ref().unwrap();
            assert_eq!(y.dims(), &[n_local, M]);
            assert!(y.all_finite(), "rank {r} produced non-finite output");
            assert!(dx.all_finite(), "rank {r} produced non-finite grads");
            // Degraded combine still moves data: the output is not zero.
            assert!(
                y.data().iter().any(|&v| v.abs() > 1e-6),
                "rank {r} output is all zeros"
            );
        }
    }

    #[test]
    fn a_single_live_rank_falls_back_to_the_serial_path_and_still_completes() {
        // With only one rank left alive there is no communication to
        // overlap, so a layer configured for overlapped execution falls
        // back to the serial degraded path and still completes.
        let topo = Topology::new(1, 2);
        let n_local = 5;
        let dead = 1usize;
        let x_global = rng::uniform(&[n_local * 2, M], 1.0, &mut seeded(42));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(2, 1, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(4)
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(dead);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            Some(layer.forward(&mut h, &x, 0).unwrap())
        });
        let y = outs[0].as_ref().unwrap();
        assert!(y.all_finite());
        assert!(y.data().iter().any(|&v| v.abs() > 1e-6));
    }

    /// Per-rank (forward, dx, grads) for a degraded run at the given
    /// partition degree: `dead` never joins, survivors mark it dead.
    #[allow(clippy::type_complexity)]
    fn degraded_run(
        topo: Topology,
        dead: usize,
        degree: usize,
        x_global: &Tensor,
        n_local: usize,
    ) -> Vec<Option<(Tensor, Tensor, Vec<Vec<f32>>)>> {
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(degree)
            .with_recv_timeout(std::time::Duration::from_secs(30));
            layer.mark_rank_dead(dead);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut grads = Vec::new();
            layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
            Some((y, dx, grads))
        })
    }

    #[test]
    fn degraded_overlapped_forward_matches_degraded_serial_bit_for_bit() {
        // Satellite of the elastic-membership work: losing a rank must not
        // cost the overlap. With three live peers the overlapped pipeline
        // keeps running (masked gate + live-aware per-chunk exchanges) and
        // reproduces the degraded serial path exactly.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let dead = 3usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(43));
        let serial = degraded_run(topo, dead, 1, &x_global, n_local);
        for degree in [2, 4] {
            let overlapped = degraded_run(topo, dead, degree, &x_global, n_local);
            for me in 0..p {
                if me == dead {
                    assert!(overlapped[me].is_none());
                    continue;
                }
                let (ys, dxs, gs) = serial[me].as_ref().unwrap();
                let (yo, dxo, go) = overlapped[me].as_ref().unwrap();
                assert_eq!(
                    yo.max_abs_diff(ys).unwrap(),
                    0.0,
                    "degree {degree} rank {me} forward diverged"
                );
                assert_eq!(
                    dxo.max_abs_diff(dxs).unwrap(),
                    0.0,
                    "degree {degree} rank {me} dx diverged"
                );
                assert_eq!(go, gs, "degree {degree} rank {me} param grads diverged");
            }
        }
    }

    #[test]
    fn degraded_steps_with_live_peers_still_overlap() {
        // Regression for the old `is_degraded() → forward_serial` fallback:
        // a degraded step with live peers must still run the chunked
        // pipeline. Partition degree 17 is unique in this test binary, so
        // the `A1[c16]` span can only come from this run.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let dead = 2usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(44));
        obs::enable();
        let degraded_deltas = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return 0;
            }
            let before = obs::counters_for_rank(me).snapshot().degraded_steps;
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(17)
            .with_recv_timeout(std::time::Duration::from_secs(30));
            layer.mark_rank_dead(dead);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            assert!(y.all_finite());
            obs::counters_for_rank(me).snapshot().degraded_steps - before
        });
        let trace = obs::take();
        obs::disable();
        for (r, delta) in degraded_deltas.iter().enumerate() {
            if r != dead {
                assert!(*delta >= 1, "rank {r} did not record a degraded step");
            }
        }
        let has = |name: &str| trace.spans.iter().any(|s| s.name == name);
        assert!(
            has("A1[c16]") && has("A2[c16]"),
            "degraded run did not produce per-chunk overlap spans"
        );
        assert!(
            trace.spans.iter().any(|s| s.cat == "degraded"),
            "degraded run did not record the degraded span"
        );
    }

    #[test]
    fn mark_rank_alive_restores_full_capacity_bit_for_bit() {
        // Kill rank 1, run a degraded step, revive it, and check the next
        // step is indistinguishable from one that never degraded: the gate
        // expands back over the returned experts and the overlapped path
        // re-engages.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 5;
        let dead = 1usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(45));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(2)
            .with_recv_timeout(std::time::Duration::from_secs(30));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            // Step 0: full world, baseline output.
            let baseline = layer.forward(&mut h, &x, 0).unwrap();
            // Step 1: rank 1 is out; survivors run degraded.
            if me != dead {
                layer.mark_rank_dead(dead);
                assert!(layer.is_degraded());
                layer.forward(&mut h, &x, TAG_STRIDE).unwrap();
                layer.mark_rank_alive(dead);
                assert!(!layer.is_degraded());
            }
            // Step 2: the revived rank is back; full-capacity output must
            // match the baseline exactly.
            let after = layer.forward(&mut h, &x, 2 * TAG_STRIDE).unwrap();
            (baseline, after)
        });
        for (r, (baseline, after)) in outs.iter().enumerate() {
            assert_eq!(
                after.max_abs_diff(baseline).unwrap(),
                0.0,
                "rank {r} post-rejoin output differs from the never-degraded baseline"
            );
        }
    }

    /// Per-rank (y, dx, expert grads) for a no-deaths run — the reference
    /// the failover path must reproduce. `empty_rank` contributes a
    /// zero-token batch: that is exactly the world a failover step sees
    /// (the dead rank's shard is gone, but its expert keeps serving), so
    /// comparing against it checks expert fidelity without conflating the
    /// vanished tokens.
    #[allow(clippy::type_complexity)]
    fn full_capacity_run(
        topo: Topology,
        x_global: &Tensor,
        n_local: usize,
        empty_rank: Option<usize>,
    ) -> Vec<(Tensor, Tensor, Vec<Vec<f32>>)> {
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            );
            let rows = if empty_rank == Some(me) { 0 } else { n_local };
            let mut x = Tensor::zeros(&[rows, M]);
            for r in 0..rows {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut expert_grads = Vec::new();
            layer.visit_params(&mut |prm| {
                if !prm.name.starts_with("gate") {
                    expert_grads.push(prm.grad.data().to_vec());
                }
            });
            (y, dx, expert_grads)
        })
    }

    #[test]
    fn a_failover_host_serves_the_dead_ranks_expert_bit_for_bit() {
        // Rank 1 of 4 dies but rank 2 holds a fresh replica of its expert
        // and a failover route is installed everywhere. Because no expert
        // leaves the routing table and the hosted replica is bit-identical,
        // every survivor's forward, dx, and the hosted expert's gradients
        // must equal the never-degraded full-capacity run exactly.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let (dead, host) = (1usize, 2usize);
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(51));
        let baseline = full_capacity_run(topo, &x_global, n_local, Some(dead));
        let failover = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(dead);
            layer.set_failover_route(dead, host);
            if me == host {
                layer.install_hosted_experts(dead, vec![make_expert(dead)]);
                assert_eq!(layer.hosted_dead_ranks(), vec![dead]);
            }
            assert!(layer.has_failover());
            assert_eq!(layer.failover_host_of(dead), Some(host));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut hosted_grads = Vec::new();
            layer.visit_hosted_params(dead, &mut |prm| {
                hosted_grads.push(prm.grad.data().to_vec());
            });
            Some((y, dx, hosted_grads))
        });
        for me in 0..p {
            if me == dead {
                assert!(failover[me].is_none());
                continue;
            }
            let (y, dx, hosted_grads) = failover[me].as_ref().unwrap();
            let (by, bdx, _) = &baseline[me];
            assert_eq!(
                y.max_abs_diff(by).unwrap(),
                0.0,
                "rank {me} failover forward diverged from full capacity"
            );
            assert_eq!(
                dx.max_abs_diff(bdx).unwrap(),
                0.0,
                "rank {me} failover dx diverged from full capacity"
            );
            if me == host {
                // The hosted expert's gradients are exactly what the dead
                // rank would have computed for its own expert.
                assert_eq!(
                    hosted_grads, &baseline[dead].2,
                    "hosted expert grads diverged from the dead rank's own"
                );
            } else {
                assert!(hosted_grads.is_empty());
            }
        }
    }

    #[test]
    fn an_orphaned_expert_reroutes_while_routed_experts_keep_serving() {
        // Double fault: ranks 1 and 3 are both dead, but only rank 1 has a
        // failover route (to rank 2). Rank 3's expert is orphaned and must
        // fall back to the masked reroute, while rank 1's keeps serving
        // through its host — the step completes with finite outputs.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(52));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == 1 || me == 3 {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(1);
            layer.mark_rank_dead(3);
            layer.set_failover_route(1, 2);
            if me == 2 {
                layer.install_hosted_experts(1, vec![make_expert(1)]);
            }
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut hosted_nonzero = false;
            layer.visit_hosted_params(1, &mut |prm| {
                hosted_nonzero |= prm.grad.data().iter().any(|&g| g != 0.0);
            });
            Some((y, dx, hosted_nonzero))
        });
        for (r, out) in outs.iter().enumerate() {
            if r == 1 || r == 3 {
                assert!(out.is_none());
                continue;
            }
            let (y, dx, hosted_nonzero) = out.as_ref().unwrap();
            assert!(y.all_finite(), "rank {r} non-finite output");
            assert!(dx.all_finite(), "rank {r} non-finite grads");
            assert!(
                y.data().iter().any(|&v| v.abs() > 1e-6),
                "rank {r} output is all zeros"
            );
            if r == 2 {
                assert!(hosted_nonzero, "hosted expert saw no gradient");
            }
        }
    }

    #[test]
    fn a_dying_host_orphans_its_wards_and_rejoin_clears_routes() {
        let mut layer = DistributedMoeLayer::new(
            make_gate(4, 2, 8.0),
            vec![make_expert(0)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        );
        layer.mark_rank_dead(1);
        layer.set_failover_route(1, 2);
        assert_eq!(layer.failover_routes(), vec![(1, 2)]);
        // The host dies too: the ward's route is dropped, so its expert
        // is masked again (orphaned).
        layer.mark_rank_dead(2);
        assert!(!layer.has_failover());
        assert_eq!(layer.failover_host_of(1), None);
        // Rejoin clears a rank's own route and hosted entry.
        layer.set_failover_route(1, 3);
        layer.install_hosted_experts(1, vec![make_expert(1)]);
        layer.mark_rank_alive(1);
        assert!(!layer.has_failover());
        assert!(layer.hosted_dead_ranks().is_empty());
    }

    #[test]
    fn multiple_experts_per_rank() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let epr = 2;
        let n_local = 6;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(9));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p * epr, 2, 8.0);
            let experts: Vec<Box<dyn Expert>> =
                (0..epr).map(|le| make_expert(me * epr + le)).collect();
            let mut layer =
                DistributedMoeLayer::new(gate, experts, Box::new(NoCompression), Box::new(NcclA2A));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            layer.forward(&mut h, &x, 0).unwrap()
        });
        for me in 0..p {
            let gate = make_gate(p * epr, 2, 8.0);
            let experts: Vec<Box<dyn Expert>> = (0..p * epr).map(make_expert).collect();
            let mut reference = MoeLayer::from_parts(gate, experts);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let want = reference.forward(&x);
            let diff = outs[me].max_abs_diff(&want).unwrap();
            assert!(diff < 1e-5, "rank {me} diverged by {diff}");
        }
    }

    /// Runs one forward + backward on a 4-rank world (epr = 1), optionally
    /// under the given placement (guest bodies rebuilt from the same seeds
    /// as the homes, like a state transfer would). Returns per rank:
    /// `(y, dx, own expert grads, guest grads by expert)`.
    #[allow(clippy::type_complexity)]
    fn placed_step(
        x_global: &Tensor,
        n_local: usize,
        servers: Option<&[Vec<usize>]>,
    ) -> Vec<(Tensor, Tensor, Vec<Vec<f32>>, Vec<(usize, Vec<Vec<f32>>)>)> {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            );
            if let Some(servers) = servers {
                let pl = Placement::new(1, 1, servers.to_vec());
                for &e in &pl.guests_of(me) {
                    layer.install_guest_expert(me, e, make_expert(e));
                }
                layer.set_placement(me, pl);
            }
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut own = Vec::new();
            layer.visit_serving_params(me, me, &mut |prm| own.push(prm.grad.data().to_vec()));
            let mut guests = Vec::new();
            for e in layer.guest_expert_ids() {
                let mut g = Vec::new();
                layer.visit_serving_params(me, e, &mut |prm| g.push(prm.grad.data().to_vec()));
                guests.push((e, g));
            }
            (y, dx, own, guests)
        })
    }

    #[test]
    fn placed_fan_out_is_bit_identical_to_serial() {
        // Expert 0 replicated on ranks {0, 2}, expert 3 migrated to rank 1.
        // Outputs and input grads must match the static serial step bit for
        // bit: expert bodies are row-wise and the combine reassembles the
        // serial slot order before accumulating.
        let p = 4;
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(91));
        let servers = vec![vec![0usize, 2], vec![1], vec![2], vec![1]];
        let serial = placed_step(&x_global, n_local, None);
        let placed = placed_step(&x_global, n_local, Some(&servers));
        for me in 0..p {
            let dy = placed[me].0.max_abs_diff(&serial[me].0).unwrap();
            assert_eq!(dy, 0.0, "rank {me} y diverged by {dy}");
            let ddx = placed[me].1.max_abs_diff(&serial[me].1).unwrap();
            assert_eq!(ddx, 0.0, "rank {me} dx diverged by {ddx}");
        }
    }

    #[test]
    fn migrated_expert_weight_grads_match_the_static_home_bitwise() {
        // Pure migration (no replicas): the guest body receives exactly the
        // rows the home would have, in the same src-major order, and makes
        // the same canonical per-(expert, source) backward calls — so its
        // weight grads equal the static home's bit for bit.
        let p = 4;
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(92));
        let servers = vec![vec![0usize], vec![3], vec![2], vec![1]];
        let serial = placed_step(&x_global, n_local, None);
        let placed = placed_step(&x_global, n_local, Some(&servers));
        for (e, host) in [(1usize, 3usize), (3, 1)] {
            let guest = &placed[host]
                .3
                .iter()
                .find(|(ge, _)| *ge == e)
                .expect("guest grads recorded")
                .1;
            assert_eq!(
                guest, &serial[e].2,
                "guest grads for expert {e} on rank {host}"
            );
        }
    }

    #[test]
    fn replica_partial_grads_sum_to_the_full_expert_grad() {
        // A replicated expert's weight grads are partial per server; their
        // sum must match the static full-batch grad up to float regrouping
        // (this is what the controller's sync-group allreduce restores).
        let p = 4;
        let n_local = 8;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(93));
        let servers = vec![vec![0usize, 2], vec![1], vec![2], vec![3]];
        let serial = placed_step(&x_global, n_local, None);
        let placed = placed_step(&x_global, n_local, Some(&servers));
        let home = &placed[0].2;
        let guest = &placed[2]
            .3
            .iter()
            .find(|(ge, _)| *ge == 0)
            .expect("rank 2 serves expert 0")
            .1;
        assert_eq!(home.len(), guest.len());
        for (i, want) in serial[0].2.iter().enumerate() {
            for (j, &w) in want.iter().enumerate() {
                let got = home[i][j] + guest[i][j];
                assert!(
                    (got - w).abs() < 1e-4,
                    "expert 0 grad[{i}][{j}]: {got} vs {w}"
                );
            }
        }
    }

    #[test]
    fn load_stats_accumulate_and_drain() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(94));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            // A starved capacity factor guarantees shed assignments.
            let gate = make_gate(p, 2, 0.05);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            );
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let _y = layer.forward(&mut h, &x, 0).unwrap();
            let stats = layer.take_load_stats();
            let drained = layer.take_load_stats();
            (stats, drained)
        });
        for (me, ((loads, shed, routed, _p99), drained)) in outs.iter().enumerate() {
            assert_eq!(loads.iter().sum::<u64>(), *routed, "rank {me}");
            assert!(*routed > 0, "rank {me} routed nothing");
            assert!(*shed > 0, "rank {me} shed nothing despite f=0.05");
            assert!(
                drained.0.is_empty() && drained.1 == 0 && drained.2 == 0 && drained.3 == 0,
                "rank {me} drain did not reset"
            );
        }
    }

    #[test]
    #[should_panic(expected = "guest body")]
    fn activating_a_placement_without_its_guest_bodies_panics() {
        let gate = make_gate(2, 1, 8.0);
        let mut layer = DistributedMoeLayer::new(
            gate,
            vec![make_expert(0)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        );
        // Expert 1 migrated onto rank 0 without a guest body installed.
        let pl = Placement::new(1, 1, vec![vec![0], vec![0]]);
        layer.set_placement(0, pl);
    }

    /// A channel endpoint that logs the tag of every message it sends.
    struct TagLog {
        inner: schemoe_cluster::transport::ChannelTransport,
        sent: std::sync::Arc<Mutex<Vec<u64>>>,
    }

    impl schemoe_cluster::Transport for TagLog {
        fn world_size(&self) -> usize {
            self.inner.world_size()
        }
        fn send_raw(
            &self,
            to: usize,
            tag: u64,
            payload: Bytes,
        ) -> Result<(), schemoe_cluster::transport::LinkClosed> {
            self.sent.lock().push(tag);
            self.inner.send_raw(to, tag, payload)
        }
        fn recv_raw(
            &self,
            from: usize,
            timeout: Option<Duration>,
        ) -> Result<(u64, Bytes), schemoe_cluster::transport::RawRecvError> {
            self.inner.recv_raw(from, timeout)
        }
        fn barrier(&self) {
            self.inner.barrier();
        }
        fn post_death(&self, rank: usize) {
            self.inner.post_death(rank);
        }
        fn peer_dead(&self, rank: usize) -> bool {
            self.inner.peer_dead(rank)
        }
        fn clear_death(&self, rank: usize) {
            self.inner.clear_death(rank);
        }
        fn always_framed(&self) -> bool {
            self.inner.always_framed()
        }
        fn reconnectable(&self) -> bool {
            self.inner.reconnectable()
        }
    }

    #[test]
    fn a_non_static_placement_runs_the_pipelined_schedule() {
        // Expert 0 replicated on ranks {0, 2}, expert 3 migrated to rank 1,
        // at r = 2: both forward exchanges must run per chunk (chunk 1's
        // dispatch and combine tags carry traffic), and the output must
        // still match the serial step bit for bit.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(95));
        let servers = vec![vec![0usize, 2], vec![1], vec![2], vec![1]];
        let run = |degree: usize| {
            let sent = std::sync::Arc::new(Mutex::new(Vec::new()));
            let endpoints = schemoe_cluster::transport::channel::mesh(p);
            let outs: Vec<Tensor> = std::thread::scope(|s| {
                let ranks: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(me, inner)| {
                        let sent = std::sync::Arc::clone(&sent);
                        let (servers, x_global) = (&servers, &x_global);
                        s.spawn(move || {
                            let log = Box::new(TagLog { inner, sent });
                            let mut h = RankHandle::attach(topo, me, log, None);
                            let mut layer = DistributedMoeLayer::new(
                                make_gate(p, 2, 8.0),
                                vec![make_expert(me)],
                                Box::new(NoCompression),
                                Box::new(NcclA2A),
                            )
                            .with_partition_degree(degree)
                            .with_recv_timeout(Duration::from_secs(30));
                            let pl = Placement::new(1, 1, servers.clone());
                            for &e in &pl.guests_of(me) {
                                layer.install_guest_expert(me, e, make_expert(e));
                            }
                            layer.set_placement(me, pl);
                            let mut x = Tensor::zeros(&[n_local, M]);
                            for r in 0..n_local {
                                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                            }
                            layer.forward(&mut h, &x, 0).unwrap()
                        })
                    })
                    .collect();
                ranks.into_iter().map(|j| j.join().unwrap()).collect()
            });
            let tags = sent.lock().clone();
            (outs, tags)
        };
        let (serial, _) = run(1);
        let (piped, tags) = run(2);
        for lane in [lanes::LANE_DISPATCH, lanes::LANE_COMBINE] {
            for c in 0..2 {
                assert!(
                    tags.contains(&chunk_tag(0, lane, c)),
                    "no traffic on chunk {c} of lane {lane}: placement did not pipeline"
                );
            }
        }
        for me in 0..p {
            let diff = piped[me].max_abs_diff(&serial[me]).unwrap();
            assert_eq!(
                diff, 0.0,
                "rank {me} pipelined placement diverged by {diff}"
            );
        }
    }

    #[test]
    fn decoding_hostile_chunks_never_panics() {
        // Truncation at every length, a bit flip at every position, and
        // random bytes, under every codec: the decoder returns a typed
        // error or exactly the requested row blocks — never a panic, and
        // never an allocation the bytes could not back.
        use rand::Rng;
        use schemoe_compression::{Fp16Compressor, Int8Compressor, ZfpCompressor};
        let codecs: Vec<Box<dyn Compressor>> = vec![
            Box::new(NoCompression),
            Box::new(Fp16Compressor),
            Box::new(Int8Compressor),
            Box::new(ZfpCompressor::default()),
        ];
        let blocks = vec![
            rng::uniform(&[3, M], 1.0, &mut seeded(96)),
            Tensor::zeros(&[0, M]),
            rng::uniform(&[2, M], 1.0, &mut seeded(97)),
        ];
        let corrupt = FabricError::Corrupt { peer: 1, tag: 7 };
        let mut noise = seeded(98);
        for codec in &codecs {
            let codec = codec.as_ref();
            let decode = |bytes: &[u8]| DistributedMoeLayer::decode_chunk(codec, bytes, 3, M, 1, 7);
            let check = |bytes: &[u8]| match decode(bytes) {
                Ok(got) => {
                    assert_eq!(got.len(), 3, "{}: wrong block count", codec.name());
                    assert!(got.iter().all(|b| b.dims()[1] == M));
                }
                Err(e) => assert_eq!(e, corrupt, "{}: untyped failure", codec.name()),
            };
            let chunk = DistributedMoeLayer::encode_chunk(codec, &blocks);
            let intact = decode(&chunk).unwrap();
            let rows: Vec<usize> = intact.iter().map(|b| b.dims()[0]).collect();
            assert_eq!(rows, vec![3, 0, 2], "{}", codec.name());
            for len in 0..chunk.len() {
                assert!(
                    decode(&chunk[..len]).is_err(),
                    "{}: truncation to {len}",
                    codec.name()
                );
            }
            for bit in 0..chunk.len() * 8 {
                let mut bad = chunk.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                check(&bad);
            }
            for _ in 0..256 {
                let len = noise.gen_range(0..64);
                let bytes: Vec<u8> = (0..len).map(|_| noise.gen_range(0..256u32) as u8).collect();
                check(&bytes);
            }
        }
    }
}

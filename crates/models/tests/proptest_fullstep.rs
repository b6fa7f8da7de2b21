//! Property: the whole overlapped training step is bit-identical to the
//! serial step.
//!
//! `distributed_full_step` runs the pipelined forward, the pipelined
//! backward, and the replicated-parameter allreduce folded into the
//! backward task graph. Whatever the topology, partition degree, codec,
//! or liveness (healthy, or degraded with one dead rank), every live
//! rank's forward output, input gradients, parameter gradients, and
//! reduced replicated values must equal the serial step's bit for bit.

use proptest::prelude::*;
use schemoe_cluster::{Fabric, Topology};
use schemoe_collectives::NcclA2A;
use schemoe_compression::{Compressor, Fp16Compressor, NoCompression};
use schemoe_models::distributed_full_step;
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, Placement, TopKGate};
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 6;
const H: usize = 8;
const REPLICATED: usize = 16;

type StepOut = Option<(Tensor, Tensor, Vec<f32>, Vec<Vec<f32>>)>;

#[allow(clippy::too_many_arguments)]
fn run_step(
    topo: Topology,
    dead: Option<usize>,
    degree: usize,
    k: usize,
    codec_idx: usize,
    x_global: &Tensor,
    n_local: usize,
) -> Vec<StepOut> {
    let p = topo.world_size();
    let live: Vec<bool> = (0..p).map(|r| Some(r) != dead).collect();
    Fabric::run(topo, move |mut h| {
        let me = h.rank();
        if Some(me) == dead {
            return None;
        }
        let gate = TopKGate::new(M, p, k, 8.0, &mut seeded(777));
        let experts: Vec<Box<dyn Expert>> =
            vec![Box::new(FfExpert::new(M, H, &mut seeded(2000 + me as u64)))];
        let codec: Box<dyn Compressor> = match codec_idx {
            0 => Box::new(NoCompression),
            _ => Box::new(Fp16Compressor),
        };
        let mut layer = DistributedMoeLayer::new(gate, experts, codec, Box::new(NcclA2A))
            .with_partition_degree(degree)
            .with_recv_timeout(std::time::Duration::from_secs(30));
        if let Some(d) = dead {
            layer.mark_rank_dead(d);
        }
        let mut x = Tensor::zeros(&[n_local, M]);
        for r in 0..n_local {
            x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
        }
        let mut replicated: Vec<f32> = (0..REPLICATED)
            .map(|i| ((me * REPLICATED + i) % 23) as f32 * 0.5)
            .collect();
        let (y, dx) =
            distributed_full_step(&mut h, &mut layer, &x, 0, &mut replicated, &live).unwrap();
        let mut grads = Vec::new();
        layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
        Some((y, dx, replicated, grads))
    })
}

/// One robustness mode per case: a non-static placement with replica
/// fan-out and a migrated expert (0), one dead rank in degraded mode (1),
/// the dead rank's expert hosted on a failover buddy (2), or a non-static
/// placement installed while the last rank is dead (3): its expert stays
/// masked while the live experts fan out and migrate.
type RobustOut = Option<(Tensor, Tensor, Vec<f32>, Vec<Vec<f32>>, Vec<u64>, u64, u64)>;

fn run_robust_step(
    topo: Topology,
    mode: usize,
    degree: usize,
    k: usize,
    cap: f64,
    x_global: &Tensor,
    n_local: usize,
) -> Vec<RobustOut> {
    let p = topo.world_size();
    let dead = (mode > 0).then(|| p - 1);
    let live: Vec<bool> = (0..p).map(|r| Some(r) != dead).collect();
    Fabric::run(topo, move |mut h| {
        let me = h.rank();
        if Some(me) == dead {
            return None;
        }
        let gate = TopKGate::new(M, p, k, cap, &mut seeded(777));
        let experts: Vec<Box<dyn Expert>> =
            vec![Box::new(FfExpert::new(M, H, &mut seeded(2000 + me as u64)))];
        let mut layer =
            DistributedMoeLayer::new(gate, experts, Box::new(NoCompression), Box::new(NcclA2A))
                .with_partition_degree(degree)
                .with_recv_timeout(std::time::Duration::from_secs(30));
        match mode {
            0 => {
                // Expert 0 fans out across ranks 0 and 1; the last
                // expert migrates off its home onto rank 0. Guest
                // bodies mirror the home's seeding, exactly as the
                // placement controller's state transfer reproduces.
                let mut servers: Vec<Vec<usize>> = (0..p).map(|e| vec![e]).collect();
                servers[0] = vec![0, 1];
                servers[p - 1] = vec![0];
                if me == 1 {
                    layer.install_guest_expert(
                        me,
                        0,
                        Box::new(FfExpert::new(M, H, &mut seeded(2000))),
                    );
                }
                if me == 0 && p > 1 {
                    layer.install_guest_expert(
                        me,
                        p - 1,
                        Box::new(FfExpert::new(M, H, &mut seeded(2000 + (p - 1) as u64))),
                    );
                }
                layer.set_placement(me, Placement::new(1, 1, servers));
            }
            1 => layer.mark_rank_dead(dead.unwrap()),
            3 => {
                // Expert 0 fans out across ranks 0 and 1 (rank 1 is the
                // dead one when p == 2: the fan-out collapses onto rank
                // 0), and with p > 2 the second-to-last expert migrates
                // onto rank 0. The dead rank's own expert keeps its home,
                // so it stays masked.
                layer.mark_rank_dead(p - 1);
                let mut servers: Vec<Vec<usize>> = (0..p).map(|e| vec![e]).collect();
                servers[0] = vec![0, 1];
                if p > 2 {
                    servers[p - 2] = vec![0];
                }
                if me == 1 {
                    layer.install_guest_expert(
                        me,
                        0,
                        Box::new(FfExpert::new(M, H, &mut seeded(2000))),
                    );
                }
                if me == 0 && p > 2 {
                    layer.install_guest_expert(
                        me,
                        p - 2,
                        Box::new(FfExpert::new(M, H, &mut seeded(2000 + (p - 2) as u64))),
                    );
                }
                layer.set_placement(me, Placement::new(1, 1, servers));
            }
            _ => {
                let d = dead.unwrap();
                layer.mark_rank_dead(d);
                layer.set_failover_route(d, 0);
                if me == 0 {
                    let ward: Box<dyn Expert> =
                        Box::new(FfExpert::new(M, H, &mut seeded(2000 + d as u64)));
                    layer.install_hosted_experts(d, vec![ward]);
                }
            }
        }
        let mut x = Tensor::zeros(&[n_local, M]);
        for r in 0..n_local {
            x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
        }
        let mut replicated: Vec<f32> = (0..REPLICATED)
            .map(|i| ((me * REPLICATED + i) % 23) as f32 * 0.5)
            .collect();
        let (y, dx) =
            distributed_full_step(&mut h, &mut layer, &x, 0, &mut replicated, &live).unwrap();
        let mut grads = Vec::new();
        layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
        for e in layer.guest_expert_ids() {
            layer.visit_serving_params(me, e, &mut |prm| grads.push(prm.grad.data().to_vec()));
        }
        let (loads, shed, routed, _p99) = layer.take_load_stats();
        Some((y, dx, replicated, grads, loads, shed, routed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn overlapped_full_step_bit_identical_to_serial(
        nodes in 1usize..3,
        gpus in 1usize..3,
        n_local in 1usize..6,
        k_raw in 1usize..3,
        degree in 2usize..9,
        codec_idx in 0usize..2,
        kill in 0usize..4,
        seed in 0u64..200,
    ) {
        let topo = Topology::new(nodes, gpus);
        let p = topo.world_size();
        let k = k_raw.min(p);
        // kill == 0 keeps everyone alive; otherwise one rank dies and the
        // step must still agree with the degraded serial step.
        let dead = (kill > 0 && p > 1).then(|| (kill - 1) % p);
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(seed));
        let serial = run_step(topo, dead, 1, k, codec_idx, &x_global, n_local);
        let overlapped = run_step(topo, dead, degree, k, codec_idx, &x_global, n_local);
        for me in 0..p {
            if Some(me) == dead {
                prop_assert!(overlapped[me].is_none());
                continue;
            }
            let (ys, dxs, reds, gs) = serial[me].as_ref().unwrap();
            let (yo, dxo, redo, go) = overlapped[me].as_ref().unwrap();
            let ydiff = yo.max_abs_diff(ys).unwrap();
            prop_assert!(ydiff == 0.0, "rank {} forward diverged by {}", me, ydiff);
            let dxdiff = dxo.max_abs_diff(dxs).unwrap();
            prop_assert!(dxdiff == 0.0, "rank {} input grads diverged by {}", me, dxdiff);
            prop_assert_eq!(redo, reds, "rank {} reduced values diverged", me);
            prop_assert_eq!(go, gs, "rank {} param grads diverged", me);
        }
    }

    /// Property: capacity-factor shedding and replica fan-out routing are
    /// bit-deterministic across thread interleavings (partition degrees)
    /// and compose with one-dead-rank degraded mode, hosted-expert
    /// failover, and each other. Outputs, gradients, reduced values, per-expert routed
    /// loads, and shed counts must all agree bit for bit between any two
    /// pipeline schedules of the same step.
    #[test]
    fn shed_and_placed_routing_bit_deterministic_across_interleavings(
        nodes in 1usize..3,
        gpus in 2usize..4,
        n_local in 2usize..6,
        k_raw in 1usize..3,
        degree_a in 1usize..9,
        degree_b in 1usize..9,
        mode in 0usize..4,
        seed in 0u64..200,
    ) {
        let topo = Topology::new(nodes, gpus);
        let p = topo.world_size();
        let k = k_raw.min(p);
        // A tight factor forces overload shedding on odd seeds; a loose
        // one keeps every token admitted. Both must replay identically.
        let cap = if seed % 2 == 1 { 0.6 } else { 8.0 };
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(seed));
        let a = run_robust_step(topo, mode, degree_a, k, cap, &x_global, n_local);
        let b = run_robust_step(topo, mode, degree_b, k, cap, &x_global, n_local);
        let dead = (mode > 0).then(|| p - 1);
        for me in 0..p {
            if Some(me) == dead {
                prop_assert!(a[me].is_none());
                prop_assert!(b[me].is_none());
                continue;
            }
            let (ya, dxa, reda, ga, la, sheda, routeda) = a[me].as_ref().unwrap();
            let (yb, dxb, redb, gb, lb, shedb, routedb) = b[me].as_ref().unwrap();
            prop_assert!(ya.max_abs_diff(yb).unwrap() == 0.0, "rank {} forward diverged", me);
            prop_assert!(dxa.max_abs_diff(dxb).unwrap() == 0.0, "rank {} input grads diverged", me);
            prop_assert_eq!(reda, redb, "rank {} reduced values diverged", me);
            prop_assert_eq!(ga, gb, "rank {} param grads diverged", me);
            prop_assert_eq!(la, lb, "rank {} routed loads diverged", me);
            prop_assert_eq!(sheda, shedb, "rank {} shed counts diverged", me);
            prop_assert_eq!(routeda, routedb, "rank {} admitted counts diverged", me);
            prop_assert!(*routeda > 0, "rank {} routed nothing", me);
        }
    }
}

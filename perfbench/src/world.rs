//! Two-rank worlds built from public entry points: `transport::mesh` for
//! the pinned backend, an optional `ChaosPlan` shaping every link, optional
//! benchmark wrappers beneath the fabric, then `RankHandle::attach`.

use std::sync::Arc;
use std::time::Duration;

use schemoe_cluster::transport::{self, ChaosLink, ChaosPlan, ChaosTransport, TransportKind};
use schemoe_cluster::{Rank, RankHandle, Topology, Transport};

/// Ranks per world. Each rank is a thread of the benchmark process.
pub const WORLD: usize = 2;

/// Per-link shaping: a fixed latency plus a bandwidth ceiling, charged to
/// the sender on every cross-rank send.
#[derive(Clone, Copy, Debug)]
pub struct Shaping {
    pub latency: Duration,
    pub bytes_per_sec: u64,
}

/// How a workload's ranks talk: the backend is pinned here, never read
/// from the environment, so `SCHEMOE_TRANSPORT` cannot change a workload.
#[derive(Clone, Copy, Debug)]
pub struct Net {
    pub kind: TransportKind,
    pub shaping: Option<Shaping>,
}

impl Net {
    /// Whether the fabric must CRC-frame every payload on this backend.
    pub fn framed(&self) -> bool {
        self.kind != TransportKind::Channel
    }

    fn chaos_plan(&self) -> Option<Arc<ChaosPlan>> {
        let s = self.shaping?;
        let link = ChaosLink {
            loss_prob: 0.0,
            latency: s.latency,
            bytes_per_sec: Some(s.bytes_per_sec),
        };
        let mut plan = ChaosPlan::seeded(0);
        for src in 0..WORLD {
            for dst in (0..WORLD).filter(|&d| d != src) {
                plan = plan.with_link(src, dst, link);
            }
        }
        Some(Arc::new(plan))
    }
}

/// Wraps a rank's established endpoint (beneath the fabric, above the
/// shaping) before it is attached.
pub type Wrap<'a> = &'a (dyn Fn(Rank, Box<dyn Transport>) -> Box<dyn Transport> + Sync);

/// Runs `f` once per rank, each on its own thread over a fresh mesh, and
/// returns the results in rank order. A rank's panic propagates.
pub fn run<T, F>(net: Net, wrap: Wrap<'_>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(RankHandle) -> T + Sync,
{
    let topo = Topology::new(1, WORLD);
    let chaos = net.chaos_plan();
    let bootstraps = transport::mesh(net.kind, WORLD);
    let f = &f;
    let chaos = &chaos;
    std::thread::scope(|scope| {
        let joins: Vec<_> = bootstraps
            .into_iter()
            .enumerate()
            .map(|(rank, bootstrap)| {
                scope.spawn(move || {
                    let endpoint = bootstrap.establish();
                    assert_eq!(
                        endpoint.always_framed(),
                        net.framed(),
                        "{:?} endpoint framing differs from the workload's pin",
                        net.kind
                    );
                    let endpoint: Box<dyn Transport> = match chaos {
                        Some(plan) => {
                            Box::new(ChaosTransport::new(endpoint, rank, Arc::clone(plan)))
                        }
                        None => endpoint,
                    };
                    f(RankHandle::attach(topo, rank, wrap(rank, endpoint), None))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// The identity wrap: the endpoint as established.
pub fn bare(_: Rank, t: Box<dyn Transport>) -> Box<dyn Transport> {
    t
}

//! The measured system: three Eden kernels in this process, meshed over
//! real loopback TCP. Node 0 is the client; nodes 1 and 2 serve.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eden_bench::types::{EchoType, PayloadType};
use eden_efs::{BlobType, FileType, TxnManagerType};
use eden_kernel::{Node, NodeConfig, TypeManager, TypeRegistry};
use eden_obs::TraceSampling;
use eden_store::disk::SyncPolicy;
use eden_store::{CheckpointStore, DiskStore, MemStore};
use eden_transport::{TcpMesh, TcpTuning};

use crate::layers::{ClusterSnap, NodeSnap};

/// Kernels in the cluster.
pub const NODES: usize = 3;
/// The client kernel every generator thread invokes through.
pub const CLIENT: usize = 0;
/// The serving kernels objects are created on.
pub const SERVERS: [usize; 2] = [1, 2];

/// The one `NodeConfig` field measured runs change from the default:
/// tracing off (the default samples every invocation).
pub fn node_config() -> NodeConfig {
    NodeConfig {
        trace_sampling: TraceSampling::Ratio(0),
        ..NodeConfig::default()
    }
}

/// A booted cluster.
pub struct EdenCluster {
    /// Kernels, indexed by node id.
    pub nodes: Vec<Node>,
    /// Each node's disk log, for `log_bytes`; empty when not durable.
    disks: Vec<Arc<DiskStore>>,
    dir: Option<PathBuf>,
}

fn registry() -> Arc<TypeRegistry> {
    let registry = TypeRegistry::new();
    let types: [Arc<dyn TypeManager>; 5] = [
        Arc::new(EchoType),
        Arc::new(PayloadType),
        Arc::new(BlobType),
        Arc::new(FileType),
        Arc::new(TxnManagerType::two_phase_locking()),
    ];
    for t in types {
        registry.register(t).expect("benchmark types register once");
    }
    Arc::new(registry)
}

impl EdenCluster {
    /// Boots the cluster. With `durable_dir`, every node checkpoints to
    /// its own `DiskStore` log (fsync on every checkpoint) under that
    /// directory; otherwise to memory.
    pub fn boot(durable_dir: Option<&Path>) -> Result<EdenCluster, String> {
        let meshes = TcpMesh::bind_local_cluster_with(NODES, TcpTuning::default())
            .map_err(|e| format!("bind loopback cluster: {e}"))?;
        let mut disks = Vec::new();
        let mut nodes = Vec::with_capacity(NODES);
        for (i, mesh) in meshes.into_iter().enumerate() {
            let store: Arc<dyn CheckpointStore> = match durable_dir {
                Some(dir) => {
                    let disk =
                        DiskStore::open(dir.join(format!("node{i}.log")), SyncPolicy::Always)
                            .map(Arc::new)
                            .map_err(|e| format!("open disk store: {e}"))?;
                    disks.push(disk.clone());
                    disk
                }
                None => Arc::new(MemStore::new()),
            };
            nodes.push(Node::new(node_config(), Arc::new(mesh), store, registry()));
        }
        Ok(EdenCluster {
            nodes,
            disks,
            dir: durable_dir.map(Path::to_path_buf),
        })
    }

    /// Switches every kernel's trace sampling.
    pub fn set_sampling(&self, policy: TraceSampling) {
        for n in &self.nodes {
            n.obs().set_sampling(policy.clone());
        }
    }

    /// Reads every counter the kernels keep, through their public
    /// snapshots.
    pub fn snapshot(&self) -> ClusterSnap {
        ClusterSnap(
            self.nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeSnap {
                    kernel: n.metrics(),
                    transport: n.transport_stats(),
                    vproc: n.vproc_stats(),
                    hist: n.obs().histograms_snapshot(),
                    log_bytes: self.disks.get(i).map_or(0, |d| d.log_bytes()),
                })
                .collect(),
        )
    }

    /// Stops every kernel (joining its threads) and removes the disk
    /// logs.
    pub fn shutdown(self) {
        for n in &self.nodes {
            n.shutdown();
        }
        drop(self.nodes);
        drop(self.disks);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

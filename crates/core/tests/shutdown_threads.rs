//! A cluster that boots, runs nested invocations and shuts down gives
//! every virtual-processor thread back. Kept alone in its own test
//! binary (its own process), so no other test's cluster can own an
//! `eden-vproc` thread while this one counts them. Reads thread names
//! from `/proc`, so it runs on Linux only.
#![cfg(target_os = "linux")]

use std::time::Duration;

use eden_capability::Rights;
use eden_kernel::{Cluster, NodeConfig, OpCtx, OpError, OpResult, TypeManager, TypeSpec};
use eden_wire::Value;

/// `relay` waits on a nested `work` on the object it is handed; `work`
/// sleeps briefly.
struct Relay;

impl TypeManager for Relay {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("relay")
            .class("all", 16)
            .op("relay", "all", Rights::EXECUTE)
            .op("work", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "relay" => Ok(ctx.invoke(OpCtx::cap_arg(args, 0)?, "work", &[])?),
            "work" => {
                std::thread::sleep(Duration::from_millis(5));
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Names of this process's threads whose name starts with `prefix`.
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

#[test]
fn shutdown_returns_every_virtual_processor_thread() {
    let cluster = Cluster::builder()
        .nodes(3)
        .node_config(NodeConfig {
            virtual_processors: 1,
            ..Default::default()
        })
        .register(|| Box::new(Relay))
        .build();
    // Local nesting on node 1 and cross-node nesting 1 -> 2, sent
    // together so waiting relays start spare workers.
    let relay = cluster.node(1).create_object("relay", &[]).unwrap();
    let near = cluster.node(1).create_object("relay", &[]).unwrap();
    let far = cluster.node(2).create_object("relay", &[]).unwrap();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let target = if i % 2 == 0 { near } else { far };
            cluster
                .node(0)
                .invoke_async(relay, "relay", &[Value::Cap(target)])
        })
        .collect();
    for h in handles {
        h.wait(Duration::from_secs(10)).unwrap();
    }
    assert!(
        cluster.node(1).vproc_stats().spares_spawned >= 1,
        "the run never started a spare: {:?}",
        cluster.node(1).vproc_stats()
    );
    assert!(!threads_named("eden-vproc").is_empty());

    cluster.shutdown();
    for node in cluster.nodes() {
        assert_eq!(node.vproc_stats().live, 0, "{:?}", node.vproc_stats());
    }
    assert_eq!(threads_named("eden-vproc"), Vec::<String>::new());
}

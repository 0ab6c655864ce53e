//! The receive path is event-driven: a reader wakes the moment a frame
//! lands, so a sequential ping-pong pays no timer anywhere. A reader
//! that napped between passes (even for 1 ms) would spend at least a
//! second on the thousand round trips below.

use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_transport::{Endpoint, TcpMesh};
use eden_wire::{Frame, Message};

const ROUND_TRIPS: u64 = 1000;
const BUDGET: Duration = Duration::from_millis(500);

#[test]
fn a_thousand_sequential_round_trips_wait_on_no_timer() {
    let meshes = TcpMesh::bind_local_cluster(2).expect("bind");
    let (a, b) = (&meshes[0], &meshes[1]);

    let ping = |token| Frame::to(NodeId(0), NodeId(1), Message::Ping { token });
    let pong = |token| Frame::to(NodeId(1), NodeId(0), Message::Pong { token });
    let expect = |mesh: &TcpMesh| {
        mesh.recv_timeout(Duration::from_secs(2))
            .expect("recv")
            .expect("frame within 2 s")
            .msg
    };

    // Warm up: both writers dial and both readers come up.
    a.send(ping(u64::MAX)).unwrap();
    assert_eq!(expect(b), Message::Ping { token: u64::MAX });
    b.send(pong(u64::MAX)).unwrap();
    assert_eq!(expect(a), Message::Pong { token: u64::MAX });

    let start = Instant::now();
    for token in 0..ROUND_TRIPS {
        a.send(ping(token)).unwrap();
        assert_eq!(expect(b), Message::Ping { token });
        b.send(pong(token)).unwrap();
        assert_eq!(expect(a), Message::Pong { token });
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "{ROUND_TRIPS} round trips took {elapsed:?} (budget {BUDGET:?})"
    );
}

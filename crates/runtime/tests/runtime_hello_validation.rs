//! A hello is a claim, not a credential: the first frame on an accepted
//! connection names a member id, and the node must refuse to install a
//! link — one it would flood and heartbeat to — for an id that cannot be a
//! peer: its own, one outside the member space, or one the directory does
//! not know. Real sockets; the simulator twin lives in `sim_membership.rs`.

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::Constraint;
use lhg_net::codec::write_frame;
use lhg_net::fifo::fifo_id;
use lhg_net::message::Message;
use lhg_runtime::{wire, Cluster, RuntimeConfig};

#[test]
fn bogus_hellos_are_closed_and_never_become_links() {
    let mut c = Cluster::launch(Constraint::Jd, 6, 2, RuntimeConfig::default()).expect("boots");
    let target = c.node(0).expect("node 0").clone();
    let bogus = [
        wire::hello_id(0),               // the node's own id
        wire::HELLO_TAG | (1 << 30) | 3, // nonce bits set: an id ≥ MAX_MEMBERS
        wire::hello_id(4242),            // nobody the directory knows
    ];
    let smuggled = fifo_id(5, 77);
    for hello in bogus {
        let mut s = TcpStream::connect(target.addr).expect("listener is up");
        write_frame(&mut s, &Message::new(hello, 9, Bytes::new())).expect("hello written");
        // What an installed link would have accepted as application data.
        let _ = write_frame(&mut s, &Message::new(smuggled, 5, Bytes::from_static(b"x")));
        // The node hangs up: EOF (or a reset), never a frame.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(s.read(&mut buf), Ok(0) | Err(_)), "{hello:#x}");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.metrics().counter("runtime.hello_rejected").get() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.metrics().counter("runtime.hello_rejected").get(), 3);
    let members: std::collections::BTreeSet<u64> = c.members().into_iter().collect();
    assert!(
        target.links_up().is_subset(&members),
        "{:?}",
        target.links_up()
    );
    assert!(!target.links_up().contains(&0));
    assert!(!target.delivered_ids().contains(&smuggled));
    // The mesh is unharmed.
    let id = c
        .broadcast(3, Bytes::from_static(b"still here"))
        .expect("send");
    assert!(c.await_delivery(id, Duration::from_secs(5)));
    assert!(!target.delivered_ids().contains(&smuggled));
    c.shutdown();
}

//! A hello is a claim, not a credential: the first frame on an accepted
//! connection names a member id, and the node must refuse to install a
//! link — one it would flood and heartbeat to — for an id that cannot be a
//! peer: its own, one outside the member space, or one the directory does
//! not know. And until the hello has arrived the connection is a stranger's:
//! it may not make the node allocate a frame body of its choosing, nor hold
//! a thread by saying nothing. Real sockets; the simulator twin of the id
//! checks lives in `sim_membership.rs`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lhg_core::Constraint;
use lhg_net::codec::{write_frame, MAX_FRAME_LEN};
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
    assert!(!target.has_delivered(smuggled));
    // The mesh is unharmed.
    let id = c
        .broadcast(3, Bytes::from_static(b"still here"))
        .expect("send");
    assert!(c.await_delivery(id, Duration::from_secs(5)));
    assert!(!target.has_delivered(smuggled));
    c.shutdown();
}

#[test]
fn strangers_get_neither_memory_nor_patience() {
    let config = RuntimeConfig::default();
    let patience = config.dial_timeout;
    let mut c = Cluster::launch(Constraint::Jd, 6, 2, config).expect("boots");
    let target = c.node(0).expect("node 0").clone();
    let connect = || {
        let s = TcpStream::connect(target.addr).expect("listener is up");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };
    // The node hangs up: EOF (or a reset) — not a frame, and not our own
    // read timeout running out on a connection it still holds.
    let hung_up = |mut s: TcpStream| match s.read(&mut [0u8; 16]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    };

    // A first frame announcing the largest body the codec allows, and one
    // that is a hello in everything but its size: both refused on the
    // prefix alone, with no body to wait for.
    let asked = Instant::now();
    let mut greedy = connect();
    greedy
        .write_all(&(MAX_FRAME_LEN as u32).to_be_bytes())
        .unwrap();
    assert!(hung_up(greedy), "a 16 MiB first frame");
    let mut padded = connect();
    let hello = Message::new(wire::hello_id(3), 3, Bytes::from(vec![0u8; 64]));
    write_frame(&mut padded, &hello).expect("written");
    assert!(hung_up(padded), "a hello with a payload");
    assert!(asked.elapsed() < patience, "refused at once, not timed out");

    // Nothing at all, and half a length prefix followed by nothing: both
    // dropped once `dial_timeout` has passed.
    let silent = connect();
    let mut stalled = connect();
    stalled.write_all(&[0, 0]).unwrap();
    assert!(hung_up(silent), "a silent connection");
    assert!(hung_up(stalled), "half a prefix");

    let rejected = c.metrics().counter("runtime.hello_rejected");
    let deadline = Instant::now() + Duration::from_secs(5);
    while rejected.get() < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(rejected.get(), 4);
    // The mesh is unharmed.
    let id = c
        .broadcast(3, Bytes::from_static(b"still here"))
        .expect("send");
    assert!(c.await_delivery(id, Duration::from_secs(5)));
    c.shutdown();
}
